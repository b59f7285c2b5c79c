# keeps the tests directory importable (oracles.py) regardless of cwd

import signal

import pytest

TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def _time_limit(request):
    """Fail a test that runs past ``TEST_TIME_LIMIT_S`` seconds, naming it,
    instead of letting a hang stall the suite.  Needs ``signal.setitimer``
    (POSIX); elsewhere tests run unlimited."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past the {TEST_TIME_LIMIT_S}-s limit per test")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
