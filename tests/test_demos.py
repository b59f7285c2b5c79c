"""Every demo prints exactly its recorded output.

Each demo runs as its own interpreter in a temporary directory, because
``02_moment_polytopes.py`` writes ``delzant_cp2.svg`` to the working
directory.  Each runs with a file opened in the locale's encoding made an
error, so the SVG is written as UTF-8 whatever the locale.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# a file opened without an explicit encoding is an error, not the locale's
STRICT_ENCODING = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, *STRICT_ENCODING, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
