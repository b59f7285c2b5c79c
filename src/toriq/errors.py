"""Exception hierarchy shared across the package, and its argument checks.

Two broad families matter to callers (and fix the CLI exit codes):
``InputError`` for malformed user input, ``DomainError`` for structurally
valid data that violates an operation's precondition.  ``_check_int``
decides what an integer argument is (an ``int``, never a ``bool``, at least
a bound if given), ``_check_type`` what an object argument is (an instance
of the class asked for), ``_check_rows`` what a vector list is (an iterable
of iterables), and ``_shown`` how a caller's value shows in a message: no
number is cut, and none too long to print is printed.
"""


class ToriqError(Exception):
    """Base class for every error raised by this package."""


class InputError(ToriqError):
    """Malformed input: fan files, expression strings, CLI arguments."""


class DomainError(ToriqError):
    """Valid input outside an operation's domain (precondition violation)."""


class FanValidationError(InputError):
    """A fan description breaks a structural invariant; message names the field."""


class ExpressionError(InputError):
    """An expression string could not be parsed."""


class TorusFactorError(DomainError):
    """The fan's rays do not span the lattice, so the homogeneous quotient
    presentation does not apply."""


class IncompleteFanError(DomainError):
    """The operation needs a fan declared complete."""


class ResourceLimitError(DomainError):
    """An exact computation would exceed a size cap; the message names the
    stage, the input sizes and the cap."""


class LevelMismatchError(DomainError):
    """Two truncated values live at different levels; refine explicitly first."""


def _shown(x) -> str:
    """``repr(x)`` cut to 40 characters; an ``int`` with a longer repr as
    ``a [negative ]N-bit integer``, a value whose repr raises by its type."""
    if type(x) is int and not -10**39 < x < 10**40:
        return f"a {'negative ' if x < 0 else ''}{x.bit_length()}-bit integer"
    try:
        return repr(x)[:40]
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        return f"a {type(x).__name__} too long to print"


def _check_int(x, message: str, least: int | None = None, error=DomainError) -> int:
    """``x`` if it is an ``int``, not a ``bool``, and at least ``least`` when
    given; else raise ``error(message)``, its ``{}`` filled by ``_shown(x)``."""
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)) or (
            least is not None and x < least):
        raise error(message.format(_shown(x)))
    return x


def _check_type(x, cls, message: str, error=DomainError):
    """``x`` if an instance of ``cls``, else raise ``error(message)``, ``{}`` filled by ``_shown(x)``."""
    if not isinstance(x, cls):
        raise error(message.format(_shown(x)))
    return x


def _check_rows(x, message: str, error=DomainError) -> tuple:
    """``x`` as a tuple of tuples if it and its items are iterable; else
    raise ``error(message)``, its ``{}`` filled by ``_shown(x)``."""
    try:
        return tuple(map(tuple, x))
    except TypeError:
        raise error(message.format(_shown(x))) from None
