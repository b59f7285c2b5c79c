"""Exception hierarchy shared across the package, and its argument checks.

Two broad families matter to callers (and fix the CLI exit codes):
``InputError`` for malformed user input, ``DomainError`` for structurally
valid data that violates an operation's precondition.  ``_check_int``
decides what an integer argument is (an ``int``, never a ``bool``, within
the bounds if given), ``_as_fraction`` what a rational argument is (an
``int``, a ``Fraction`` or another exact rational number, never a float, a
string or a ``bool``), ``_check_type`` what an object argument is (an
instance of the class asked for), ``_check_iterable`` what an iterable
argument is (one that ``tuple`` takes; with ``item=tuple``, a list of
vectors; with ``item=_int_item``, an integer vector), and ``_shown`` how a
caller's value shows in a message: no number is cut, and none too long to
print is printed.
``_trusted`` builds a result that already holds what the checks enforce
without running them.
"""

from fractions import Fraction


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


def _check_int(x, message: str, least: int | None = None, error=DomainError,
               below: int | None = None) -> int:
    """``x`` if it is an ``int``, not a ``bool``, at least ``least`` and below
    ``below`` when given; else raise ``error(message)``, its ``{}`` filled by
    ``_shown(x)``."""
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)) or (
            least is not None and x < least) or (below is not None and x >= below):
        raise error(message.format(_shown(x)))
    return x


def _as_fraction(x) -> Fraction:
    """``x`` as a ``Fraction``: an ``int`` or ``Fraction`` at once, another
    exact rational number by ``Fraction(x)``.  A float, a string (which
    ``Fraction`` would parse), a ``bool`` or a non-rational x raises
    ``DomainError``."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, float):
        raise DomainError("floating point input rejected; pass Fraction or int")
    if isinstance(x, (str, bool)):
        raise DomainError(f"exact rational expected, got {_shown(x)}")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"exact rational expected, got {_shown(x)}") from None


def _check_type(x, cls, message: str, error=DomainError):
    """``x`` if an instance of ``cls``, else raise ``error(message)``, ``{}`` filled by ``_shown(x)``."""
    if not isinstance(x, cls):
        raise error(message.format(_shown(x)))
    return x


def _check_iterable(x, message: str, error=DomainError, item=None) -> tuple:
    """``tuple(x)``, or ``tuple(map(item, x))`` when ``item`` is given; if
    that raises ``TypeError`` (x is not iterable, its iteration breaks or
    ``item`` rejects an item), raise ``error(message)``, its ``{}`` filled
    by ``_shown(x)``."""
    try:
        return tuple(x) if item is None else tuple(map(item, x))
    except TypeError:
        raise error(message.format(_shown(x))) from None


def _int_item(y) -> int:
    """``_check_iterable``'s ``item`` for an integer vector: ``TypeError`` unless an int."""
    return _check_int(y, "", error=TypeError)


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` stored as
    given, without ``__post_init__``.

    For results of this package that already hold what the checks enforce:
    equality and hashing compare the stored values, so they must be in the
    form the checks would leave them (an ``IntMatrix`` takes a tuple of
    ``cols``-long tuples of ``int``, as ``from_rows`` would leave it).
    """
    obj = object.__new__(cls)
    # one object.__setattr__ per field, as a dataclass __init__ sets them:
    # writing obj.__dict__ instead would materialize the instance dict and
    # slow every later attribute read
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj
