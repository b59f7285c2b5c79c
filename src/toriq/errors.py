"""Exception hierarchy shared across the package.

Two broad families matter to callers (and fix the CLI exit codes):
``InputError`` for malformed user input, ``DomainError`` for structurally
valid data that violates an operation's precondition.
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
