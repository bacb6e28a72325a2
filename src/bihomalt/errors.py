"""Exception hierarchy shared by all modules.

The split mirrors the CLI exit codes: bad input or unmet preconditions
(exit 2) versus a mathematical check that ran and failed (exit 1).
"""


class BihomError(Exception):
    pass


class InputError(BihomError):
    """Malformed input: shape mismatch, unparsable rational, bad schema."""


class PreconditionError(BihomError):
    """A documented precondition does not hold (e.g. non-invertible twist)."""


class InternalError(BihomError):
    """An exactness guard failed: a defect in the library, not in the input."""


class MathCheckError(BihomError):
    """A mathematical condition failed; carries the condition name and a witness."""

    def __init__(self, message, condition=None, witness=None, report=None):
        super().__init__(message)
        self.condition = condition
        self.witness = witness
        self.report = report
