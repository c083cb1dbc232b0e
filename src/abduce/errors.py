"""The three failures a caller can act on.  Each message says what is wrong;
the type says what to do: fix the input, raise a limit, or report a bug."""


class ModelError(Exception):
    """A model, evidence item, parameter or argument is malformed, or names
    something that does not exist; maps to exit code 1 in the CLI."""


class SolverLimit(Exception):
    """A pivot or node limit was hit, or an optimum could not be certified
    (rounding drift, never the input); maps to exit code 2 in the CLI."""


class InvariantViolation(AssertionError):
    """The search broke an invariant its correctness rests on, such as weak
    duality; a bug, never a property of the input.  Raised explicitly, so
    ``python -O`` keeps the check."""
