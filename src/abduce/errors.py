"""Exception types shared across the package."""


class ModelError(Exception):
    """A model or input is malformed; maps to exit code 1 in the CLI."""


class InvariantViolation(AssertionError):
    """The search broke an invariant its correctness rests on, such as weak
    duality; a bug, never a property of the input.  Raised explicitly, so
    ``python -O`` keeps the check."""


class SolverLimit(Exception):
    """A solver resource limit was hit; maps to exit code 2 in the CLI."""


# --- graph / WAODAG ---------------------------------------------------------

class CyclicGraph(ModelError):
    pass


class DanglingEdge(ModelError):
    pass


class UnknownEvidenceNode(ModelError):
    pass


class NonFiniteCost(ModelError):
    pass


class DomainMismatch(ModelError):
    pass


class NotHypothesis(ModelError):
    pass


class NotAnExplanation(ModelError):
    pass


class OracleTooLarge(ModelError):
    pass


# --- Bayesian network -------------------------------------------------------

class CyclicNetwork(ModelError):
    pass


class RowNotNormalized(ModelError):
    def __init__(self, variable, config, total):
        super().__init__(
            f"CPT row for {variable} given {config!r} sums to {total!r}")
        self.variable = variable
        self.config = config
        self.total = total


class MissingCptEntry(ModelError):
    pass


class ValueOutOfRange(ModelError):
    pass


class UnknownVariable(ModelError):
    pass


class IncompleteInstantiation(ModelError):
    pass


class ZeroProbabilityRejected(ModelError):
    pass


class NotASolution(ModelError):
    pass


# --- solver -----------------------------------------------------------------

class NotMonotonic(ModelError):
    """Some node's cost gap ``cost_true - cost_false`` is negative."""


class IterationLimit(SolverLimit):
    pass


class NodeLimitExceeded(SolverLimit):
    pass


class LostDualFeasibility(SolverLimit):
    """A dual simplex from the slack basis ended on a basis that is not dual
    feasible, so its optimum is not certified; rounding drift, never a
    property of the input."""


class ParseError(ModelError):
    pass
