"""Exception types shared across the package."""


class NetfuncError(Exception):
    """Base class for all package-specific errors."""


class LoopEdge(NetfuncError):
    """A self-loop (u, u) was supplied to a simple-graph constructor."""


class VertexOutOfRange(NetfuncError):
    """An edge endpoint is not a valid vertex id."""


class InvalidParam(NetfuncError):
    """A generator or CLI parameter fails validation."""


class UnknownFunctional(InvalidParam):
    """A functional name is not one the requested computation offers."""


class Disconnected(NetfuncError):
    """The operation requires a connected graph."""


class TooSmall(NetfuncError):
    """The vertex set is too small for the requested functional."""


class CliqueBudgetExceeded(NetfuncError):
    """Clique enumeration passed the configured count budget."""


class RecursionBudgetExceeded(NetfuncError):
    """The dimension recursion evaluated more subgraphs than allowed."""


class SizeCapExceeded(NetfuncError):
    """The graph exceeds the vertex cap of an exact exponential search."""


class NoEdges(NetfuncError):
    """The functional is undefined on edgeless graphs."""


class SingularZ(NetfuncError):
    """The similarity matrix is numerically singular (eigenvalue spread past 1e12)."""


class ConvergenceFailure(NetfuncError):
    """The eigensolver failed to converge."""


class RadiusTooLarge(NetfuncError):
    """The sphere radius exceeds the injectivity scale of the space."""


class UndefinedRatio(NetfuncError):
    """The cluster-length ratio is undefined; `reason` is 'nu_zero' or 'nu_one'
    (graphs), or 'nu_at_most_zero' or 'nu_at_least_one' (continuum estimates)."""

    def __init__(self, reason):
        super().__init__(f"cluster-length ratio undefined: {reason}")
        self.reason = reason


class EstimatorUndefined(NetfuncError):
    """The mean-field length estimate is undefined; `reason` names the degeneracy."""

    def __init__(self, reason):
        super().__init__(f"length estimate undefined: {reason}")
        self.reason = reason


class ParseError(NetfuncError):
    """An edge-list file failed to parse; `line` is the 1-based line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line
