"""Exception taxonomy shared across the toolkit."""


class RbfError(Exception):
    """Base class for all rbfbench errors."""


class InvalidDomainError(RbfError):
    """Domain definition is degenerate (zero area, unknown shape)."""


class GeometryError(RbfError):
    """A point is not where a geometric operation requires it to be."""


class PartitionError(RbfError):
    """Boundary-condition partition is empty or out of range."""


class ParameterError(RbfError):
    """Kernel or operator parameters are out of their valid range."""


class SingularityError(RbfError):
    """Evaluation requested at a pole of a singular kernel."""


class UnsupportedError(RbfError):
    """Requested operator/order combination is not implemented."""


class InvalidKernelError(RbfError):
    """Kernel fails the homogeneous-solution residual check."""


class KernelSmoothnessError(RbfError):
    """Kernel lacks the radial derivatives a scheme needs, or their limits at coincident points."""


class ShapeError(RbfError):
    """Overdetermined system has fewer rows than columns."""


class RankError(RbfError):
    """Normal equations are rank deficient."""


class SymmetryError(RbfError):
    """Matrix to be factored as symmetric is not symmetric to rounding."""


class ConfigError(RbfError):
    """Benchmark configuration references unknown names or is malformed."""


class ConditioningError(RbfError):
    """Dense system too ill-conditioned to solve reliably.

    Carries the condition estimate that triggered the refusal.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (condition estimate {estimate:.3e})")
        self.estimate = float(estimate)
