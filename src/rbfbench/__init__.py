"""Meshfree RBF collocation solvers and a benchmark harness."""

from .bkm import (
    BoundaryData,
    RecoveredTraces,
    assemble_symmetric_system,
    fit_particular,
    solve_direct,
    solve_indirect,
)
from .bpm import BpmSolution, MrmProblem, assemble_Q, solve_bpm
from .geometry import (
    DomainSpec,
    NodeSet,
    generate_nodes,
    outward_normal,
    partition_boundary,
)
from .kernels import (
    CATALOG,
    RadialKernel,
    augment_r2m,
    build_kernel,
    check_regulation,
    default_shape_parameter,
    higher_order_solution,
    shape_substitute,
)
from .lsq import OverdeterminedSystem, assemble_overdetermined, solve_least_squares
from .mkm import MkmSystem, assemble_mkm, solve_kansa_baseline, solve_mkm
from .operators import (
    Expansion,
    OperatorSpec,
    Term,
    adjoint_of,
    collocation_matrices,
    collocation_matrix,
    convection_diffusion,
    helmholtz,
    laplace,
    mod_helmholtz,
)

__version__ = "0.1.0"
