"""Overdetermined RBF collocation solved in the least-squares sense.

Source and field node sets need not coincide: each field node
contributes one row (governing equation or boundary condition), each
source node one expansion column. Two solution paths are provided: the
literal normal equations, and an orthogonal-factorization solve that is
the numerically preferred default because forming G^T G squares the
condition number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lstsq

from .bkm import BoundaryData, boundary_groups
from .errors import ConditioningError, RankError, ShapeError
from .geometry import NodeSet
from .kernels import RadialKernel
from .linalg import factor
from .operators import OperatorSpec, collocation_matrix

#: expansion scheme -> collocation column kind of its basis
SCHEMES = {"kansa_like": "value", "mkm_like": "adjoint"}


@dataclass(frozen=True)
class OverdeterminedSystem:
    """Tall collocation system G beta = b with M rows over N sources."""

    G: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        M, N = self.G.shape
        if M < N or N < 1:
            raise ShapeError(f"system is {M}x{N}; need at least as many rows as columns")
        if not (np.all(np.isfinite(self.G)) and np.all(np.isfinite(self.b))):
            raise ValueError("system entries must be finite")

    @property
    def field_count(self) -> int:
        return self.G.shape[0]

    @property
    def source_count(self) -> int:
        return self.G.shape[1]


def assemble_overdetermined(
    source_points: np.ndarray,
    field_nodes: NodeSet,
    op: OperatorSpec,
    bc: BoundaryData,
    f: Callable,
    psi: RadialKernel,
    scheme: str = "kansa_like",
) -> OverdeterminedSystem:
    """Collocate the expansion over the sources at every field node.

    `kansa_like` uses plain kernel columns; `mkm_like` uses
    adjoint-operator images of the kernel as the expansion basis. Rows
    are ordered [field interior | field Dirichlet | field Neumann] and
    carry unit weights.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {scheme!r}")
    bc.check_counts(field_nodes)
    xi = field_nodes.interior
    rows = [("op", xi)] + boundary_groups(field_nodes)
    G = collocation_matrix(op, psi, rows, [(SCHEMES[scheme], source_points)])
    b = np.concatenate(
        [
            np.asarray(f(xi), dtype=float) if len(xi) else np.empty(0),
            bc.dirichlet_values,
            bc.neumann_values,
        ]
    )
    return OverdeterminedSystem(G=G, b=b)


@dataclass
class LeastSquaresResult:
    beta: np.ndarray
    sigma: float  # sum of squared row residuals
    rank_deficient: bool
    cond_est: float


def residual_sigma(system: OverdeterminedSystem, beta: np.ndarray) -> float:
    """Sum of squared row residuals of a candidate solution."""
    res = system.G @ beta - system.b
    return float(res @ res)


def solve_least_squares(
    system: OverdeterminedSystem, method: str = "orthogonal"
) -> LeastSquaresResult:
    """Minimize the squared residual over the expansion coefficients.

    `normal_equations` forms G^T G and solves it directly; it refuses
    rank-deficient systems. `orthogonal` factorizes G itself and falls
    back to the minimum-norm solution (flagged) when rank drops.
    """
    G, b = system.G, system.b
    if method == "normal_equations":
        try:
            lu = factor(G.T @ G, "normal equations", limit=1e14)
            beta = lu.solve(G.T @ b)
        except ConditioningError as exc:
            raise RankError(
                f"normal equations are rank deficient (condition {exc.estimate:.3e})"
            ) from exc
        return LeastSquaresResult(
            beta=beta,
            sigma=residual_sigma(system, beta),
            rank_deficient=False,
            cond_est=lu.cond_est,
        )
    if method == "orthogonal":
        # gelsd returns the singular values of G: their ratio is the
        # 2-norm condition number, no second SVD needed
        beta, _, rank, s = lstsq(G, b)
        return LeastSquaresResult(
            beta=beta,
            sigma=residual_sigma(system, beta),
            rank_deficient=rank < system.source_count,
            cond_est=float(s[0] / s[-1]) if s[-1] > 0 else np.inf,
        )
    raise ValueError(f"method must be 'normal_equations' or 'orthogonal', got {method!r}")
