"""Overdetermined RBF collocation solved in the least-squares sense.

Source and field node sets need not coincide: each field node
contributes one row (governing equation or boundary condition), each
source node one expansion column. Two solution paths are provided: the
literal normal equations, and an orthogonal-factorization solve that is
the numerically preferred default because forming G^T G squares the
condition number. The orthogonal solve is one Householder QR of G
(LAPACK gels) with a 1-norm condition estimate of its R factor (trcon),
the least-squares counterpart of `linalg.factor`; only a numerically
rank-deficient G takes the SVD-based minimum-norm solve (gelsd).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lstsq
from scipy.linalg.lapack import get_lapack_funcs

from .bkm import BoundaryData, boundary_groups
from .errors import ConditioningError, RankError, ShapeError
from .geometry import NodeSet
from .kernels import RadialKernel
from .linalg import CONDITION_LIMIT, factor
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
    rank-deficient systems. `orthogonal` factorizes G = QR itself and
    reports the 1-norm condition estimate of R; when R is exactly
    singular or its estimate passes `CONDITION_LIMIT`, it falls back to
    the minimum-norm solution, flagged `rank_deficient` when the SVD
    finds the rank short.
    """
    G, b = system.G, system.b
    if method == "normal_equations":
        try:
            lu = factor(G.T @ G, "normal equations", limit=CONDITION_LIMIT)
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
        N = system.source_count
        gels, gels_lwork, trcon = get_lapack_funcs(("gels", "gels_lwork", "trcon"), (G,))
        # the optimal workspace makes gels blocked; with the minimum one it
        # runs unblocked and is slower than gelsd
        lwork, _ = gels_lwork(*G.shape, 1)
        qr, x, info = gels(G, b[:, None], lwork=int(lwork))
        rcond = trcon(qr[:N], norm="1")[0] if info == 0 else 0.0
        cond = 1.0 / rcond if rcond > 0 else np.inf
        beta, rank = x[:N, 0], N
        if cond > CONDITION_LIMIT:
            beta, _, rank, _ = lstsq(G, b)
        return LeastSquaresResult(
            beta=beta,
            sigma=residual_sigma(system, beta),
            rank_deficient=rank < N,
            cond_est=float(cond),
        )
    raise ValueError(f"method must be 'normal_equations' or 'orthogonal', got {method!r}")
