"""Overdetermined RBF collocation solved in the least-squares sense.

Source and field node sets need not coincide: each field node
contributes one row (governing equation or boundary condition), each
source node one expansion column. Two solution paths are provided: the
literal normal equations, and an orthogonal-factorization solve that is
the numerically preferred default because forming G^T G squares the
condition number. The orthogonal solve is a Householder QR of G with a
1-norm condition estimate of its R factor (trcon), the least-squares
counterpart of `linalg.factor`; only a numerically rank-deficient G takes
the SVD-based minimum-norm solve (gelsd). A G of fewer than SPLIT_COLUMNS
columns, or of fewer than twice as many rows as columns, is one block:
geqrf, ormqr and trtrs with gels's own workspace, which is LAPACK gels bit
for bit (gels alone rescales a G whose largest entry nears the overflow or
underflow threshold). A larger G is a tall-skinny QR of two row blocks
(Demmel, Grigori, Hoemmen & Langou 2012): the caller factors the upper
half while a worker of the `operators` thread pool factors the lower one
(one `operators.share` call), and tpqrt merges the two R factors, tpmqrt
their halves of Q^T b. The block count depends on G's shape alone, not on
`operators.CORES`, and a block's LAPACK calls are the same on any thread,
so a solve's bits do not depend on the core count (one core runs the two
blocks in turn).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import lstsq
from scipy.linalg.lapack import get_lapack_funcs

from . import operators
from .bkm import BoundaryData, boundary_groups
from .errors import ConditioningError, RankError, ShapeError
from .geometry import NodeSet
from .kernels import RadialKernel
from .linalg import CONDITION_LIMIT, factor
from .operators import OperatorSpec, collocation_matrix

#: expansion scheme -> collocation column kind of its basis
SCHEMES = {"kansa_like": "value", "mkm_like": "adjoint"}

#: fewest columns whose orthogonal solve is split into two row blocks. With
#: one OpenBLAS thread on two cores, alternating 101 times with gels on
#: random 2N x N systems, the split's median took 0.93, 0.90, 0.99, 0.88,
#: 0.90, 0.83 and 0.76 of gels's at N = 112, 128, 144, 160, 176, 192 and 224,
#: winning 63, 79, 49, 76, 90, 100 and 100% of the calls
SPLIT_COLUMNS = 192

#: block size of the tpqrt merge: with merge blocks of 8, 16, 32, 48, 64, 96
#: and 128, the split solve took 19.7, 19.6, 18.6, 19.3, 20.5, 21.4 and 23.1 ms
#: on the 1144 x 572 `disk_boundary` system (gels 31.9 ms) and 135, 116, 114,
#: 116, 119, 123 and 131 ms on the 2304 x 1152 `square_dense` one (gels 191 ms)
MERGE_BLOCK = 32


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
            raise ConditioningError("least-squares system has non-finite entries", np.inf)

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
    data = bc.stacked(field_nodes)
    xi = field_nodes.interior
    rows = [("op", xi)] + boundary_groups(field_nodes)
    G = collocation_matrix(op, psi, rows, [(SCHEMES[scheme], source_points)])
    b = np.concatenate([np.asarray(f(xi), dtype=float) if len(xi) else np.empty(0), data])
    return OverdeterminedSystem(G=G, b=b)


@dataclass
class LeastSquaresResult:
    beta: np.ndarray
    sigma: float  # sum of squared row residuals
    rank_deficient: bool
    cond_est: float


def _qr_block(G: np.ndarray, b: np.ndarray, lwork: int):
    """R (N x N, Fortran order; only its upper triangle is meaningful) and
    the first N entries of Q^T b of one row block, both fresh arrays."""
    geqrf, ormqr = get_lapack_funcs(("geqrf", "ormqr"), (G,))
    qr, tau, _, _ = geqrf(G, lwork=lwork)
    c, _, _ = ormqr("L", "T", qr, tau, b[:, None], lwork)
    N = G.shape[1]
    # a square block's array is R itself; a taller one's R is copied out, so
    # that its reflectors are freed before the merge
    return np.asfortranarray(qr[:N]), c[:N]


def _triangularize(G: np.ndarray, b: np.ndarray):
    """R and the first N entries of Q^T b of G = QR, G and b left unchanged."""
    M, N = G.shape
    gels_lwork = get_lapack_funcs("gels_lwork", (G,))
    # gels's optimal workspace less its N entries of tau, which gels hands to
    # geqrf and ormqr: with it both block as gels's do (with the minimum
    # workspace they run unblocked, slower than gelsd)
    lwork = int(gels_lwork(M, N, 1)[0]) - N
    half = M // 2
    if N < SPLIT_COLUMNS or half < N:
        return _qr_block(G, b, lwork)
    halves = [partial(_qr_block, G[s], b[s], lwork) for s in (slice(half), slice(half, None))]
    (R, c), (R2, c2) = operators.share(halves)
    tpqrt, tpmqrt = get_lapack_funcs(("tpqrt", "tpmqrt"), (G,))
    # R over R2 is one 2N x N QR whose lower block is triangular (l = N); tpqrt
    # reads only the upper triangles and writes the merged R over R, and its
    # reflectors (over R2) take c2's half of Q^T b into c
    R, V, T, _ = tpqrt(N, MERGE_BLOCK, R, R2, overwrite_a=1, overwrite_b=1)
    c, _, _ = tpmqrt(N, V, T, c, c2, trans="T", overwrite_a=1, overwrite_b=1)
    return R, c


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
        R, c = _triangularize(G, b)
        trtrs, trcon = get_lapack_funcs(("trtrs", "trcon"), (R,))
        x, info = trtrs(R, c, overwrite_b=1)
        rcond = trcon(R, norm="1")[0] if info == 0 else 0.0
        cond = 1.0 / rcond if rcond > 0 else np.inf
        beta, rank = x[:, 0], N
        if cond > CONDITION_LIMIT:
            beta, _, rank, _ = lstsq(G, b)
        return LeastSquaresResult(
            beta=beta,
            sigma=residual_sigma(system, beta),
            rank_deficient=rank < N,
            cond_est=float(cond),
        )
    raise ValueError(f"method must be 'normal_equations' or 'orthogonal', got {method!r}")
