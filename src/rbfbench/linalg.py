"""One dense factor-and-estimate path shared by every square solve.

A single factorization serves both the solve and the condition estimate,
and the estimate costs O(n^2) on that factor, where a full SVD costs
several times the solve it describes. The factor follows the matrix's
structure:

- general: LU (LAPACK getrf, the routine behind
  `scipy.linalg.lu_factor`), estimated by gecon and solved by getrs;
- symmetric: Bunch–Kaufman LDL^T (sytrf, Bunch & Kaufman 1977, Math.
  Comp. 31), estimated by sycon and solved by sytrs. It reads one
  triangle, so the matrix is first checked to be symmetric to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import ConditioningError, SymmetryError

#: condition estimate beyond which the BKM particular fit and the LSQ normal
#: equations refuse their system and the LSQ QR solve falls back to the SVD
CONDITION_LIMIT = 1e14

#: largest symmetry defect max|A - A^T| / max|A| a symmetric factor accepts.
#: Dirichlet-only MKM matrices are exactly symmetric. With Neumann rows or a
#: velocity, the block products round differently under the pair swap:
#: measured up to 0.023 eps (self-adjoint), 0.131 eps (convection-diffusion)
#: and 0.32 eps (D = 0.05, v = (3, 1)); two roundings of a three-factor
#: product can differ by about 2 eps of the entry
SYMMETRY_TOL = 4 * np.finfo(float).eps

#: side of the square tiles the symmetry check compares with their mirror
#: images: a tile pair stays in cache, where the whole A - A.T reads A down
#: its columns (np.array_equal(A, A.T) takes 7.0 ms at n = 1280, the tiled
#: check 1.7 ms)
SYMMETRY_TILE = 128


@dataclass
class Factor:
    """Square matrix with its reusable factor and 1-norm condition estimate.

    `_factor` is the LAPACK factor and its pivots (getrf's or sytrf's) and
    `_trs` the LAPACK solve that reads them (getrs or sytrs).
    """

    matrix: np.ndarray
    cond_est: float
    what: str
    _factor: tuple = field(repr=False)
    _trs: Callable = field(repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, _ = self._trs(*self._factor, rhs)
        if not np.all(np.isfinite(x)):
            raise ConditioningError(f"{self.what} solve produced non-finite values", self.cond_est)
        return x


def symmetry_defect(A: np.ndarray) -> float:
    """max|A - A^T| / max|A| of a square matrix, 0 for a symmetric one.

    Compares A with its mirror image one `SYMMETRY_TILE` tile pair at a time.
    Most MKM matrices are exactly symmetric, so a tile pair is first tested
    for equality, which is cheaper than forming its difference.
    """
    n = len(A)
    worst = 0.0
    for i in range(0, n, SYMMETRY_TILE):
        rows = slice(i, i + SYMMETRY_TILE)
        for j in range(i, n, SYMMETRY_TILE):
            cols = slice(j, j + SYMMETRY_TILE)
            tile, mirror = A[rows, cols], A[cols, rows].T
            if not (tile == mirror).all():
                worst = max(worst, np.abs(tile - mirror).max())
    return float(worst / max(A.max(), -A.min())) if worst else 0.0


def factor(
    A: np.ndarray, what: str, limit: Optional[float] = None, symmetric: bool = False
) -> Factor:
    """Factor A once and estimate its 1-norm condition number from the factor.

    With `symmetric`, A is factored as symmetric (Bunch–Kaufman) and must
    be symmetric to `SYMMETRY_TOL`, else SymmetryError before any LAPACK
    call. Raises ConditioningError on non-finite entries, an exactly zero
    pivot, a zero reciprocal estimate, or an estimate above `limit`.
    Without a limit, ill-conditioning is reported, not refused.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ConditioningError(f"{what} matrix has non-finite entries", np.inf)
    if symmetric:
        defect = symmetry_defect(A)
        if defect > SYMMETRY_TOL:
            raise SymmetryError(
                f"{what} matrix is not symmetric: max|A - A^T| / max|A| = {defect:.3e}"
                f" exceeds {SYMMETRY_TOL:.3e}"
            )
    routines = ("sytrf", "sycon", "sytrs") if symmetric else ("getrf", "gecon", "getrs")
    trf, con, trs, lange = get_lapack_funcs(routines + ("lange",), (A,))
    # the 1-norm of A is the max-row-sum norm of A.T, which is Fortran-ordered
    # for a C-ordered A, so LAPACK reads it in place without an n x n temporary
    anorm = lange("I", A.T)
    if symmetric:
        # A.T is A to SYMMETRY_TOL and Fortran-ordered, so f2py copies it as
        # it is instead of transposing it. sytrf's default workspace is
        # unblocked: 96.9 against 18.5 ms at n = 1280
        work, _ = get_lapack_funcs("sytrf_lwork", (A,))(len(A))
        fac, piv, info = trf(A.T, lwork=int(work))
        rcond = con(fac, piv, anorm)[0] if info == 0 else 0.0
    else:
        fac, piv, info = trf(A)
        rcond = con(fac, anorm, norm="1")[0] if info == 0 else 0.0
    cond = 1.0 / rcond if rcond > 0 else np.inf
    if not np.isfinite(cond):
        raise ConditioningError(f"{what} matrix is singular", cond)
    if limit is not None and cond > limit:
        raise ConditioningError(f"{what} matrix is too ill-conditioned", cond)
    return Factor(matrix=A, cond_est=float(cond), what=what, _factor=(fac, piv), _trs=trs)
