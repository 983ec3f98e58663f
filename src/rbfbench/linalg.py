"""One dense factor-and-estimate path shared by every square solve.

A single LU factorization (LAPACK getrf, the routine behind
`scipy.linalg.lu_factor`) serves both the solve and the condition
estimate: LAPACK gecon estimates the 1-norm reciprocal condition number
from that same factor in O(n^2), where a full SVD costs several times
the solve it describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lu_solve
from scipy.linalg.lapack import get_lapack_funcs

from .errors import ConditioningError

#: condition estimate beyond which the BKM particular fit and the LSQ normal
#: equations refuse their system and the LSQ QR solve falls back to the SVD
CONDITION_LIMIT = 1e14


@dataclass
class Factor:
    """Square matrix with its reusable LU factor and 1-norm condition estimate."""

    matrix: np.ndarray
    cond_est: float
    what: str
    _lu: tuple = field(repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = lu_solve(self._lu, rhs, check_finite=False)
        if not np.all(np.isfinite(x)):
            raise ConditioningError(f"{self.what} solve produced non-finite values", self.cond_est)
        return x


def factor(A: np.ndarray, what: str, limit: Optional[float] = None) -> Factor:
    """Factor A once and estimate its 1-norm condition number from the factor.

    Raises ConditioningError on non-finite entries, an exactly zero
    pivot, a zero reciprocal estimate, or an estimate above `limit`.
    Without a limit, ill-conditioning is reported, not refused.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ConditioningError(f"{what} matrix has non-finite entries", np.inf)
    getrf, gecon, lange = get_lapack_funcs(("getrf", "gecon", "lange"), (A,))
    # the 1-norm of A is the max-row-sum norm of A.T, which is Fortran-ordered
    # for a C-ordered A, so LAPACK reads it in place without an n x n temporary
    anorm = lange("I", A.T)
    lu, piv, info = getrf(A)
    if info > 0:
        raise ConditioningError(f"{what} matrix is singular", np.inf)
    rcond, _ = gecon(lu, anorm, norm="1")
    cond = 1.0 / rcond if rcond > 0 else np.inf
    if not np.isfinite(cond):
        raise ConditioningError(f"{what} matrix is singular", cond)
    if limit is not None and cond > limit:
        raise ConditioningError(f"{what} matrix is too ill-conditioned", cond)
    return Factor(matrix=A, cond_est=float(cond), what=what, _lu=(lu, piv))
