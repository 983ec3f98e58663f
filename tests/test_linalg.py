import re
from pathlib import Path

import numpy as np
import pytest

from rbfbench import linalg
from rbfbench.errors import ConditioningError

SRC = Path(__file__).resolve().parent.parent / "src" / "rbfbench"


@pytest.mark.parametrize("A", [np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3))])
def test_singular_matrix_raises_with_infinite_estimate(A):
    with pytest.raises(ConditioningError, match="singular") as exc:
        linalg.factor(A, "test")
    assert exc.value.estimate == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_raise_before_lapack(monkeypatch, bad):
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK reached with non-finite entries")

    monkeypatch.setattr(linalg, "get_lapack_funcs", no_lapack)
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(ConditioningError, match="non-finite entries"):
        linalg.factor(A, "test")


def test_limit_is_enforced():
    # 1-norm condition number of diag(1, 1e-8) is exactly 1e8
    A = np.diag([1.0, 1e-8])
    assert linalg.factor(A, "test").cond_est == pytest.approx(1e8, rel=1e-12)
    assert linalg.factor(A, "test", limit=1e9).cond_est == pytest.approx(1e8, rel=1e-12)
    with pytest.raises(ConditioningError, match="too ill-conditioned") as exc:
        linalg.factor(A, "test", limit=1e7)
    assert exc.value.estimate == pytest.approx(1e8, rel=1e-12)


@pytest.mark.parametrize("n", [5, 20, 60])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimate_within_factor_n_of_2norm_condition(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    est = linalg.factor(A, "test").cond_est
    cond2 = np.linalg.cond(A)
    assert cond2 / n <= est <= n * cond2


def test_solve_matches_dense_solve_and_is_bit_reproducible():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((30, 30)) + 30 * np.eye(30)
    b = rng.standard_normal(30)
    f = linalg.factor(A, "test")
    x = f.solve(b)
    assert np.array_equal(x, f.solve(b))
    assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-12, atol=1e-14)
    assert np.array_equal(f.matrix, A)


def test_non_finite_solution_raises():
    f = linalg.factor(np.eye(2), "test")
    with pytest.raises(ConditioningError, match="non-finite values"):
        f.solve(np.array([np.inf, 1.0]))


def test_no_full_svd_condition_number_in_library():
    # condition estimates come from the solve's own factor (linalg.factor)
    # or from singular values a solver already has; a full SVD per solve
    # costs several times the solve it describes
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"linalg\.cond\(", line)
    ]
    assert offenders == []
