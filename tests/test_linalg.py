import re
from pathlib import Path

import numpy as np
import pytest

from rbfbench import bkm, linalg, mkm
from rbfbench.errors import ConditioningError, RbfError, SymmetryError
from rbfbench.geometry import DomainSpec, generate_nodes, partition_boundary
from rbfbench.kernels import build_kernel
from rbfbench.operators import convection_diffusion, helmholtz, laplace

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
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "linalg.py" in modules
    offenders = [
        f"{path.name}:{lineno}"
        for path in modules
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"linalg\.cond\(", line)
    ]
    assert offenders == []


def _mkm_matrix(op, phi, domain, nb, ni):
    nodes = partition_boundary(generate_nodes(domain, nb, ni, seed=4), [(0.0, 0.75)])
    bc = bkm.BoundaryData(np.zeros(len(nodes.dirichlet_idx)), np.zeros(len(nodes.neumann_idx)))
    return mkm.assemble_mkm(nodes, op, bc, np.zeros(nb + ni), phi).matrix


def test_symmetric_factor_accepts_every_mkm_matrix_of_the_symmetry_family():
    # criterion 1's MKM family (mixed BC, self-adjoint and convection-diffusion
    # operators) plus nb = 64 cases, whose Neumann blocks round differently
    # under the pair swap: the defect is not 0, but within SYMMETRY_TOL
    disk, square = DomainSpec("unit_disk"), DomainSpec("rectangle", 1.0, 1.0)
    ops = [laplace(), helmholtz(2.0), convection_diffusion(0.7, (0.4, -0.3))]
    kernels = [
        build_kernel("mq", c=0.8),
        build_kernel("imq", c=0.8),
        build_kernel("gaussian", c=0.6),
    ]
    sizes = [(disk, 8, 6), (square, 12, 9), (disk, 64, 40), (square, 64, 40)]
    defects = []
    for op in ops:
        for phi in kernels:
            for domain, nb, ni in sizes:
                A = _mkm_matrix(op, phi, domain, nb, ni)
                defects.append(linalg.symmetry_defect(A))
                f = linalg.factor(A, "test", symmetric=True)
                assert f.cond_est >= 1.0
    assert 0.0 < max(defects) <= linalg.SYMMETRY_TOL


def test_symmetry_defect_matches_the_whole_matrix_difference():
    rng = np.random.default_rng(5)
    for n in (1, 7, linalg.SYMMETRY_TILE, 2 * linalg.SYMMETRY_TILE + 3):
        B = rng.standard_normal((n, n))
        want = np.max(np.abs(B - B.T)) / np.max(np.abs(B))
        assert linalg.symmetry_defect(B) == want
        assert linalg.symmetry_defect(B + B.T) == 0.0


def test_symmetric_factor_refuses_an_asymmetric_matrix_before_lapack(monkeypatch):
    A = _mkm_matrix(laplace(), build_kernel("mq", c=0.8), DomainSpec("unit_disk"), 16, 12)
    A[3, 20] += 1e-8 * np.max(np.abs(A))

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK reached with an asymmetric matrix")

    monkeypatch.setattr(linalg, "get_lapack_funcs", no_lapack)
    with pytest.raises(SymmetryError, match="not symmetric: .* = 1.000e-08") as exc:
        linalg.factor(A, "test", symmetric=True)
    assert isinstance(exc.value, RbfError)


def test_symmetric_solve_matches_lu_solve_on_an_indefinite_matrix():
    rng = np.random.default_rng(6)
    n = 150
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(1.0, 20.0, n) * np.where(np.arange(n) % 3, 1.0, -1.0)
    A = (Q * eigs) @ Q.T
    A = (A + A.T) / 2  # exactly symmetric
    b = rng.standard_normal(n)
    sym = linalg.factor(A, "test", symmetric=True)
    lu = linalg.factor(A, "test")
    assert np.allclose(sym.solve(b), lu.solve(b), rtol=1e-10, atol=0.0)
    assert lu.cond_est / n <= sym.cond_est <= n * lu.cond_est
    assert np.array_equal(sym.matrix, A)


def test_sytrf_gets_its_blocked_workspace(monkeypatch):
    # sytrf's default workspace (n) is unblocked: about 5x slower at n = 1280
    calls = {}
    real = linalg.get_lapack_funcs

    def recording(names, arrays):
        funcs = real(names, arrays)
        if isinstance(names, str):
            return record(names, funcs)
        return [record(name, fn) for name, fn in zip(names, funcs)]

    def record(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name] = (kwargs, out)
            return out

        return wrapper

    monkeypatch.setattr(linalg, "get_lapack_funcs", recording)
    n = 200
    rng = np.random.default_rng(7)
    B = rng.standard_normal((n, n))
    linalg.factor(B + B.T, "test", symmetric=True)
    work = int(calls["sytrf_lwork"][1][0])
    assert work > n
    assert calls["sytrf"][0] == {"lwork": work}


def test_symmetric_true_only_in_mkm():
    # MKM's matrix is symmetric by construction; Kansa's is not, and the BKM
    # and BPM trace systems and the particular fit keep the LU (ROADMAP item 8)
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"symmetric\s*=\s*True", line)
    ]
    assert [o.split(":")[0] for o in offenders] == ["mkm.py"]
