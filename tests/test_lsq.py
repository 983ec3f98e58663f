import threading

import numpy as np
import pytest
from scipy.linalg import lstsq
from scipy.linalg.lapack import dgels, dgels_lwork

from rbfbench import bkm, lsq, operators
from rbfbench.errors import RankError, ShapeError
from rbfbench.geometry import DomainSpec, generate_nodes, partition_boundary
from rbfbench.kernels import build_kernel
from rbfbench.linalg import CONDITION_LIMIT
from rbfbench.operators import (
    collocation_matrix,
    kernel_value_matrix,
    laplace,
    operator_image_matrix,
)
from rbfbench.problems import get_problem

SQUARE = DomainSpec("rectangle", 1.0, 1.0)


def test_too_few_rows_rejected():
    with pytest.raises(ShapeError):
        lsq.OverdeterminedSystem(G=np.ones((2, 3)), b=np.ones(2))


def test_square_consistent_system_is_interpolation(rng):
    G = rng.standard_normal((15, 15))
    b = rng.standard_normal(15)
    res = lsq.solve_least_squares(lsq.OverdeterminedSystem(G=G, b=b), "orthogonal")
    assert res.sigma <= 1e-12
    assert np.max(np.abs(G @ res.beta - b)) <= 1e-9 * np.max(np.abs(b))
    direct = np.linalg.solve(G, b)
    assert np.max(np.abs(res.beta - direct)) <= 1e-8 * np.max(np.abs(direct))


def test_consistent_overdetermined_residual_vanishes(rng):
    G = rng.standard_normal((6, 3))
    beta_true = rng.standard_normal(3)
    b = G @ beta_true
    res = lsq.solve_least_squares(lsq.OverdeterminedSystem(G=G, b=b))
    assert res.sigma <= 1e-12 * float(b @ b)


def test_methods_agree_on_seeded_case():
    rng = np.random.default_rng(42)
    G = rng.standard_normal((40, 20))
    b = G @ rng.standard_normal(20) + 0.01 * rng.standard_normal(40)
    system = lsq.OverdeterminedSystem(G=G, b=b)
    r_ne = lsq.solve_least_squares(system, "normal_equations")
    r_or = lsq.solve_least_squares(system, "orthogonal")
    assert np.linalg.cond(G) < 1e6
    rel = np.max(np.abs(r_ne.beta - r_or.beta)) / np.max(np.abs(r_or.beta))
    assert rel < 1e-6
    assert r_ne.sigma == pytest.approx(r_or.sigma, rel=1e-9)


def test_perturbation_optimality(rng):
    G = rng.standard_normal((40, 20))
    b = G @ rng.standard_normal(20) + 0.05 * rng.standard_normal(40)
    system = lsq.OverdeterminedSystem(G=G, b=b)
    res = lsq.solve_least_squares(system)
    for i in range(0, 20, 2):  # 10 sampled coordinates
        bumped = res.beta.copy()
        bumped[i] += 1e-3
        assert lsq.residual_sigma(system, bumped) >= res.sigma


def test_rank_deficiency_paths(rng):
    G = rng.standard_normal((10, 4))
    G[:, 3] = G[:, 0]  # exactly dependent columns
    b = rng.standard_normal(10)
    system = lsq.OverdeterminedSystem(G=G, b=b)
    with pytest.raises(RankError):
        lsq.solve_least_squares(system, "normal_equations")
    res = lsq.solve_least_squares(system, "orthogonal")
    assert res.rank_deficient


def test_unknown_method_rejected(rng):
    system = lsq.OverdeterminedSystem(G=rng.standard_normal((4, 2)), b=np.ones(4))
    with pytest.raises(ValueError):
        lsq.solve_least_squares(system, "qr_but_misspelled")


# ---------------------------------------------------------------------------
# assembly over separate source/field sets
# ---------------------------------------------------------------------------


def _field_setup(n_boundary, n_interior, seed):
    p = get_problem("poisson_square")
    nodes = partition_boundary(generate_nodes(SQUARE, n_boundary, n_interior, seed), p.bc_rule)
    bc = bkm.BoundaryData.from_callables(nodes, p.exact, p.exact_grad)
    return p, nodes, bc


def test_coincident_sets_reproduce_square_collocation_matrix():
    p, nodes, bc = _field_setup(12, 9, seed=7)
    phi = build_kernel("mq", c=0.6)
    src = nodes.all_points()
    system = lsq.assemble_overdetermined(src, nodes, p.operator, bc, p.f, phi, "kansa_like")
    rows = [
        ("op", nodes.interior),
        ("value", nodes.dirichlet_points),
        ("normal", nodes.neumann_points, nodes.neumann_normals),
    ]
    want = collocation_matrix(p.operator, phi, rows, [("value", src)])
    assert np.array_equal(system.G, want)
    assert system.field_count == system.source_count


def test_single_source_three_fields_entries():
    p, nodes, bc = _field_setup(4, 2, seed=1)
    # one source, value rows only: take the Dirichlet sub-problem
    src = np.array([[0.5, 0.5]])
    phi = build_kernel("gaussian", c=0.7)
    pureD = partition_boundary(nodes, [(0.0, 1.0)])
    bcD = bkm.BoundaryData.from_callables(pureD, p.exact, p.exact_grad)
    sub = lsq.assemble_overdetermined(src, pureD, p.operator, bcD, p.f, phi, "kansa_like")
    assert sub.G.shape == (6, 1)
    # interior rows carry the operator image, boundary rows the kernel value
    want_int = operator_image_matrix(p.operator, phi, pureD.interior, src)
    want_bnd = kernel_value_matrix(phi, pureD.dirichlet_points, src)
    assert np.array_equal(sub.G, np.vstack([want_int, want_bnd]))


def test_doubling_fields_keeps_columns():
    p, nodes, bc = _field_setup(8, 6, seed=2)
    src = nodes.all_points()
    phi = build_kernel("mq", c=0.6)
    small = lsq.assemble_overdetermined(src, nodes, p.operator, bc, p.f, phi)
    p2, big_nodes, big_bc = _field_setup(16, 12, seed=3)
    big = lsq.assemble_overdetermined(src, big_nodes, p.operator, big_bc, p.f, phi)
    assert small.source_count == big.source_count == len(src)
    assert big.field_count == 2 * small.field_count


def test_mkm_like_scheme_uses_operator_basis():
    p, nodes, bc = _field_setup(8, 6, seed=2)
    src = nodes.all_points()
    phi = build_kernel("gaussian", c=0.7)
    system = lsq.assemble_overdetermined(src, nodes, p.operator, bc, p.f, phi, "mkm_like")
    from rbfbench.operators import ll_star_matrix

    want_top = ll_star_matrix(p.operator, phi, nodes.interior, src)
    assert np.array_equal(system.G[: len(nodes.interior)], want_top)
    rows, cols = [("value", nodes.dirichlet_points)], [("adjoint", src)]
    want_d = collocation_matrix(p.operator, phi, rows, cols)
    nD = len(nodes.dirichlet_idx)
    assert np.array_equal(system.G[len(nodes.interior) : len(nodes.interior) + nD], want_d)


def test_fit_rows_are_the_kernel_value_system():
    # step_fit's node sets as the harness builds them: with no operator the interior
    # rows are field values, and an all-Dirichlet partition keeps all_points() order
    p = get_problem("step_fit")
    src = generate_nodes(p.domain, 32, 60, seed=7).all_points()
    field_nodes = partition_boundary(generate_nodes(p.domain, 64, 120, seed=8), p.bc_rule)
    field_bc = bkm.BoundaryData.from_callables(field_nodes, p.exact, p.exact_grad)
    phi = build_kernel("mq", c=0.2)
    system = lsq.assemble_overdetermined(src, field_nodes, None, field_bc, p.exact, phi)
    points = field_nodes.all_points()
    assert np.array_equal(system.G, kernel_value_matrix(phi, points, src))
    assert np.array_equal(system.b, p.exact(points))
    with pytest.raises(ValueError, match="mkm_like"):
        lsq.assemble_overdetermined(src, field_nodes, None, field_bc, p.exact, phi, "mkm_like")
    with pytest.raises(ValueError, match="scheme must be one of"):
        lsq.assemble_overdetermined(src, field_nodes, None, field_bc, p.exact, phi, "rbf_like")


def test_monotone_refinement_on_consistent_problem():
    # data manufactured inside the expansion span: every field set sees an
    # exactly representable right-hand side, so the per-row residual stays
    # at roundoff level no matter how many rows are added
    rng = np.random.default_rng(5)
    src_nodes = generate_nodes(SQUARE, 12, 24, seed=11)
    src = src_nodes.all_points()
    phi = build_kernel("mq", c=0.5)
    beta_true = rng.standard_normal(len(src))
    op = laplace()

    per_row = []
    for mult, seed in ((2, 21), (3, 22)):
        field = partition_boundary(
            generate_nodes(SQUARE, mult * 12, mult * 24, seed), [(0.0, 0.75)]
        )
        rows = [
            ("op", field.interior),
            ("value", field.dirichlet_points),
            ("normal", field.neumann_points, field.neumann_normals),
        ]
        G = collocation_matrix(op, phi, rows, [("value", src)])
        system = lsq.OverdeterminedSystem(G=G, b=G @ beta_true)
        res = lsq.solve_least_squares(system)
        per_row.append(res.sigma / system.field_count)
    assert per_row[1] <= per_row[0] + 1e-12


def test_step_target_overshoot_reported():
    # qualitative stress case: report interpolation vs least-squares
    # overshoot near the jump; no accuracy assertion by design
    src_nodes = generate_nodes(SQUARE, 16, 48, seed=3)
    field_nodes = generate_nodes(SQUARE, 32, 96, seed=4)
    target = lambda p: np.where(p[:, 0] >= 0.5, 1.0, 0.0)
    psi = build_kernel("mq", c=0.2)
    src = src_nodes.all_points()

    interp = np.linalg.solve(kernel_value_matrix(psi, src, src), target(src))
    G = kernel_value_matrix(psi, field_nodes.all_points(), src)
    res = lsq.solve_least_squares(lsq.OverdeterminedSystem(G=G, b=target(field_nodes.all_points())))

    xs = np.linspace(0.05, 0.95, 61)
    probes = np.column_stack([xs, np.full(61, 0.55)])
    overshoot_interp = np.max(np.abs(kernel_value_matrix(psi, probes, src) @ interp - target(probes)))
    overshoot_lsq = np.max(np.abs(kernel_value_matrix(psi, probes, src) @ res.beta - target(probes)))
    print(f"step-fit overshoot: interpolation={overshoot_interp:.3f} least-squares={overshoot_lsq:.3f}")
    assert np.isfinite(overshoot_interp) and np.isfinite(overshoot_lsq)
    assert overshoot_interp >= 0.0 and overshoot_lsq >= 0.0


def _existing_systems():
    rng = np.random.default_rng(42)
    yield rng.standard_normal((40, 20))
    rng = np.random.default_rng(0)
    yield rng.standard_normal((15, 15))
    yield rng.standard_normal((6, 3))
    for n_boundary, n_interior, seed, family, c, scheme in (
        (12, 9, 7, "mq", 0.6, "kansa_like"),
        (8, 6, 2, "mq", 0.6, "kansa_like"),
        (8, 6, 2, "gaussian", 0.7, "mkm_like"),
    ):
        p, nodes, bc = _field_setup(n_boundary, n_interior, seed)
        phi = build_kernel(family, c=c)
        src = nodes.all_points()
        yield lsq.assemble_overdetermined(src, nodes, p.operator, bc, p.f, phi, scheme).G


def test_orthogonal_cond_est_is_within_factor_n_of_2norm_condition_number():
    # trcon estimates the 1-norm condition number of R, and for an N x N
    # matrix that lies within a factor N of the 2-norm one, which R shares with G
    for G in _existing_systems():
        system = lsq.OverdeterminedSystem(G=G, b=np.ones(len(G)))
        res = lsq.solve_least_squares(system, "orthogonal")
        n = G.shape[1]
        assert np.linalg.cond(G) / n <= res.cond_est <= n * np.linalg.cond(G)


def _count_svd_calls(monkeypatch):
    calls = []

    def spy(G, b):
        calls.append(G.shape)
        return lstsq(G, b)

    monkeypatch.setattr(lsq, "lstsq", spy)
    return calls


def test_orthogonal_qr_matches_svd_solve_on_well_conditioned_system(rng, monkeypatch):
    G = rng.standard_normal((60, 25))
    b = rng.standard_normal(60)
    want = lstsq(G, b)[0]
    calls = _count_svd_calls(monkeypatch)
    res = lsq.solve_least_squares(lsq.OverdeterminedSystem(G=G, b=b), "orthogonal")
    assert calls == []
    assert not res.rank_deficient
    assert np.max(np.abs(res.beta - want)) <= 1e-10 * np.max(np.abs(want))
    assert res.cond_est < 1e3


#: a two-block orthogonal solve's shape: both row halves hold N rows, N >= SPLIT_COLUMNS
SPLIT = (2 * lsq.SPLIT_COLUMNS + 16, lsq.SPLIT_COLUMNS + 8)


def _count_row_blocks(monkeypatch):
    threads = []
    real = lsq._qr_block

    def spy(G, b, lwork):
        threads.append(threading.current_thread() is threading.main_thread())
        return real(G, b, lwork)

    monkeypatch.setattr(lsq, "_qr_block", spy)
    return threads


@pytest.mark.parametrize(
    "defect, shape",
    [
        pytest.param(defect, shape, id=defect + suffix)
        for shape, suffix in (((12, 5), ""), (SPLIT, "_split"))
        for defect in ("nearly_dependent", "zero_column")
    ],
)
def test_orthogonal_falls_back_to_min_norm_svd_solve(rng, monkeypatch, defect, shape):
    M = shape[0]
    G = rng.standard_normal(shape)
    if defect == "nearly_dependent":
        G[:, 4] = G[:, 1] + 1e-15 * rng.standard_normal(M)
    else:  # R gets an exactly zero diagonal entry, which trtrs reports as info > 0
        G[:, 2] = 0.0
    b = rng.standard_normal(M)
    if defect == "zero_column":
        # the tpqrt merge of two blocks keeps that zero exact
        R, _ = lsq._triangularize(G, b)
        assert R[2, 2] == 0.0
    blocks = _count_row_blocks(monkeypatch)
    calls = _count_svd_calls(monkeypatch)
    res = lsq.solve_least_squares(lsq.OverdeterminedSystem(G=G, b=b), "orthogonal")
    assert len(blocks) == (2 if shape == SPLIT else 1)
    assert calls == [G.shape]
    assert res.cond_est > CONDITION_LIMIT
    # kappa_2 ~ 2e15 stays under gelsd's 1/eps rank cutoff; a zero column does not
    assert res.rank_deficient == (defect == "zero_column")
    assert np.all(np.isfinite(res.beta))
    want = lstsq(G, b)[0]
    assert np.max(np.abs(res.beta - want)) <= 1e-10 * np.max(np.abs(want))


def test_split_size_system_matches_svd_solve(rng, monkeypatch):
    G = rng.standard_normal((600, 300))
    b = rng.standard_normal(600)
    want = lstsq(G, b)[0]
    blocks = _count_row_blocks(monkeypatch)
    calls = _count_svd_calls(monkeypatch)
    res = lsq.solve_least_squares(lsq.OverdeterminedSystem(G=G, b=b), "orthogonal")
    assert len(blocks) == 2 and calls == []
    assert not res.rank_deficient
    assert np.max(np.abs(res.beta - want)) <= 1e-10 * np.max(np.abs(want))
    assert res.cond_est < 1e3


@pytest.mark.parametrize("system", ["one_block", "two_blocks", "fallback"])
def test_orthogonal_solve_leaves_the_callers_arrays_unchanged(rng, system):
    shape = (60, 25) if system == "one_block" else SPLIT
    G = rng.standard_normal(shape)
    if system == "fallback":
        G[:, 2] = 0.0
    b = rng.standard_normal(shape[0])
    G0, b0 = G.copy(), b.copy()
    first = lsq.solve_least_squares(lsq.OverdeterminedSystem(G=G, b=b), "orthogonal")
    assert G.tobytes() == G0.tobytes() and b.tobytes() == b0.tobytes()
    again = lsq.solve_least_squares(lsq.OverdeterminedSystem(G=G, b=b), "orthogonal")
    assert again.beta.tobytes() == first.beta.tobytes()


def test_two_block_solve_bits_do_not_depend_on_the_core_count(rng, monkeypatch):
    G = rng.standard_normal(SPLIT)
    b = rng.standard_normal(SPLIT[0])
    system = lsq.OverdeterminedSystem(G=G, b=b)
    blocks = _count_row_blocks(monkeypatch)
    seen = set()
    for i, cores in enumerate((1, 2, 2, 1, 2, 1)):
        monkeypatch.setattr(operators, "CORES", cores)
        blocks.clear()
        # other arrays between the calls move the blocks' copies in memory
        padding = [np.ones(1000 * k + 7) for k in range(1, 3 + i)]
        res = lsq.solve_least_squares(system, "orthogonal")
        seen.add((res.beta.tobytes(), res.cond_est))
        # the caller factors one block and a pool worker the other
        assert sorted(blocks) == [False, True]
        del padding
    assert len(seen) == 1


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failing_row_block_is_raised_after_the_other_block_is_done(rng, monkeypatch, failing):
    # the caller waits on the worker's block also when its own block raises,
    # then raises its own error, else the worker's, unchanged
    G = rng.standard_normal(SPLIT)
    b = rng.standard_normal(SPLIT[0])
    caller = threading.get_ident()
    done = []
    real = lsq._qr_block

    def qr_block(G, b, lwork):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise ValueError(f"row block failed on the {failing}")
        out = real(G, b, lwork)
        done.append(G.shape)
        return out

    monkeypatch.setattr(lsq, "_qr_block", qr_block)
    with pytest.raises(ValueError) as err:
        lsq.solve_least_squares(lsq.OverdeterminedSystem(G=G, b=b), "orthogonal")
    assert str(err.value) == f"row block failed on the {failing}"
    # the other half was factored before the raise
    assert done == [(SPLIT[0] // 2, SPLIT[1])]


@pytest.mark.parametrize(
    "shape",
    [(152, 76), (248, 124), (2 * lsq.SPLIT_COLUMNS - 1, lsq.SPLIT_COLUMNS), (300, 40)],
)
def test_one_block_solve_is_gels_bit_for_bit(rng, monkeypatch, shape):
    G = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    blocks = _count_row_blocks(monkeypatch)
    res = lsq.solve_least_squares(lsq.OverdeterminedSystem(G=G, b=b), "orthogonal")
    lwork, _ = dgels_lwork(*shape, 1)
    _, x, info = dgels(G, b[:, None], lwork=int(lwork))
    assert info == 0 and len(blocks) == 1
    assert res.beta.tobytes() == x[: shape[1], 0].tobytes()
