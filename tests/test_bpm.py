import numpy as np
import pytest

from rbfbench import bkm, bpm, kernels, operators
from rbfbench.bench import boundary_band_mask, compute_errors, probe_grid, run_benchmark
from rbfbench.errors import ConfigError
from rbfbench.geometry import DomainSpec, generate_nodes, partition_boundary
from rbfbench.kernels import MAX_CHAIN_ORDER, build_kernel, higher_order_solution
from rbfbench.operators import (
    Expansion,
    Term,
    collocation_matrices,
    collocation_matrix,
    helmholtz,
)
from rbfbench.problems import get_problem

DISK = DomainSpec("unit_disk")


def chain_for(op, M):
    return [higher_order_solution(op, m) for m in range(M + 1)]


def homogeneous_setup(n_boundary=16):
    p = get_problem("helmholtz_disk")
    nodes = partition_boundary(generate_nodes(DISK, n_boundary, 0, seed=7), p.bc_rule)
    bc = bkm.BoundaryData.from_callables(nodes, p.exact, p.exact_grad)
    return p, nodes, bc


def benchmark_setup(n_boundary=16):
    p = get_problem("helmholtz_disk_inhom")
    nodes = partition_boundary(generate_nodes(DISK, n_boundary, 0, seed=7), p.bc_rule)
    bc = bkm.BoundaryData.from_callables(nodes, p.exact, p.exact_grad)
    return p, nodes, bc


def test_q_equals_bkm_matrix_entrywise():
    p, nodes, _ = homogeneous_setup()
    u0 = build_kernel("helmholtz_gs_2d", k=2.0)
    q = bpm.assemble_Q(nodes, p.operator, u0)
    A = bkm.assemble_symmetric_system(nodes, p.operator, u0)
    assert np.array_equal(q.matrix, A)


def test_q_symmetry():
    p, nodes, _ = homogeneous_setup()
    q = bpm.assemble_Q(nodes, p.operator, build_kernel("helmholtz_gs_2d", k=2.0))
    defect = np.max(np.abs(q.matrix - q.matrix.T)) / np.max(np.abs(q.matrix))
    assert defect <= 1e-12


def test_stored_factorization_solves_bit_identically():
    p, nodes, bc = homogeneous_setup()
    q = bpm.assemble_Q(nodes, p.operator, build_kernel("helmholtz_gs_2d", k=2.0))
    rhs = np.concatenate([bc.dirichlet_values, bc.neumann_values])
    assert np.array_equal(q.solve(rhs), q.solve(rhs))


def test_lu_reuse_matches_per_order_refactorization_bitwise():
    p, nodes, bc = benchmark_setup()
    op = p.operator
    chain = chain_for(op, 3)
    prob = bpm.MrmProblem(operator=op, bc=bc, f_chain=p.f_chain, order=3, f_grad_chain=p.f_grad_chain)
    shared = bpm.solve_bpm(nodes, prob, chain, q=bpm.assemble_Q(nodes, op, chain[0]))

    # refactorize the (identical) matrix before every order
    class Refactoring:
        def __init__(self, nodes, op, k0):
            self.nodes, self.op, self.k0 = nodes, op, k0
            fresh = bpm.assemble_Q(nodes, op, k0)
            self.matrix = fresh.matrix
            self.cond_est = fresh.cond_est

        def solve(self, rhs):
            return bpm.assemble_Q(self.nodes, self.op, self.k0).solve(rhs)

    refac = bpm.solve_bpm(nodes, prob, chain, q=Refactoring(nodes, op, chain[0]))
    for a, b in zip(shared.beta_by_order, refac.beta_by_order):
        assert np.array_equal(a, b)


def test_homogeneous_high_orders_vanish():
    p, nodes, bc = homogeneous_setup()
    for M in (1, 2, 3):
        prob = bpm.MrmProblem(
            operator=p.operator, bc=bc, f_chain=p.f_chain, order=M, f_grad_chain=p.f_grad_chain
        )
        sol = bpm.solve_bpm(nodes, prob, chain_for(p.operator, M))
        for n in range(1, M + 1):
            assert np.all(sol.beta_by_order[n] == 0.0)


def test_degenerates_to_bkm_on_homogeneous_problem():
    p, nodes, bc = homogeneous_setup()
    u0 = build_kernel("helmholtz_gs_2d", k=2.0)
    sol_bkm = bkm.solve_indirect(nodes, p.operator, bc, None, None, u0)
    prob = bpm.MrmProblem(
        operator=p.operator, bc=bc, f_chain=p.f_chain, order=1, f_grad_chain=p.f_grad_chain
    )
    sol_bpm = bpm.solve_bpm(nodes, prob, chain_for(p.operator, 1))

    assert np.allclose(sol_bpm.beta_by_order[0], sol_bkm.terms[0].coefficients, atol=1e-14)
    rng = np.random.default_rng(3)
    probes = rng.uniform(-0.6, 0.6, size=(50, 2))
    dev = np.max(np.abs(sol_bkm.evaluate(probes) - sol_bpm.evaluate(probes)))
    assert dev <= 1e-10


def test_benchmark_error_decreases_with_order():
    p, nodes, bc = benchmark_setup()
    probes = probe_grid(DISK)
    band = boundary_band_mask(DISK, probes)
    errs = []
    for M in (1, 2, 3):
        prob = bpm.MrmProblem(
            operator=p.operator, bc=bc, f_chain=p.f_chain, order=M, f_grad_chain=p.f_grad_chain
        )
        sol = bpm.solve_bpm(nodes, prob, chain_for(p.operator, M))
        errs.append(compute_errors(sol.evaluate, p.exact, probes, band).l2_rel_err)
    assert errs[1] <= errs[0]
    assert errs[2] <= errs[1]
    assert errs[2] < 1e-2  # pilot: 1.5e-3
    assert errs[2] < 5e-3  # frozen regression bound


def test_boundary_values_reproduced_at_order_three():
    p, nodes, bc = benchmark_setup()
    prob = bpm.MrmProblem(
        operator=p.operator, bc=bc, f_chain=p.f_chain, order=3, f_grad_chain=p.f_grad_chain
    )
    sol = bpm.solve_bpm(nodes, prob, chain_for(p.operator, 3))
    resid = np.max(np.abs(sol.evaluate(nodes.dirichlet_points) - bc.dirichlet_values))
    assert resid < 1e-6  # pilot: 4.1e-11


def test_zero_coefficients_evaluate_to_zero():
    p, nodes, bc = benchmark_setup()
    prob = bpm.MrmProblem(
        operator=p.operator, bc=bc, f_chain=p.f_chain, order=2, f_grad_chain=p.f_grad_chain
    )
    sol = bpm.solve_bpm(nodes, prob, chain_for(p.operator, 2))
    sol.terms = [t._replace(coefficients=np.zeros_like(t.coefficients)) for t in sol.terms]
    assert np.array_equal(sol.evaluate(np.array([[0.3, 0.2]])), [0.0])


def test_order_zero_evaluation_is_hermite_expansion():
    p, nodes, bc = homogeneous_setup()
    prob = bpm.MrmProblem(
        operator=p.operator, bc=bc, f_chain=p.f_chain, order=1, f_grad_chain=p.f_grad_chain
    )
    sol = bpm.solve_bpm(nodes, prob, chain_for(p.operator, 1))
    u0 = build_kernel("helmholtz_gs_2d", k=2.0)
    ref = Expansion([Term(None, u0, bkm.boundary_groups(nodes), sol.beta_by_order[0])], 1.0)
    pts = np.array([[0.1, 0.4], [-0.5, 0.2]])
    assert np.allclose(sol.evaluate(pts), ref.evaluate(pts), atol=1e-14)


def test_tail_magnitude_decreases_for_decaying_chain():
    # wavenumber below one makes the operator-power chain of a constant
    # source decay geometrically, and the top-order coefficients with it
    k = 0.9
    op = helmholtz(k)
    nodes = generate_nodes(DISK, 16, 0, seed=7)
    exact = lambda q: np.sin(k * q[:, 0]) + 1.0 / k**2
    grad = lambda q: np.column_stack([k * np.cos(k * q[:, 0]), np.zeros(len(q))])
    bc = bkm.BoundaryData.from_callables(nodes, exact, grad)
    fch = tuple(
        (lambda j: (lambda q: np.full(len(np.atleast_2d(q)), k ** (2 * j))))(j)
        for j in range(4)
    )
    gch = tuple((lambda q: np.zeros_like(np.atleast_2d(q))) for _ in range(4))
    probes = probe_grid(DISK)
    tails, errs = [], []
    for M in (1, 2, 3):
        prob = bpm.MrmProblem(operator=op, bc=bc, f_chain=fch, order=M, f_grad_chain=gch)
        sol = bpm.solve_bpm(nodes, prob, chain_for(op, M))
        tails.append(sol.tail_magnitude)
        errs.append(compute_errors(sol.evaluate, exact, probes).l2_rel_err)
    assert tails[0] > tails[1] > tails[2]
    # at k != 1 the chain index shows in the error: 2.1e-2, 3.5e-3, 5.6e-4
    # here, while an off-by-one chain k^(2(j+1)) reads 7.7e-3, 2.8e-2, 2.4e-2
    assert errs[0] >= 4 * errs[1] and errs[1] >= 4 * errs[2]
    assert errs[2] <= 2e-3


def test_neumann_rows_read_the_source_chains_gradient():
    # u = e^(x/2) under helmholtz(2): f = 4.25 e^(x/2) and grad f = (f/2, 0),
    # so the order-1 traces must reproduce [f(x_D), grad f . n(x_N)]
    op = helmholtz(2.0)
    nodes = partition_boundary(generate_nodes(DISK, 12, 0, seed=7), ((0.0, 0.5),))
    exact = lambda q: np.exp(0.5 * q[:, 0])
    grad = lambda q: np.column_stack([0.5 * exact(q), np.zeros(len(q))])
    bc = bkm.BoundaryData.from_callables(nodes, exact, grad)
    f = lambda q: 4.25 * exact(q)
    f_grad = lambda q: 4.25 * grad(q)
    zero_grad = lambda q: np.zeros_like(q)
    want = np.concatenate(
        [f(nodes.dirichlet_points), np.sum(f_grad(nodes.neumann_points) * nodes.neumann_normals, 1)]
    )
    chain = chain_for(op, 1)
    q = bpm.assemble_Q(nodes, op, chain[0])

    def order_one_defect(gch):
        sol = bpm.solve_bpm(nodes, bpm.MrmProblem(op, bc, (f,), 1, gch), chain, q)
        return np.max(np.abs(q.matrix @ sol.beta_by_order[1] - want)) / np.max(np.abs(want))

    assert order_one_defect((f_grad,)) <= 1e-10  # measured 1.3e-13
    assert order_one_defect((zero_grad,)) > 1e-10


def test_bpm_factors_the_bkm_boundary_matrix():
    # one owner of the factor of the boundary trace matrix for both methods
    assert bpm.assemble_Q is bkm.assemble_Q


def test_insufficient_chain_rejected():
    p, nodes, bc = benchmark_setup()
    given = dict(operator=p.operator, bc=bc, order=3, f_grad_chain=p.f_grad_chain)
    with pytest.raises(ConfigError, match="truncation order must be >= 1, got 0"):
        bpm.MrmProblem(**{**given, "order": 0}, f_chain=p.f_chain)
    with pytest.raises(ConfigError):
        bpm.MrmProblem(f_chain=p.f_chain[:2], **given)
    with pytest.raises(ConfigError, match="source-term chain"):  # not a TypeError
        bpm.MrmProblem(f_chain=None, **given)
    prob = bpm.MrmProblem(f_chain=p.f_chain, **given)
    with pytest.raises(ConfigError):
        bpm.solve_bpm(nodes, prob, chain_for(p.operator, 2))


@pytest.mark.parametrize("entries", [None, 2], ids=["missing", "short"])
def test_missing_or_short_gradient_chain_rejected(entries):
    # refused when the problem is built, not as a TypeError inside the solve
    p, _, bc = benchmark_setup()
    grads = None if entries is None else p.f_grad_chain[:entries]
    with pytest.raises(ConfigError, match="gradient chain"):
        bpm.MrmProblem(operator=p.operator, bc=bc, f_chain=p.f_chain, order=3, f_grad_chain=grads)


def test_chain_entries_must_match_their_order_and_wavenumber():
    p, nodes, bc = benchmark_setup()
    prob = bpm.MrmProblem(
        operator=p.operator, bc=bc, f_chain=p.f_chain, order=3, f_grad_chain=p.f_grad_chain
    )
    swapped = chain_for(p.operator, 3)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    with pytest.raises(ConfigError, match="entry 1"):
        bpm.solve_bpm(nodes, prob, swapped)
    other_k = chain_for(p.operator, 0) + chain_for(helmholtz(2.0 * p.operator.k), 3)[1:]
    with pytest.raises(ConfigError, match="entry 1"):
        bpm.solve_bpm(nodes, prob, other_k)


def shifted_sine_setup(k, bc_rule, n_boundary=24):
    # u = sin(k x) + 1/k^2 solves Lap u + k^2 u = 1, so L^j{1} = k^(2j)
    # and the whole chain carries weight at any k
    op = helmholtz(k)
    nodes = partition_boundary(generate_nodes(DISK, n_boundary, 0, seed=7), bc_rule)
    exact = lambda q: np.sin(k * q[:, 0]) + 1.0 / k**2
    grad = lambda q: np.column_stack([k * np.cos(k * q[:, 0]), np.zeros(len(q))])
    bc = bkm.BoundaryData.from_callables(nodes, exact, grad)
    fch = tuple(
        (lambda j: (lambda q: np.full(len(np.atleast_2d(q)), k ** (2 * j))))(j)
        for j in range(MAX_CHAIN_ORDER)
    )
    gch = tuple((lambda q: np.zeros_like(np.atleast_2d(q))) for _ in range(MAX_CHAIN_ORDER))
    prob = bpm.MrmProblem(operator=op, bc=bc, f_chain=fch, order=MAX_CHAIN_ORDER, f_grad_chain=gch)
    return op, nodes, prob


@pytest.mark.parametrize("bc_rule", [((0.0, 0.5),), ((0.0, 1.0),)], ids=["mixed", "dirichlet"])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
def test_shared_chain_pass_is_bit_identical_to_one_kernel_calls(k, bc_rule):
    # k = 2 and 3 push x = k r past the series cutover on the unit disk
    op, nodes, prob = shifted_sine_setup(k, bc_rule)
    chain = chain_for(op, MAX_CHAIN_ORDER)
    groups = bkm.boundary_groups(nodes)
    rng = np.random.default_rng(5)
    probes = rng.uniform(-0.7, 0.7, size=(40, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, 40)
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    probe_rows = [("value", probes), ("normal", probes, normals)]
    for rows in (groups, probe_rows):
        shared = collocation_matrices(op, chain, rows, groups)
        assert len(shared) == len(chain)
        for kern, got in zip(chain, shared):
            assert np.array_equal(got, collocation_matrix(op, kern, rows, groups)), kern.name

    sol = bpm.solve_bpm(nodes, prob, chain)
    assert np.all(np.isfinite(sol.beta_by_order[-1]))
    singles = [Expansion([t], sol.cond_est) for t in sol.terms]
    assert np.array_equal(sol.evaluate(probes), sum(e.evaluate(probes) for e in singles))
    pts, nrm = nodes.boundary, nodes.normals
    assert np.array_equal(
        sol.normal_derivative(pts, nrm), sum(e.normal_derivative(pts, nrm) for e in singles)
    )


def test_bpm_row_builds_one_geometry_and_one_table_per_point_set_pair(monkeypatch):
    # order 3 on the Dirichlet-only disk: one pairwise geometry and one
    # Bessel table per (rows, columns) pair serve every order, order 0 included
    counts = {"pairs": 0, "tables": 0, "j0": 0}
    j0_per_tile = []
    pairs_init, table, j0 = operators._Pairs.__init__, kernels._bessel_table, kernels.special.j0
    derivs = operators.derivs_upto_many

    def counting_init(self, *args):
        counts["pairs"] += 1
        pairs_init(self, *args)

    def counting_table(x, m):
        counts["tables"] += bool(np.size(x))
        return table(x, m)

    def counting_j0(x):
        counts["j0"] += 1
        return j0(x)

    def tile_derivs(kerns, r, n):
        before = counts["j0"]
        out = derivs(kerns, r, n)
        j0_per_tile.append(counts["j0"] - before)
        return out

    monkeypatch.setattr(operators._Pairs, "__init__", counting_init)
    monkeypatch.setattr(kernels, "_bessel_table", counting_table)
    monkeypatch.setattr(kernels.special, "j0", counting_j0)
    monkeypatch.setattr(operators, "derivs_upto_many", tile_derivs)
    monkeypatch.setattr(operators, "CORES", 1)  # one tile at a time, for the per-tile count
    config = {
        "problems": ["helmholtz_disk_inhom"],
        "methods": ["bpm"],
        "n_boundary": 32,
        "n_interior": 0,
        "bpm_order": 3,
    }
    report = run_benchmark(config)
    assert report.errors == [] and len(report.rows) == 1
    # Q with its chain traces 1, its kernel check 2, probes 1
    assert counts["pairs"] <= 4
    # Q with its chain traces 1, probes 1 (the order-0 kernel reads the chain's table)
    assert counts["tables"] <= 2
    # every tile evaluates J0 once: in the chain's table, or in the lone
    # order-0 kernel of the kernel check
    assert len(j0_per_tile) == counts["pairs"] and set(j0_per_tile) == {1}


def test_terminating_chain_solves_and_tables_only_its_nonzero_orders(monkeypatch):
    # f = sin(2x) solves (Lap + 4) f = 0, so at k = 2 the source chain is
    # (f, 0, 0) and u = -x cos(2x)/4 solves L u = f: orders 2 and 3 carry
    # no data and must come out as exact zeros, built from no table above 1
    op = helmholtz(2.0)
    nodes = partition_boundary(generate_nodes(DISK, 24, 0, seed=7), ((0.0, 0.5),))
    exact = lambda q: -0.25 * q[:, 0] * np.cos(2.0 * q[:, 0])
    grad = lambda q: np.column_stack(
        [-0.25 * np.cos(2.0 * q[:, 0]) + 0.5 * q[:, 0] * np.sin(2.0 * q[:, 0]), np.zeros(len(q))]
    )
    bc = bkm.BoundaryData.from_callables(nodes, exact, grad)
    zero = lambda q: np.zeros(len(np.atleast_2d(q)))
    zero_grad = lambda q: np.zeros_like(np.atleast_2d(q))
    fch = (lambda q: np.sin(2.0 * np.atleast_2d(q)[:, 0]), zero, zero)
    gch = (
        lambda q: np.column_stack([2.0 * np.cos(2.0 * q[:, 0]), np.zeros(len(q))]),
        zero_grad,
        zero_grad,
    )
    first = bpm.solve_bpm(nodes, bpm.MrmProblem(op, bc, fch, 1, gch), chain_for(op, 1))

    orders = []
    table = kernels._bessel_table

    def counting_table(x, m):
        orders.append(m)
        return table(x, m)

    monkeypatch.setattr(kernels, "_bessel_table", counting_table)
    third = bpm.solve_bpm(nodes, bpm.MrmProblem(op, bc, fch, 3, gch), chain_for(op, 3))
    probes = np.random.default_rng(2).uniform(-0.6, 0.6, size=(30, 2))
    values = third.evaluate(probes)
    assert orders and max(orders) <= 1

    assert third.order == 3 and third.tail_magnitude == 0.0
    for a, b in zip(third.beta_by_order[:2], first.beta_by_order):
        assert np.array_equal(a, b)
    for beta in third.beta_by_order[2:]:
        assert beta.shape == first.beta_by_order[0].shape and np.all(beta == 0.0)
    assert np.array_equal(values, first.evaluate(probes))
    assert np.max(np.abs(values - exact(probes))) < 1e-3


def test_homogeneous_bpm_row_builds_and_evaluates_order_zero_only(monkeypatch):
    # a homogeneous source ends the series at order 0: no chain-kernel table
    # (the order-0 kernel, alone in its calls, runs its own J0 generator) and no
    # collocation call on a chain kernel, neither for Q and the traces nor for
    # the probe evaluation
    tables, orders = [], []
    table, matrices = kernels._bessel_table, operators.collocation_matrices

    def counting_table(x, m):
        tables.append(m)
        return table(x, m)

    def recording_matrices(op, kerns, rows, cols):
        orders.append([kern.order for kern in kerns])
        return matrices(op, kerns, rows, cols)

    monkeypatch.setattr(kernels, "_bessel_table", counting_table)
    monkeypatch.setattr(operators, "collocation_matrices", recording_matrices)
    monkeypatch.setattr(bpm, "collocation_matrices", recording_matrices)
    monkeypatch.setattr(bkm, "collocation_matrices", recording_matrices)
    config = {
        "problems": ["helmholtz_disk"],
        "methods": ["bpm"],
        "n_boundary": 32,
        "n_interior": 0,
        "bpm_order": 3,
    }
    report = run_benchmark(config)
    assert report.errors == [] and len(report.rows) == 1
    assert report.rows[0].M_order == 3
    assert tables == []
    assert orders and all(o == [0] for o in orders)


def test_dirichlet_q_value_block_reads_j0_once_per_tile_and_no_j1(monkeypatch):
    # the J0 kernel alone computes J1 only once phi' is read, which a value block never does
    p = get_problem("helmholtz_disk_inhom")
    nodes = partition_boundary(generate_nodes(DISK, 512, 0, seed=7), p.bc_rule)
    assert len(nodes.neumann_idx) == 0
    calls = {"pairs": 0, "j0": 0, "j1": 0}
    pairs_init, j0, j1 = operators._Pairs.__init__, kernels.special.j0, kernels.special.j1

    def counting_init(self, *args):
        calls["pairs"] += 1
        pairs_init(self, *args)

    def counting(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)

        return wrapped

    u0 = higher_order_solution(p.operator, 0)
    want = bkm.assemble_symmetric_system(nodes, p.operator, u0)
    monkeypatch.setattr(operators._Pairs, "__init__", counting_init)
    monkeypatch.setattr(kernels.special, "j0", counting("j0", j0))
    monkeypatch.setattr(kernels.special, "j1", counting("j1", j1))
    monkeypatch.setattr(operators, "CORES", 1)
    groups = bkm.boundary_groups(nodes)
    got = collocation_matrix(None, u0, groups, groups)
    assert np.array_equal(got, want)
    assert calls["pairs"] >= 4  # a block of several tiles
    assert calls["j0"] == calls["pairs"] and calls["j1"] == 0


@pytest.mark.parametrize("bc_rule", [((0.0, 0.5),), ((0.0, 1.0),)], ids=["mixed", "dirichlet"])
@pytest.mark.parametrize("k", [0.5, 3.0])
def test_q_built_with_its_chain_traces_is_bit_identical_to_q_alone(k, bc_rule, monkeypatch):
    # solve_bpm without q builds Q in one pass with the chain traces; with q given it
    # builds the chain traces alone: coefficients, condition estimate and Q agree bit
    # for bit, and Q is the BKM trace matrix
    op, nodes, prob = shifted_sine_setup(k, bc_rule)
    chain = chain_for(op, MAX_CHAIN_ORDER)
    built = []
    assemble = bpm.assemble_Q

    def recording_assemble(*args):
        out = assemble(*args)
        built.append(out)
        return out

    monkeypatch.setattr(bpm, "assemble_Q", recording_assemble)
    together = bpm.solve_bpm(nodes, prob, chain)
    (q, traces), = built
    given = bpm.solve_bpm(nodes, prob, chain, q=bkm.assemble_Q(nodes, op, chain[0]))
    assert len(built) == 1
    assert np.array_equal(q.matrix, bkm.assemble_symmetric_system(nodes, op, chain[0]))
    assert np.array_equal(q.matrix, bkm.assemble_Q(nodes, op, chain[0]).matrix)
    assert together.cond_est == given.cond_est == q.cond_est
    for a, b in zip(together.beta_by_order, given.beta_by_order):
        assert np.array_equal(a, b)
    groups = bkm.boundary_groups(nodes)
    assert len(traces) == MAX_CHAIN_ORDER
    for kern, got in zip(chain[1:], traces):
        assert np.array_equal(got, collocation_matrix(None, kern, groups, groups)), kern.name
