import re
from pathlib import Path

import numpy as np
from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from rbfbench import bkm, bpm, lsq, mkm
from rbfbench.bench import boundary_band_mask, compute_errors, probe_grid
from rbfbench.errors import ConditioningError, InvalidKernelError
from rbfbench.geometry import DomainSpec, NodeSet, generate_nodes, partition_boundary
from rbfbench.kernels import RadialKernel, build_kernel, higher_order_solution
from rbfbench.linalg import factor
from rbfbench.operators import (
    collocation_matrix,
    convection_diffusion,
    helmholtz,
    homogeneous_residual,
    laplace,
    mod_helmholtz,
    operator_image_matrix,
)
from rbfbench.problems import get_problem

DISK = DomainSpec("unit_disk")
OP = helmholtz(2.0)
U_SHARP = build_kernel("helmholtz_gs_2d", k=2.0)
SRC = Path(__file__).resolve().parent.parent / "src" / "rbfbench"


def mixed_nodes(n_boundary=16, n_interior=0, seed=7):
    return partition_boundary(
        generate_nodes(DISK, n_boundary, n_interior, seed), [(0.0, 0.5)]
    )


def sample_bc(nodes, problem):
    return bkm.BoundaryData.from_callables(nodes, problem.exact, problem.exact_grad)


# ---------------------------------------------------------------------------
# particular-solution fit
# ---------------------------------------------------------------------------


def test_fit_zero_source_gives_zero_coefficients():
    nodes = generate_nodes(DISK, 8, 10, seed=1)
    fit = bkm.fit_particular(nodes, np.zeros(18), OP, build_kernel("mq", c=0.8))
    assert np.all(fit.terms[0].coefficients == 0.0)
    assert np.all(fit.evaluate(np.array([[0.1, 0.2], [0.5, 0.0]])) == 0.0)


def test_fit_reproduces_basis_column():
    nodes = generate_nodes(DISK, 8, 10, seed=1)
    phi = build_kernel("mq", c=0.8)
    pts = nodes.all_points()
    A = operator_image_matrix(OP, phi, pts, pts)
    fit = bkm.fit_particular(nodes, A[:, 0], OP, phi)
    want = np.zeros(len(pts))
    want[0] = 1.0
    assert np.allclose(fit.terms[0].coefficients, want, atol=1e-9)


def test_fit_sine_source_small_probe_residual():
    # oracle: five-point stencil of the fitted expansion at off-node probes
    nodes = generate_nodes(DISK, 20, 40, seed=5)
    pts = nodes.all_points()
    f = lambda p: np.sin(p[:, 0])
    phi = build_kernel("mq", c=0.8)
    fit = bkm.fit_particular(nodes, f(pts), OP, phi)

    alpha = fit.terms[0].coefficients
    sys_resid = np.max(np.abs(operator_image_matrix(OP, phi, pts, pts) @ alpha - f(pts)))
    assert fit.cond_est < 1e12
    assert sys_resid <= 1e-9 * np.max(np.abs(f(pts)))

    rng = np.random.default_rng(11)
    probes = rng.uniform(-0.6, 0.6, size=(20, 2))
    h = 1e-4
    lap = (
        fit.evaluate(probes + [h, 0])
        + fit.evaluate(probes - [h, 0])
        + fit.evaluate(probes + [0, h])
        + fit.evaluate(probes - [0, h])
        - 4 * fit.evaluate(probes)
    ) / h**2
    resid = np.abs(lap + 4.0 * fit.evaluate(probes) - f(probes))
    assert np.max(resid) < 1e-2 * np.max(np.abs(f(pts)))


def test_fit_refuses_a_source_sample_count_off_the_nodes():
    nodes = generate_nodes(DISK, 8, 10, seed=1)
    with pytest.raises(ValueError, match="expected 18 source samples, got 17"):
        bkm.fit_particular(nodes, np.ones(17), OP, build_kernel("mq", c=0.8))


def test_inhomogeneous_solve_needs_a_fitting_kernel():
    nodes = mixed_nodes(n_interior=10)
    bc = sample_bc(nodes, get_problem("helmholtz_disk"))
    with pytest.raises(ValueError, match="needs a fitting kernel phi"):
        bkm.solve_indirect(nodes, OP, bc, np.ones(26), None, U_SHARP)


def test_fit_refuses_hopeless_conditioning():
    nodes = generate_nodes(DISK, 20, 40, seed=5)
    with pytest.raises(ConditioningError) as exc:
        bkm.fit_particular(nodes, np.ones(60), OP, build_kernel("gaussian", c=3.0))
    assert exc.value.estimate > 1e14


# ---------------------------------------------------------------------------
# symmetric assembly
# ---------------------------------------------------------------------------


def test_assembly_rejects_non_solution_kernel():
    nodes = mixed_nodes()
    with pytest.raises(InvalidKernelError):
        bkm.assemble_symmetric_system(nodes, OP, build_kernel("mq", c=1.0))


@pytest.mark.parametrize("velocity", [(1.0, 0.0), (0.0, 0.5)])
def test_convection_term_counts_in_homogeneous_residual(velocity):
    # the Laplace fundamental solution is harmonic, so only -v.grad(phi)
    # leaves a residual; it must show for a velocity along either axis
    op = convection_diffusion(1.0, velocity)
    kern = build_kernel("laplace_fs_2d")
    assert homogeneous_residual(op, kern) > bkm.GENERAL_SOLUTION_TOL
    with pytest.raises(InvalidKernelError):
        bkm.assemble_symmetric_system(mixed_nodes(), op, kern)


def test_homogeneous_residual_is_cached_per_operator_and_kernel():
    # two hand-built kernels that differ only in their generators get their own verdicts,
    # whichever is asked first, and a non-solution is refused on every call
    from rbfbench import operators

    solution, other = (RadialKernel("custom", False, gen) for gen in (U_SHARP.radial, _mq))
    assert solution != other
    before = operators.homogeneous_residual.cache_info()
    for kern in (other, solution, other, solution):
        res = homogeneous_residual(OP, kern)
        assert (res <= 1e-12) if kern is solution else (res > bkm.GENERAL_SOLUTION_TOL)
    after = operators.homogeneous_residual.cache_info()
    assert after.hits - before.hits == 2 and after.misses - before.misses == 2
    nodes = mixed_nodes()
    bc = sample_bc(nodes, get_problem("helmholtz_disk"))
    for _ in range(2):
        with pytest.raises(InvalidKernelError, match="custom is not a homogeneous solution"):
            bkm.assemble_symmetric_system(nodes, OP, other)
        with pytest.raises(InvalidKernelError, match="custom is not a homogeneous solution"):
            bkm.solve_direct(nodes, OP, bc, None, None, other)
    assert np.array_equal(
        bkm.assemble_symmetric_system(nodes, OP, solution),
        bkm.assemble_symmetric_system(nodes, OP, U_SHARP),
    )


def _mq(r):
    yield np.sqrt(r * r + 1.0)
    yield r / np.sqrt(r * r + 1.0)
    yield (r * r + 1.0) ** -1.5


@pytest.mark.parametrize(
    "op, family, params",
    [
        (helmholtz(2.0), "helmholtz_gs_2d", dict(k=2.0)),
        (mod_helmholtz(1.5), "mod_helmholtz_gs_2d", dict(k=1.5)),
        (laplace(), "laplace_fs_2d", dict()),
    ],
    ids=["j0", "i0", "laplace_fs"],
)
def test_general_solutions_leave_roundoff_residual(op, family, params):
    assert homogeneous_residual(op, build_kernel(family, **params)) <= 1e-12


def test_pure_dirichlet_matrix_is_distance_symmetric():
    nodes = generate_nodes(DISK, 10, 0, seed=2)
    A = bkm.assemble_symmetric_system(nodes, OP, U_SHARP)
    assert np.array_equal(A, A.T)


def test_single_dirichlet_node_matrix_is_identity():
    point = np.array([[1.0, 0.0]])
    nodes = NodeSet(
        domain=DISK,
        interior=np.empty((0, 2)),
        boundary=point,
        normals=point.copy(),
        boundary_params=np.array([0.0]),
        dirichlet_idx=np.array([0]),
        neumann_idx=np.empty(0, dtype=int),
    )
    A = bkm.assemble_symmetric_system(nodes, OP, U_SHARP)
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(1.0)  # J0(0)


def test_two_plus_two_mixed_matrix_symmetric():
    theta = np.array([0.2, 1.3, 2.9, 4.4])
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    nodes = NodeSet(
        domain=DISK,
        interior=np.empty((0, 2)),
        boundary=pts,
        normals=pts.copy(),
        boundary_params=theta / (2 * np.pi),
        dirichlet_idx=np.array([0, 1]),
        neumann_idx=np.array([2, 3]),
    )
    A = bkm.assemble_symmetric_system(nodes, helmholtz(1.0), build_kernel("helmholtz_gs_2d", k=1.0))
    assert np.max(np.abs(A - A.T)) / np.max(np.abs(A)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("cut", [0.5, 0.25, 1.0])
def test_mixed_matrix_symmetric_across_partitions(seed, cut):
    nodes = partition_boundary(generate_nodes(DISK, 16, 0, seed), [(0.0, cut)])
    A = bkm.assemble_symmetric_system(nodes, OP, U_SHARP)
    assert np.max(np.abs(A - A.T)) / np.max(np.abs(A)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    n_boundary=st.integers(min_value=6, max_value=28),
    seed=st.integers(min_value=0, max_value=10**6),
    a=st.floats(min_value=0.0, max_value=0.4),
    b=st.floats(min_value=0.5, max_value=1.0),
)
def test_matrix_symmetry_property_random_partitions(n_boundary, seed, a, b):
    from rbfbench.errors import PartitionError

    try:
        nodes = partition_boundary(generate_nodes(DISK, n_boundary, 0, seed), [(a, b)])
    except PartitionError:
        return  # interval too narrow to capture a node
    A = bkm.assemble_symmetric_system(nodes, OP, U_SHARP)
    assert np.max(np.abs(A - A.T)) / np.max(np.abs(A)) <= 1e-12


# ---------------------------------------------------------------------------
# indirect solve
# ---------------------------------------------------------------------------


def test_zero_data_gives_zero_solution():
    nodes = mixed_nodes()
    bc = bkm.BoundaryData(np.zeros(8), np.zeros(8))
    sol = bkm.solve_indirect(nodes, OP, bc, None, None, U_SHARP)
    assert np.all(sol.terms[0].coefficients == 0.0)
    assert np.all(sol.evaluate(np.array([[0.2, 0.1]])) == 0.0)


def test_homogeneous_solve_bypasses_particular_fit():
    nodes = mixed_nodes(n_boundary=16, n_interior=0)
    p = get_problem("helmholtz_disk")
    sol = bkm.solve_indirect(nodes, OP, sample_bc(nodes, p), np.zeros(16), None, U_SHARP)
    assert len(sol.terms) == 1  # the homogeneous boundary expansion alone
    assert len(sol.terms[0].coefficients) == 16


def test_p1_accuracy_and_dirichlet_reproduction():
    p = get_problem("helmholtz_disk")
    nodes = mixed_nodes(n_boundary=16)
    bc = sample_bc(nodes, p)
    sol = bkm.solve_indirect(nodes, OP, bc, None, None, U_SHARP)

    probes = probe_grid(DISK)
    metrics = compute_errors(sol.evaluate, p.exact, probes, boundary_band_mask(DISK, probes))
    assert metrics.l2_rel_err < 1e-4  # pilot: 2.1e-6 at 16 nodes

    got = sol.evaluate(nodes.dirichlet_points)
    rel = np.max(np.abs(got - bc.dirichlet_values)) / np.max(np.abs(bc.dirichlet_values))
    assert sol.cond_est < 1e10
    assert rel < 1e-8


def test_inhomogeneous_manufactured_dirichlet_residual():
    exact = lambda q: q[:, 0] ** 2 + q[:, 1] ** 2
    grad = lambda q: 2.0 * q
    fsrc = lambda q: 4.0 + 4.0 * (q[:, 0] ** 2 + q[:, 1] ** 2)
    nodes = mixed_nodes(n_boundary=20, n_interior=40, seed=5)
    bc = bkm.BoundaryData.from_callables(nodes, exact, grad)
    sol = bkm.solve_indirect(
        nodes, OP, bc, fsrc(nodes.all_points()), build_kernel("mq", c=0.5), U_SHARP
    )
    resid = np.max(np.abs(sol.evaluate(nodes.dirichlet_points) - bc.dirichlet_values))
    assert resid < 1e-6


# ---------------------------------------------------------------------------
# direct solve
# ---------------------------------------------------------------------------


def test_direct_zero_data_gives_zero_traces():
    nodes = mixed_nodes()
    bc = bkm.BoundaryData(np.zeros(8), np.zeros(8))
    rec = bkm.solve_direct(nodes, OP, bc, None, None, U_SHARP)
    assert np.all(rec.neumann_at_dirichlet == 0.0)
    assert np.all(rec.dirichlet_at_neumann == 0.0)


def test_direct_pure_dirichlet_recovers_analytic_flux():
    p = get_problem("helmholtz_disk")
    nodes = generate_nodes(DISK, 16, 0, seed=7)  # all Dirichlet
    bc = bkm.BoundaryData(p.exact(nodes.dirichlet_points), np.empty(0))
    rec = bkm.solve_direct(nodes, OP, bc, None, None, U_SHARP)
    want = np.einsum(
        "ij,ij->i", p.exact_grad(nodes.dirichlet_points), nodes.dirichlet_normals
    )
    rel = np.max(np.abs(rec.neumann_at_dirichlet - want)) / np.max(np.abs(want))
    assert rel < 1e-3  # pilot: 1.2e-5


def test_direct_matches_indirect_traces():
    p = get_problem("helmholtz_disk")
    nodes = mixed_nodes(n_boundary=16)
    bc = sample_bc(nodes, p)
    sol = bkm.solve_indirect(nodes, OP, bc, None, None, U_SHARP)
    rec = bkm.solve_direct(nodes, OP, bc, None, None, U_SHARP)
    assert rec.cond_est < 1e10

    ind_nu = sol.normal_derivative(nodes.dirichlet_points, nodes.dirichlet_normals)
    ind_dg = sol.evaluate(nodes.neumann_points)
    scale = max(np.max(np.abs(ind_nu)), np.max(np.abs(ind_dg)))
    dev = max(
        np.max(np.abs(ind_nu - rec.neumann_at_dirichlet)),
        np.max(np.abs(ind_dg - rec.dirichlet_at_neumann)),
    )
    assert dev / scale < 1e-8


def test_bc_count_mismatch_rejected():
    nodes = mixed_nodes()
    with pytest.raises(ValueError):
        bkm.solve_indirect(
            nodes, OP, bkm.BoundaryData(np.zeros(3), np.zeros(8)), None, None, U_SHARP
        )


def _zero(p):
    return np.zeros(len(p))


def _zero_grad(p):
    return np.zeros((len(p), 2))


#: the four solvers that stack boundary data into a right-hand side, each
#: called on (nodes, bc)
STACKING_SOLVERS = {
    "solve_indirect": lambda nodes, bc: bkm.solve_indirect(nodes, OP, bc, None, None, U_SHARP),
    "solve_bpm": lambda nodes, bc: bpm.solve_bpm(
        nodes,
        bpm.MrmProblem(OP, bc, (_zero,), 1, (_zero_grad,)),
        [higher_order_solution(OP, m) for m in range(2)],
    ),
    "assemble_mkm": lambda nodes, bc: mkm.assemble_mkm(
        nodes, OP, bc, np.zeros(len(nodes.all_points())), build_kernel("mq", c=0.8)
    ),
    "assemble_overdetermined": lambda nodes, bc: lsq.assemble_overdetermined(
        nodes.all_points(), nodes, OP, bc, _zero, build_kernel("mq", c=0.8)
    ),
}


@pytest.mark.parametrize("part", ["dirichlet", "neumann"])
@pytest.mark.parametrize("solver", list(STACKING_SOLVERS))
def test_boundary_data_count_mismatch_refused(solver, part):
    nodes = mixed_nodes(n_boundary=16, n_interior=6)
    L_D, L_N = len(nodes.dirichlet_idx), len(nodes.neumann_idx)
    extra = {"dirichlet": (1, 0), "neumann": (0, -1)}[part]
    bad = bkm.BoundaryData(np.zeros(L_D + extra[0]), np.zeros(L_N + extra[1]))
    with pytest.raises(ValueError, match=f"{part.capitalize()} value count"):
        STACKING_SOLVERS[solver](nodes, bad)


def test_stacked_is_a_new_array_each_call():
    nodes = mixed_nodes()
    bc = sample_bc(nodes, get_problem("helmholtz_disk"))
    first, second = bc.stacked(nodes), bc.stacked(nodes)
    assert np.array_equal(first, np.concatenate([bc.dirichlet_values, bc.neumann_values]))
    assert np.array_equal(first, second)
    for a, b in [(first, second), (first, bc.dirichlet_values), (first, bc.neumann_values)]:
        assert not np.shares_memory(a, b)


def test_inhomogeneous_solve_leaves_boundary_data_unchanged():
    # solve_indirect subtracts the particular traces from its right-hand
    # side in place; the caller's boundary data must not see it
    nodes = mixed_nodes(n_boundary=16, n_interior=10)
    bc = sample_bc(nodes, get_problem("helmholtz_disk"))
    before = [bc.dirichlet_values.copy(), bc.neumann_values.copy()]
    fs = np.ones(len(nodes.all_points()))
    sol = bkm.solve_indirect(nodes, OP, bc, fs, build_kernel("mq", c=0.8), U_SHARP)
    assert len(sol.terms) == 2  # the particular fit ran
    assert np.array_equal(bc.dirichlet_values, before[0])
    assert np.array_equal(bc.neumann_values, before[1])


def test_boundary_trace_pairs_have_one_sampler():
    # values on the Dirichlet part and gradient . normal on the Neumann part
    # are sampled in BoundaryData.from_callables only; BPM's source chain and
    # the bkm_direct score read it, and BPM keeps no finite-difference step
    files = sorted(SRC.rglob("*.py"))
    assert files
    sites = []
    for path in files:
        text = path.read_text()
        for match in re.finditer(r'einsum\(\s*"ij,ij->i"', text):
            defs = re.findall(r"^\s*def (\w+)", text[: match.start()], re.M)
            lineno = text.count("\n", 0, match.start()) + 1
            sites.append((path.name, defs[-1] if defs else None, lineno))
    assert [site[:2] for site in sites] == [("bkm.py", "from_callables")], sites
    assert "_FD_" not in (SRC / "bpm.py").read_text()
    # and they are stacked into [Dirichlet | Neumann] in BoundaryData.stacked only
    stacks = []
    for path in files:
        text = path.read_text()
        for match in re.finditer(r"dirichlet_values,\s*(\w+\.)?neumann_values", text):
            defs = re.findall(r"^\s*def (\w+)", text[: match.start()], re.M)
            stacks.append((path.name, defs[-1] if defs else None))
    assert stacks == [("bkm.py", "stacked")], stacks


# ---------------------------------------------------------------------------
# the direct solve in one pass
# ---------------------------------------------------------------------------


def _two_call_direct(nodes, op, bc, f_samples, phi, u_sharp):
    # Q, B and the recovered traces as two collocation calls build them: Q over the
    # boundary groups, then B over the swapped rows in a call of its own, and the
    # particular traces of each in a call of their own
    groups = bkm.boundary_groups(nodes)
    rows = [
        ("normal", nodes.dirichlet_points, nodes.dirichlet_normals),
        ("value", nodes.neumann_points),
    ]
    Q = collocation_matrix(None, u_sharp, groups, groups)
    B = collocation_matrix(None, u_sharp, rows, groups)
    rhs = bc.stacked(nodes)
    if f_samples is not None:
        particular = bkm.fit_particular(nodes, f_samples, op, phi)
        rhs -= particular.traces(groups)
    lu = factor(Q, "boundary knot")
    traces = B @ lu.solve(rhs)
    if f_samples is not None:
        traces += particular.traces(rows)
    return Q, B, traces, lu.cond_est


@pytest.mark.parametrize("tiles", ["one", "shared"])
@pytest.mark.parametrize("source", ["particular", "none"])
@pytest.mark.parametrize("name", ["helmholtz_disk", "helmholtz_disk_inhom"])
def test_direct_solve_in_one_pass_matches_two_calls(monkeypatch, name, source, tiles):
    # Q and B from one assemble_Q pass, and the recovered traces, are bit for bit the
    # two-call construction, on the mixed-BC and the Dirichlet disk, with and without a
    # particular field; "shared": tiles of 5 rows, two threads sharing each block
    from rbfbench import operators

    p = get_problem(name)
    nodes = partition_boundary(generate_nodes(DISK, 48, 30, seed=7), p.bc_rule)
    bc, op, u_sharp = sample_bc(nodes, p), p.operator, higher_order_solution(p.operator, 0)
    pts = nodes.all_points()
    fs = np.cos(pts[:, 0]) + pts[:, 1] if source == "particular" else None
    phi = build_kernel("mq", c=0.9)
    if tiles == "shared":
        monkeypatch.setattr(operators, "TILE", 5 * 48)
        monkeypatch.setattr(operators, "CORES", 2)
    Q, B, traces, cond = _two_call_direct(nodes, op, bc, fs, phi, u_sharp)
    lu, (B_one,) = bkm.assemble_Q(nodes, op, u_sharp, swapped=True)
    assert np.array_equal(lu.matrix, Q) and np.array_equal(B_one, B)
    assert not np.shares_memory(lu.matrix, B_one)
    rec = bkm.solve_direct(nodes, op, bc, fs, phi, u_sharp)
    recovered = np.concatenate([rec.neumann_at_dirichlet, rec.dirichlet_at_neumann])
    assert np.array_equal(recovered, traces)
    # LAPACK's condition estimate may move in its last digits with the matrix's address
    assert rec.cond_est == pytest.approx(cond, rel=1e-12)


def test_bkm_direct_row_builds_one_geometry_and_one_table_per_point_set_pair(monkeypatch):
    # the mixed-BC disk: Q and the swapped trace matrix B share each tile of a node class,
    # one geometry and one J0 pass for both (2 node classes x 2 column groups); the kernel
    # check, cached per operator and kernel, adds at most one for its op and value rows
    from rbfbench import kernels, operators
    from rbfbench.bench import run_benchmark

    counts = {"pairs": 0, "j0": 0}
    j0_per_tile = []
    pairs_init, j0 = operators._Pairs.__init__, kernels.special.j0
    derivs = operators.derivs_upto_many

    def counting_init(self, *args):
        counts["pairs"] += 1
        pairs_init(self, *args)

    def counting_j0(x):
        counts["j0"] += 1
        return j0(x)

    def tile_derivs(kerns, r, n):
        before = counts["j0"]
        out = derivs(kerns, r, n)
        j0_per_tile.append(counts["j0"] - before)
        return out

    monkeypatch.setattr(operators._Pairs, "__init__", counting_init)
    monkeypatch.setattr(kernels.special, "j0", counting_j0)
    monkeypatch.setattr(operators, "derivs_upto_many", tile_derivs)
    monkeypatch.setattr(operators, "CORES", 1)  # one tile at a time, for the per-tile count
    config = {
        "problems": ["helmholtz_disk"],
        "methods": ["bkm_direct"],
        "n_boundary": 32,
        "n_interior": 0,
    }
    report = run_benchmark(config)
    assert report.errors == [] and len(report.rows) == 1
    # Q with B 4, the kernel check 1 (none once cached); two separate calls built 10
    assert counts["pairs"] <= 5
    assert len(j0_per_tile) == counts["pairs"] and set(j0_per_tile) == {1}
