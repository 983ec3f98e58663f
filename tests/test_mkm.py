import numpy as np
import pytest

from rbfbench import bkm, mkm
from rbfbench.bench import boundary_band_mask, compute_errors, probe_grid
from rbfbench.errors import KernelSmoothnessError
from rbfbench.geometry import DomainSpec, generate_nodes, partition_boundary
from rbfbench.kernels import build_kernel
from rbfbench.operators import convection_diffusion, helmholtz, laplace
from rbfbench.problems import get_problem

SQUARE = DomainSpec("rectangle", 1.0, 1.0)


def p2_setup(n_boundary=32, n_interior=81, seed=7):
    p = get_problem("poisson_square")
    nodes = partition_boundary(generate_nodes(SQUARE, n_boundary, n_interior, seed), p.bc_rule)
    bc = bkm.BoundaryData.from_callables(nodes, p.exact, p.exact_grad)
    fs = np.zeros(nodes.n_interior + nodes.n_boundary)
    return p, nodes, bc, fs


def test_system_size_counts_doubled_boundary():
    _, nodes, bc, fs = p2_setup(n_boundary=8, n_interior=5)
    system = mkm.assemble_mkm(nodes, laplace(), bc, fs, build_kernel("mq", c=0.8))
    assert system.size == (5 + 8) + 8
    assert system.matrix.shape == (21, 21)


def test_pure_dirichlet_gaussian_symmetry():
    nodes = generate_nodes(SQUARE, 4, 3, seed=1)  # all Dirichlet
    bc = bkm.BoundaryData(np.zeros(4), np.empty(0))
    system = mkm.assemble_mkm(nodes, laplace(), bc, np.zeros(7), build_kernel("gaussian", c=0.7))
    assert system.symmetry_defect() <= 1e-10


@pytest.mark.parametrize("family,params", [
    ("mq", dict(c=0.8)),
    ("imq", dict(c=0.8)),
    ("gaussian", dict(c=0.6)),
])
@pytest.mark.parametrize("op", [laplace(), helmholtz(2.0)], ids=lambda o: o.kind)
def test_mixed_bc_symmetry_smooth_kernels(family, params, op):
    _, nodes, bc, fs = p2_setup(n_boundary=12, n_interior=9)
    system = mkm.assemble_mkm(nodes, op, bc, fs, build_kernel(family, **params))
    assert system.symmetry_defect() <= 1e-10


def test_convection_diffusion_adjoint_restores_symmetry():
    op = convection_diffusion(0.7, (0.4, -0.3))
    _, nodes, bc, fs = p2_setup(n_boundary=12, n_interior=9)
    system = mkm.assemble_mkm(nodes, op, bc, fs, build_kernel("gaussian", c=0.6))
    assert system.symmetry_defect() <= 1e-10


def test_zero_data_gives_zero_solution():
    _, nodes, _, fs = p2_setup(n_boundary=8, n_interior=5)
    bc = bkm.BoundaryData(
        np.zeros(len(nodes.dirichlet_idx)), np.zeros(len(nodes.neumann_idx))
    )
    system = mkm.assemble_mkm(nodes, laplace(), bc, fs, build_kernel("mq", c=0.8))
    sol = mkm.solve_mkm(system)
    assert np.allclose(sol.terms[0].coefficients, 0.0, atol=1e-12)
    assert np.allclose(sol.evaluate([[0.5, 0.5]]), 0.0, atol=1e-12)


def test_p2_accuracy_and_residual():
    p, nodes, bc, fs = p2_setup()
    system = mkm.assemble_mkm(nodes, p.operator, bc, fs, build_kernel("mq", c=0.8))
    sol = mkm.solve_mkm(system)
    assert sol.residual_inf <= 1e-8
    probes = probe_grid(SQUARE)
    metrics = compute_errors(sol.evaluate, p.exact, probes, boundary_band_mask(SQUARE, probes))
    assert metrics.l2_rel_err < 1e-4  # pilot: 1.6e-6


def test_inhomogeneous_variant_solves():
    p = get_problem("poisson_square_inhom")
    nodes = partition_boundary(generate_nodes(SQUARE, 24, 49, seed=7), p.bc_rule)
    bc = bkm.BoundaryData.from_callables(nodes, p.exact, p.exact_grad)
    fs = p.f_samples(nodes.all_points())
    sol = mkm.solve_mkm(mkm.assemble_mkm(nodes, p.operator, bc, fs, build_kernel("mq", c=0.8)))
    probes = probe_grid(SQUARE)
    metrics = compute_errors(sol.evaluate, p.exact, probes)
    assert metrics.l2_rel_err < 1e-3


def test_mixed_bc_assembly_writes_its_blocks_into_one_matrix():
    # every block is built in cache-sized row tiles written straight into the
    # system matrix: the assembly allocates little beyond the matrix itself,
    # which is its single-block builds stacked, bit for bit
    import tracemalloc

    from rbfbench.operators import collocation_matrix

    p = get_problem("poisson_square_inhom")
    nodes = partition_boundary(generate_nodes(SQUARE, 128, 1024, seed=7), p.bc_rule)
    assert len(nodes.dirichlet_idx) and len(nodes.neumann_idx)
    bc = bkm.BoundaryData.from_callables(nodes, p.exact, p.exact_grad)
    fs = p.f_samples(nodes.all_points())
    phi = build_kernel("mq", c=0.8)
    tracemalloc.start()
    try:
        system = mkm.assemble_mkm(nodes, p.operator, bc, fs, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.matrix.shape == (1280, 1280)
    assert peak < 1.5 * system.matrix.nbytes
    rows = [("op", nodes.all_points())] + bkm.boundary_groups(nodes)
    blocks = [[collocation_matrix(p.operator, phi, [r], [c]) for c in system.columns] for r in rows]
    assert np.array_equal(system.matrix, np.block(blocks))


@pytest.mark.parametrize("cores", [3, 4, 64])
def test_mixed_bc_assembly_memory_does_not_grow_with_the_core_count(monkeypatch, cores):
    # the tiles that threads share hold two serial tiles' memory whatever
    # the core count, so the bound above holds on any machine
    import tracemalloc

    from rbfbench import operators

    monkeypatch.setattr(operators, "CORES", cores)
    p = get_problem("poisson_square_inhom")
    nodes = partition_boundary(generate_nodes(SQUARE, 128, 1024, seed=7), p.bc_rule)
    bc = bkm.BoundaryData.from_callables(nodes, p.exact, p.exact_grad)
    fs = p.f_samples(nodes.all_points())
    tracemalloc.start()
    try:
        system = mkm.assemble_mkm(nodes, p.operator, bc, fs, build_kernel("mq", c=0.8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * system.matrix.nbytes


def test_rough_kernel_rejected():
    _, nodes, bc, fs = p2_setup(n_boundary=8, n_interior=5)
    with pytest.raises(KernelSmoothnessError):
        mkm.assemble_mkm(nodes, laplace(), bc, fs, build_kernel("tps"))


# ---------------------------------------------------------------------------
# unsymmetric baseline
# ---------------------------------------------------------------------------


def test_kansa_zero_data_gives_zero():
    _, nodes, _, fs = p2_setup(n_boundary=8, n_interior=5)
    bc = bkm.BoundaryData(
        np.zeros(len(nodes.dirichlet_idx)), np.zeros(len(nodes.neumann_idx))
    )
    sol = mkm.solve_kansa_baseline(nodes, laplace(), bc, fs, build_kernel("mq", c=0.8))
    assert np.allclose(sol.terms[0].coefficients, 0.0, atol=1e-12)


def test_kansa_matrix_generally_unsymmetric():
    from rbfbench.operators import collocation_matrix

    _, nodes, bc, fs = p2_setup(n_boundary=12, n_interior=9)
    phi = build_kernel("mq", c=0.8)
    rows = [
        ("op", nodes.interior),
        ("value", nodes.dirichlet_points),
        ("normal", nodes.neumann_points, nodes.neumann_normals),
    ]
    A = collocation_matrix(laplace(), phi, rows, [("value", nodes.all_points())])
    defect = np.max(np.abs(A - A.T)) / np.max(np.abs(A))
    assert defect > 1e-6


def test_boundary_band_non_inferiority_vs_kansa():
    p, nodes, bc, fs = p2_setup()
    phi = build_kernel("mq", c=0.8)
    sol_mkm = mkm.solve_mkm(mkm.assemble_mkm(nodes, p.operator, bc, fs, phi))
    sol_kan = mkm.solve_kansa_baseline(nodes, p.operator, bc, fs, phi)
    probes = probe_grid(SQUARE)
    band = boundary_band_mask(SQUARE, probes)
    m_mkm = compute_errors(sol_mkm.evaluate, p.exact, probes, band)
    m_kan = compute_errors(sol_kan.evaluate, p.exact, probes, band)
    assert m_mkm.boundary_band_err <= m_kan.boundary_band_err
    # pilot ratio ~0.10: one order of magnitude gained next to the boundary
    assert m_mkm.boundary_band_err <= 0.5 * m_kan.boundary_band_err
