import multiprocessing
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import fd_operator_2d, nested_normal_fd
from rbfbench.errors import KernelSmoothnessError, ParameterError, SingularityError
from rbfbench.kernels import RadialKernel, build_kernel, higher_order_solution
from rbfbench.operators import (
    COLUMN_KINDS,
    ROW_KINDS,
    OperatorSpec,
    adjoint_of,
    collocation_matrix,
    convection_diffusion,
    helmholtz,
    laplace,
    ll_star_matrix,
    mod_helmholtz,
)


def quadratic_kernel() -> RadialKernel:
    """phi(r) = r^2, handy because Lap(r^2) = 4 in 2D."""
    def radial(r):
        yield r * r
        yield 2.0 * r
        yield np.full(r.shape, 2.0)
        yield np.zeros(r.shape)
        yield np.zeros(r.shape)

    return RadialKernel("quadratic", False, radial, top_order=4)


def test_operator_parameter_validation():
    with pytest.raises(ParameterError):
        helmholtz(0.0)
    with pytest.raises(ParameterError):
        convection_diffusion(0.0, (1.0, 0.0))
    with pytest.raises(ParameterError):
        OperatorSpec("advection")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            helmholtz(bad)
        with pytest.raises(ParameterError):
            mod_helmholtz(bad)
        with pytest.raises(ParameterError):
            convection_diffusion(bad, (0.0, 0.0))


def test_laplacian_of_r_squared_is_four():
    rows, cols = [("op", [(0.7, 0.2)])], [("value", [(0.1, -0.3)])]
    val = collocation_matrix(laplace(), quadratic_kernel(), rows, cols)[0, 0]
    assert val == pytest.approx(4.0, rel=1e-12)


def test_helmholtz_annihilates_its_general_solution():
    op = helmholtz(2.0)
    kern = build_kernel("helmholtz_gs_2d", k=2.0)
    x = [[1.0, 0.0], [0.3, 0.4], [1.5, -2.0]]
    image = collocation_matrix(op, kern, [("op", x)], [("value", [(0.0, 0.0)])])
    assert np.max(np.abs(image)) < 1e-11


def test_mod_helmholtz_annihilates_bessel_i():
    op = mod_helmholtz(1.5)
    kern = build_kernel("mod_helmholtz_gs_2d", k=1.5)
    image = collocation_matrix(op, kern, [("op", [(0.8, 0.1)])], [("value", [(0.0, 0.0)])])
    assert abs(image[0, 0]) < 1e-11


def test_laplacian_limit_at_origin():
    kern = build_kernel("gaussian", c=1.0)
    val = collocation_matrix(laplace(), kern, [("op", [(0.3, 0.3)])], [("value", [(0.3, 0.3)])])
    assert val[0, 0] == pytest.approx(-4.0)  # 2 * phi''(0)


def test_singular_kernel_at_coincident_points_raises():
    kern = build_kernel("laplace_fs_2d")
    with pytest.raises(SingularityError):
        collocation_matrix(laplace(), kern, [("op", [(0.5, 0.5)])], [("value", [(0.5, 0.5)])])


OPERATORS = [
    laplace(),
    helmholtz(2.0),
    mod_helmholtz(1.5),
    convection_diffusion(0.8, (0.5, -0.4)),
]
ALL_FAMILY_PARAMS = {
    "mq": dict(c=1.0),
    "imq": dict(c=1.0),
    "gaussian": dict(c=1.0),
    "tps": dict(),
    "exp_decay": dict(omega=1.0),
    "laplace_fs_1d": dict(),
    "laplace_fs_2d": dict(),
    "laplace_fs_3d": dict(),
    "helmholtz_gs_2d": dict(k=2.0),
    "helmholtz_gs_3d": dict(k=1.5),
    "helmholtz_fs_2d": dict(k=2.0),
    "mod_helmholtz_gs_2d": dict(k=0.5),
}


@pytest.mark.parametrize("op", OPERATORS, ids=lambda o: o.kind)
@pytest.mark.parametrize("family", sorted(ALL_FAMILY_PARAMS))
def test_operator_image_matches_2d_stencil(op, family):
    kern = build_kernel(family, **ALL_FAMILY_PARAMS[family])
    x_s = np.array([0.15, -0.2])
    for x in ([0.8, 0.3], [-0.5, 0.9], [1.4, 1.1]):
        want = fd_operator_2d(op, kern, x, x_s, h=1e-4)
        got = collocation_matrix(op, kern, [("op", [x])], [("value", [x_s])])[0, 0]
        # abs floor sits above the stencil's own truncation error, which
        # is what remains when the analytic image is exactly zero
        assert got == pytest.approx(want, rel=1e-4, abs=1e-6)


def test_adjoint_identities():
    assert adjoint_of(laplace()) == laplace()
    assert adjoint_of(helmholtz(2.0)) == helmholtz(2.0)
    cd = convection_diffusion(0.7, (0.4, -0.3))
    assert adjoint_of(cd).velocity == (-0.4, 0.3)
    assert adjoint_of(adjoint_of(cd)) == cd


def test_normal_derivative_examples():
    kern = quadratic_kernel()
    x, x_s, n = [(1.0, 0.0)], [(0.0, 0.0)], [(1.0, 0.0)]
    val = collocation_matrix(None, kern, [("normal", x, n)], [("value", x_s)])[0, 0]
    assert val == pytest.approx(2.0)
    val_s = collocation_matrix(None, kern, [("value", x)], [("normal", x_s, n)])[0, 0]
    assert val_s == pytest.approx(-2.0)
    # direction orthogonal to the separation contributes nothing
    gauss = build_kernel("gaussian", c=1.0)
    ortho = collocation_matrix(None, gauss, [("normal", x, [(0.0, 1.0)])], [("value", x_s)])
    assert ortho[0, 0] == 0.0


@settings(max_examples=40, deadline=None)
@given(
    coords=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=4, max_size=4
    ),
    theta=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_normal_derivative_antisymmetry_exact(coords, theta):
    x = np.array(coords[:2])
    x_s = np.array(coords[2:])
    if np.linalg.norm(x - x_s) < 1e-6:
        return
    n = np.array([np.cos(theta), np.sin(theta)])
    kern = build_kernel("mq", c=1.0)
    f = collocation_matrix(None, kern, [("normal", x, n)], [("value", x_s)])[0, 0]
    s = collocation_matrix(None, kern, [("value", x)], [("normal", x_s, n)])[0, 0]
    assert s == -f  # exact negation, not approximate


def test_mixed_derivative_examples():
    kern = quadratic_kernel()
    rows = [("normal", [(1.0, 0.0)], [(1.0, 0.0)])]
    val = collocation_matrix(None, kern, rows, [("normal", [(0.0, 0.0)], [(1.0, 0.0)])])
    assert val[0, 0] == pytest.approx(-2.0)
    val = collocation_matrix(None, kern, rows, [("normal", [(0.0, 0.0)], [(0.0, 1.0)])])
    assert val[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_mixed_derivative_matches_nested_differences():
    kern = build_kernel("gaussian", c=1.0)
    x, x_s = (0.5, 0.0), (0.0, 0.0)
    n_x = np.array([1.0, 0.0])
    for n_s in ([1.0, 0.0], [0.6, 0.8], [0.0, -1.0]):
        want = nested_normal_fd(kern, x, x_s, n_x, n_s)
        rows, cols = [("normal", x, n_x)], [("normal", x_s, n_s)]
        got = collocation_matrix(None, kern, rows, cols)[0, 0]
        assert got == pytest.approx(want, rel=1e-5, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    coords=st.lists(
        st.floats(min_value=-1.5, max_value=1.5, allow_nan=False), min_size=4, max_size=4
    ),
    angles=st.lists(st.floats(min_value=0.0, max_value=2 * np.pi), min_size=2, max_size=2),
)
def test_mixed_derivative_swap_symmetry(coords, angles):
    x = np.array(coords[:2])
    y = np.array(coords[2:])
    if np.linalg.norm(x - y) < 1e-3:
        return
    n_x = np.array([np.cos(angles[0]), np.sin(angles[0])])
    n_y = np.array([np.cos(angles[1]), np.sin(angles[1])])
    kern = build_kernel("imq", c=0.8)
    a = collocation_matrix(None, kern, [("normal", x, n_x)], [("normal", y, n_y)])[0, 0]
    b = collocation_matrix(None, kern, [("normal", y, n_y)], [("normal", x, n_x)])[0, 0]
    assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# fourth-order images used by the Hermite domain scheme
# ---------------------------------------------------------------------------


def test_ll_star_matches_nested_stencils():
    # oracle: apply the 2D stencil of L to the adjoint image evaluated by
    # the analytic path; only the outer application is numerical
    op = convection_diffusion(0.9, (0.3, 0.2))
    kern = build_kernel("gaussian", c=1.2)
    y = np.array([[0.1, -0.1]])

    def adjoint_field(p):
        return collocation_matrix(op, kern, [("value", p)], [("adjoint", y)])[:, 0]

    x = np.array([0.6, 0.4])
    h = 1e-4
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    lap = (
        adjoint_field(x + ex)
        + adjoint_field(x - ex)
        + adjoint_field(x + ey)
        + adjoint_field(x - ey)
        - 4.0 * adjoint_field(x)
    )[0] / (h * h)
    grad_x = (adjoint_field(x + ex) - adjoint_field(x - ex))[0] / (2 * h)
    grad_y = (adjoint_field(x + ey) - adjoint_field(x - ey))[0] / (2 * h)
    want = op.diff_coeff * lap - op.velocity_vec @ (grad_x, grad_y)
    got = ll_star_matrix(op, kern, x[None, :], y)[0, 0]
    assert got == pytest.approx(want, rel=1e-5)


def _coincident_limit(op, kern, kind, nx, ny):
    # the analytic r -> 0 limit of the (row, column) block `kind` at one pair
    # with normals nx and ny, from the kernel's derivatives at r = 0
    phi, _, d2, _, d4 = kern.derivs_upto(0.0, 4)
    D, gamma, v = op.diff_coeff, op.reaction, op.velocity_vec
    return {
        ("value", "value"): phi,
        ("value", "normal"): 0.0,
        ("value", "adjoint"): 2.0 * D * d2 + gamma * phi,
        ("normal", "value"): 0.0,
        ("normal", "normal"): -d2 * (nx @ ny),
        ("normal", "adjoint"): d2 * (nx @ v),
        ("op", "value"): 2.0 * D * d2 + gamma * phi,
        ("op", "normal"): d2 * (ny @ v),
        ("op", "adjoint"): (8.0 / 3.0) * D * D * d4
        + 4.0 * gamma * D * d2
        + gamma * gamma * phi
        - d2 * (v @ v),
    }[kind]


@pytest.mark.parametrize("kind", [(r, c) for r in ROW_KINDS for c in COLUMN_KINDS], ids="-".join)
@pytest.mark.parametrize("op", OPERATORS, ids=lambda o: o.kind)
@pytest.mark.parametrize(
    "kern",
    [
        build_kernel("gaussian", c=1.0),
        build_kernel("mq", c=0.9),
        build_kernel("helmholtz_gs_2d", k=2.0),
    ],
    ids=lambda k: k.family,
)
def test_coincident_limits(kern, op, kind):
    # every coincident entry of every block is its analytic limit, also for
    # a pair 1e-9 apart (under COINCIDENT_TOL, where helmholtz_gs_2d's
    # derivatives cancel); for the Gaussian with c = 1 the bilaplacian limit
    # 8/3 * phi''''(0) is 32
    X = np.array([(0.1, 0.2), (-0.4, 0.3), (0.5, -0.6)])
    Y = np.array([(0.5, -0.6), (0.7, 0.7), (0.1, 0.2), (-0.4 + 1e-9, 0.3)])
    tx, ty = np.array([0.3, 1.9, 4.0]), np.array([0.6, 2.5, 0.9, 5.1])
    nx = np.column_stack([np.cos(tx), np.sin(tx)])
    ny = np.column_stack([np.cos(ty), np.sin(ty)])
    rows = {"value": ("value", X), "normal": ("normal", X, nx), "op": ("op", X)}
    cols = {"value": ("value", Y), "normal": ("normal", Y, ny), "adjoint": ("adjoint", Y)}
    A = collocation_matrix(op, kern, [rows[kind[0]]], [cols[kind[1]]])
    pairs = [(0, 2), (2, 0), (1, 3)]
    got = [A[i, j] for i, j in pairs]
    want = [_coincident_limit(op, kern, kind, nx[i], ny[j]) for i, j in pairs]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    if kern.family == "gaussian" and op.kind == "laplace_2d" and kind == ("op", "adjoint"):
        assert got == pytest.approx([32.0, 32.0, 32.0])


def test_normal_of_adjoint_image_matches_differences():
    op = convection_diffusion(0.9, (0.3, 0.2))
    kern = build_kernel("mq", c=1.0)
    y = np.array([[0.1, -0.1]])
    x = np.array([0.6, 0.4])
    n = np.array([0.8, 0.6])

    def adjoint_field(p):
        return collocation_matrix(op, kern, [("value", p)], [("adjoint", y)])[0, 0]

    h = 1e-5
    want = (adjoint_field(x + h * n) - adjoint_field(x - h * n)) / (2 * h)
    got = collocation_matrix(op, kern, [("normal", x, n)], [("adjoint", y)])[0, 0]
    assert got == pytest.approx(want, rel=1e-5)


def test_operator_of_source_normal_basis_matches_differences():
    op = helmholtz(1.5)
    kern = build_kernel("imq", c=1.0)
    y = np.array([0.1, -0.1])
    n_s = np.array([0.0, 1.0])
    x = np.array([0.6, 0.4])

    def basis(p):
        return collocation_matrix(None, kern, [("value", p)], [("normal", y, n_s)])[:, 0]

    # five-point stencil applied to the basis function directly
    h = 1e-4
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    lap = (basis(x + ex) + basis(x - ex) + basis(x + ey) + basis(x - ey) - 4 * basis(x))[0] / (h * h)
    want = lap + op.reaction * basis(x)[0]
    got = collocation_matrix(op, kern, [("op", x)], [("normal", y, n_s)])[0, 0]
    assert got == pytest.approx(want, rel=1e-4)


def test_fourth_order_schemes_reject_rough_kernels():
    op = laplace()
    pts = np.zeros((1, 2))
    with pytest.raises(KernelSmoothnessError):
        ll_star_matrix(op, build_kernel("tps"), pts, pts)
    with pytest.raises(KernelSmoothnessError):
        ll_star_matrix(op, build_kernel("exp_decay", omega=1.0), pts, pts)
    with pytest.raises(KernelSmoothnessError):
        ll_star_matrix(op, build_kernel("mq", c=0), pts, pts)


# ---------------------------------------------------------------------------
# one collocation-matrix builder
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "rbfbench"

BLOCK_BUILDERS = (
    "mixed_normal_matrix",
    "operator_image_matrix",
    "ll_star_matrix",
)


def test_solvers_build_blocks_only_through_collocation_matrix():
    # every solver block and evaluator comes from collocation_matrix; the
    # per-block builders are entry points for callers outside the library
    pattern = re.compile(r"\b(" + "|".join(BLOCK_BUILDERS) + r")\b")
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "operators.py" in modules
    offenders = [
        f"{path.name}:{lineno}"
        for path in modules
        if path.name != "operators.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_only_operators_defines_field_evaluators():
    # every solved field is an operators.Expansion, evaluated by its traces
    pattern = re.compile(r"^\s*def (evaluate|traces)\b")
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "operators.py" in modules
    offenders = [
        f"{path.name}:{lineno}"
        for path in modules
        if path.name != "operators.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_collocation_matrix_stacks_the_block_builders():
    from rbfbench.operators import kernel_value_matrix, mixed_normal_matrix, operator_image_matrix

    op = convection_diffusion(0.8, (0.5, -0.4))
    kern = build_kernel("gaussian", c=0.9)
    rng = np.random.default_rng(4)
    X, Y = rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (4, 2))
    theta = rng.uniform(0, 2 * np.pi, 5)
    n = np.column_stack([np.cos(theta), np.sin(theta)])
    empty = np.empty((0, 2))
    rows = [("op", X), ("value", X[:2]), ("normal", empty, empty), ("normal", X, n)]
    cols = [("value", Y), ("normal", X, n), ("adjoint", Y)]
    A = collocation_matrix(op, kern, rows, cols)
    assert A.shape == (12, 13)
    assert np.array_equal(A[:5, :4], operator_image_matrix(op, kern, X, Y))
    assert np.array_equal(A[5:7, 4:9], collocation_matrix(op, kern, [rows[1]], [cols[1]]))
    assert np.array_equal(A[7:, :4], collocation_matrix(op, kern, [rows[3]], [cols[0]]))
    assert np.array_equal(A[7:, 4:9], mixed_normal_matrix(kern, X, X, n, n))
    assert np.array_equal(A[5:7, 9:], collocation_matrix(op, kern, [rows[1]], [cols[2]]))
    assert np.array_equal(A[:5, 9:], ll_star_matrix(op, kern, X, Y))
    assert np.array_equal(A[7:, 9:], collocation_matrix(op, kern, [rows[3]], [cols[2]]))
    assert np.array_equal(A[:5, 4:9], collocation_matrix(op, kern, [rows[0]], [cols[1]]))
    assert np.array_equal(A[5:7, :4], kernel_value_matrix(kern, X[:2], Y))


@pytest.mark.parametrize(
    "kern",
    [build_kernel("gaussian", c=0.9), higher_order_solution(helmholtz(1.3), 2)],
    ids=["gaussian", "helmholtz_chain_2"],
)
def test_stacked_blocks_match_single_block_builds(kern):
    # value and normal groups stacked against themselves: each block, the
    # two transposed off-diagonal ones included, is written into its place
    # in the stacked matrix and must equal the block built on its own, bit
    # for bit
    from rbfbench.operators import kernel_value_matrix, mixed_normal_matrix

    rng = np.random.default_rng(5)
    X, Y = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (4, 2))
    theta = rng.uniform(0, 2 * np.pi, 4)
    n = np.column_stack([np.cos(theta), np.sin(theta)])
    groups = [("value", X), ("normal", Y, n)]
    A = collocation_matrix(None, kern, groups, groups)
    assert np.array_equal(A[:6, :6], kernel_value_matrix(kern, X, X))
    assert np.array_equal(A[:6, 6:], collocation_matrix(None, kern, groups[:1], groups[1:]))
    assert np.array_equal(A[6:, :6], collocation_matrix(None, kern, groups[1:], groups[:1]))
    assert np.array_equal(A[6:, 6:], mixed_normal_matrix(kern, Y, Y, n, n))


def test_pair_planes_keep_the_bits_of_interleaved_differences():
    # the (m, n, 2) difference array and its einsum sums are the reference:
    # the dx/dy planes must give the same radii and projections bit for bit
    from rbfbench.operators import COINCIDENT_TOL, _Pairs

    rng = np.random.default_rng(9)
    X, Y = rng.uniform(-1, 1, (40, 2)), rng.uniform(-1, 1, (33, 2))
    Y[:4] = X[:4]
    nx, ny = rng.normal(size=(40, 2)), rng.normal(size=(33, 2))
    v = np.array([0.7, -0.3])
    kern = build_kernel("gaussian", c=0.9)
    g = _Pairs(kern, X, Y, "test")
    d = X[:, None, :] - Y[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
    assert g.dx.flags.c_contiguous and g.dy.flags.c_contiguous
    assert np.array_equal(g.dx, d[..., 0]) and np.array_equal(g.dy, d[..., 1])
    assert np.array_equal(g.r, r)
    assert np.count_nonzero(g.z) == 4
    assert np.array_equal(g.rs, np.where(r < COINCIDENT_TOL, 1.0, r))
    assert np.array_equal(g.dot(nx[:, None]), np.einsum("ijk,ik->ij", d, nx))
    assert np.array_equal(g.dot(ny), np.einsum("ijk,jk->ij", d, ny))
    assert np.array_equal(g.dot(v), np.einsum("ijk,k->ij", d, v))
    # with no coincident pair the safe divisor is the radii, not a copy
    apart = _Pairs(kern, X[4:], Y[4:], "test")
    assert apart.rs is apart.r


def test_operators_builds_no_interleaved_difference_array():
    # an (m, n, 2) difference array and einsum over its axis of length 2
    # cost about three times the dx/dy planes of operators._Pairs
    path = SRC / "operators.py"
    offenders = [
        f"{path.name}:{lineno}"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "einsum" in line or "[:, None, :] -" in line
    ]
    assert offenders == []


def test_collocation_matrix_rejects_unknown_groups():
    kern = build_kernel("mq", c=1.0)
    pts = np.zeros((1, 2))
    with pytest.raises(ValueError):
        collocation_matrix(None, kern, [("adjoint", pts)], [("value", pts)])
    with pytest.raises(ValueError):
        collocation_matrix(None, kern, [("normal", pts)], [("value", pts)])


def _tiled_groups():
    # 23 rows against 7 columns; the one coincident pair sits in row 19
    rng = np.random.default_rng(11)
    X, Y = rng.uniform(-1, 1, (23, 2)), rng.uniform(-1, 1, (7, 2))
    Y[5] = X[19]
    nx, ny = (
        np.column_stack([np.cos(t), np.sin(t)]) for t in rng.uniform(0, 2 * np.pi, (2, 23))
    )
    rows = [("value", X), ("normal", X, nx), ("op", X)]
    cols = [("value", Y), ("normal", Y, ny[:7]), ("adjoint", Y)]
    return rows, cols


def _count_tiles(monkeypatch):
    from rbfbench import operators

    tiles = []
    real = operators._Pairs

    def counting(*args, **kwargs):
        tiles.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(operators, "_Pairs", counting)
    return tiles


@pytest.mark.parametrize("op", OPERATORS, ids=lambda o: o.kind)
def test_uneven_row_tiles_build_the_one_tile_matrix(monkeypatch, op):
    # TILE = 17 elements is 2 rows of 7 columns: each of the 9 blocks takes 12
    # tiles, the last one row, and the coincident pair falls in tile 10 only;
    # each tile makes one derivative pass, at its pair radii, and the
    # coincident tile reads its limits from it (no scalar pass at r = 0); on
    # one core the tiles are built in order
    from rbfbench import operators

    rows, cols = _tiled_groups()
    kern = build_kernel("mq", c=0.9)
    whole = collocation_matrix(op, kern, rows, cols)
    monkeypatch.setattr(operators, "TILE", 17)
    monkeypatch.setattr(operators, "CORES", 1)
    tiles = _count_tiles(monkeypatch)
    passes = []
    real = operators.derivs_upto_many

    def counting(kernels, r, n):
        passes.append(np.shape(r))
        return real(kernels, r, n)

    monkeypatch.setattr(operators, "derivs_upto_many", counting)
    tiled = collocation_matrix(op, kern, rows, cols)
    assert tiles == ([2] * 11 + [1]) * 9
    assert passes == [(t, 7) for t in tiles]
    assert np.array_equal(tiled, whole)
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            block = tiled[23 * i : 23 * (i + 1), 7 * j : 7 * (j + 1)]
            assert np.array_equal(block, collocation_matrix(op, kern, [row], [col]))


def test_uneven_row_tiles_build_the_one_tile_chain_matrices(monkeypatch):
    # one multi-kernel call over a Helmholtz chain (its traces and normal
    # derivatives, as BPM builds them), one Bessel table per tile
    from rbfbench import operators
    from rbfbench.operators import collocation_matrices

    op = helmholtz(1.3)
    chain = [higher_order_solution(op, m) for m in range(4)]
    rows, cols = (groups[:2] for groups in _tiled_groups())
    whole = collocation_matrices(op, chain, rows, cols)
    monkeypatch.setattr(operators, "TILE", 17)
    tiled = collocation_matrices(op, chain, rows, cols)
    for kern, a, b in zip(chain, tiled, whole):
        assert np.array_equal(a, b)
        assert np.array_equal(a, collocation_matrix(op, kern, rows, cols))


def test_pole_in_a_later_tile_is_refused(monkeypatch):
    from rbfbench import operators

    rows, cols = _tiled_groups()
    monkeypatch.setattr(operators, "TILE", 17)
    tiles = _count_tiles(monkeypatch)
    with pytest.raises(SingularityError, match="pole"):
        collocation_matrix(laplace(), build_kernel("laplace_fs_2d"), rows[:1], cols[:1])
    assert tiles == [2] * 10


CHAIN = [higher_order_solution(helmholtz(1.3), m) for m in range(4)]


@pytest.mark.parametrize("cores", [2, 3, 8])
@pytest.mark.parametrize("op", OPERATORS, ids=lambda o: o.kind)
@pytest.mark.parametrize(
    "kernels",
    [[build_kernel("mq", c=0.9)], [build_kernel("gaussian", c=0.9)], CHAIN],
    ids=["mq", "gaussian", "helmholtz_chain"],
)
def test_shared_row_tiles_build_the_serial_matrices(monkeypatch, kernels, op, cores):
    # TILE = 17: each block of 12 serial tiles is shared round-robin by k =
    # min(cores, 4) threads, in tiles of 2 rows (k = 2) or 1 row (k = 3, 4),
    # the coincident row 19 falling to a worker, and every kind the kernels'
    # top order allows is bit for bit the block built by the caller alone
    from rbfbench import operators
    from rbfbench.operators import _FORMULAS, collocation_matrices

    rows, cols = _tiled_groups()
    top = min(kern.top_order for kern in kernels)
    monkeypatch.setattr(operators, "TILE", 17)
    threads = set()
    real = operators._Pairs

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(operators, "_Pairs", recording)
    kinds = 0
    for row in rows:
        for col in cols:
            if _FORMULAS[row[0], col[0]][1] > top:
                continue
            monkeypatch.setattr(operators, "CORES", 1)
            serial = collocation_matrices(op, kernels, [row], [col])
            monkeypatch.setattr(operators, "CORES", cores)
            shared = collocation_matrices(op, kernels, [row], [col])
            for a, b in zip(shared, serial):
                assert np.array_equal(a, b), (row[0], col[0])
            kinds += 1
    assert kinds == (9 if top >= 4 else 6)
    assert len(threads) > 1


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failing_tile_is_raised_after_every_share_is_done(monkeypatch, failing):
    # the caller waits on its workers also when its own share raises, then
    # raises the first error of its own share, else a worker's, unchanged
    from rbfbench import operators

    rows, cols = _tiled_groups()
    monkeypatch.setattr(operators, "TILE", 17)
    monkeypatch.setattr(operators, "CORES", 2)
    caller = threading.get_ident()
    done = []
    real = operators.derivs_upto_many

    def derivs(kernels, r, n):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise ValueError(f"tile failed on the {failing}")
        out = real(kernels, r, n)
        done.append(r.shape)
        return out

    monkeypatch.setattr(operators, "derivs_upto_many", derivs)
    with pytest.raises(ValueError) as err:
        collocation_matrix(None, build_kernel("mq", c=0.9), rows[:1], cols[:1])
    assert str(err.value) == f"tile failed on the {failing}"
    # the other side's six tiles were all built before the raise
    assert len(done) == 6


def test_repeated_shared_builds_start_no_more_threads(monkeypatch):
    from rbfbench import operators

    rows, cols = _tiled_groups()
    kern = build_kernel("gaussian", c=0.9)
    monkeypatch.setattr(operators, "TILE", 17)
    monkeypatch.setattr(operators, "CORES", 2)
    first = collocation_matrix(laplace(), kern, rows, cols)
    count = threading.active_count()
    for _ in range(20):
        assert np.array_equal(collocation_matrix(laplace(), kern, rows, cols), first)
        assert threading.active_count() == count


_MQ = build_kernel("mq", c=0.5)


def _ll_star_in_child(X, want):
    raise SystemExit(0 if np.array_equal(ll_star_matrix(laplace(), _MQ, X, X), want) else 1)


@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_forked_child_builds_shared_tiles_with_its_own_workers(monkeypatch):
    # a fork child has none of the parent's pool threads: tiles handed to the
    # parent's pool would never run, so the child must start its own
    from rbfbench import operators

    monkeypatch.setattr(operators, "CORES", 2)
    X = np.random.default_rng(3).uniform(-1, 1, (600, 2))
    want = ll_star_matrix(laplace(), _MQ, X, X)  # 15 tiles, shared with the pool
    assert operators._POOL is not None
    child = multiprocessing.get_context("fork").Process(target=_ll_star_in_child, args=(X, want))
    child.start()
    child.join(timeout=20)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung
    assert child.exitcode == 0


@pytest.mark.parametrize("cores", [2, 4, 64])
def test_shared_tiles_in_flight_hold_two_serial_tiles(monkeypatch, cores):
    # k threads take tiles of 2 TILE / k elements, k at most 4: the rows in
    # flight never pass two serial tiles' worth, whatever the core count
    from rbfbench import operators

    X = np.random.default_rng(4).uniform(-1, 1, (300, 2))
    monkeypatch.setattr(operators, "TILE", 400)
    monkeypatch.setattr(operators, "CORES", cores)
    tiles = _count_tiles(monkeypatch)
    ll_star_matrix(laplace(), _MQ, X, X[:100])
    k = min(cores, 4)
    assert max(tiles) == 8 // k
    assert len(tiles) == -(-300 // (8 // k))


def test_one_row_tiles_keep_the_bits_of_the_normal_velocity_product(monkeypatch):
    # a one-row slice of nx @ v rounds unlike the whole product, so a normal x
    # adjoint block under a velocity takes it once and slices it per tile
    from rbfbench import operators

    rng = np.random.default_rng(5)
    X, Y = rng.uniform(-1, 1, (41, 2)), rng.uniform(-1, 1, (8, 2))
    t = rng.uniform(0, 2 * np.pi, 41)
    rows, cols = [("normal", X, np.column_stack([np.cos(t), np.sin(t)]))], [("adjoint", Y)]
    op, kern = convection_diffusion(0.8, (0.5, -0.4)), build_kernel("mq", c=0.9)
    whole = collocation_matrix(op, kern, rows, cols)
    monkeypatch.setattr(operators, "TILE", 8)  # one row per tile
    assert np.array_equal(collocation_matrix(op, kern, rows, cols), whole)


def test_shared_tiles_survive_frequent_thread_switches(monkeypatch):
    # four threads on fewer cores, handing the interpreter lock over every
    # microsecond: every shared tile still lands in its own rows
    from rbfbench import operators

    X = np.random.default_rng(6).uniform(-1, 1, (600, 2))
    monkeypatch.setattr(operators, "CORES", 1)
    serial = ll_star_matrix(laplace(), _MQ, X, X)
    monkeypatch.setattr(operators, "CORES", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(ll_star_matrix(laplace(), _MQ, X, X), serial)
    finally:
        sys.setswitchinterval(interval)
