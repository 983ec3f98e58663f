import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import fd_operator_2d, nested_normal_fd
from rbfbench.errors import KernelSmoothnessError, ParameterError, SingularityError
from rbfbench.kernels import RadialKernel, build_kernel, higher_order_solution
from rbfbench.operators import (
    OperatorSpec,
    adjoint_image_matrix,
    adjoint_normal_image_matrix,
    adjoint_of,
    apply_radial_operator,
    convection_diffusion,
    helmholtz,
    laplace,
    ll_star_matrix,
    mixed_normal_second_derivative,
    mod_helmholtz,
    normal_derivative,
    operator_source_normal_matrix,
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
    val = apply_radial_operator(laplace(), quadratic_kernel(), (0.7, 0.2), (0.1, -0.3))
    assert val == pytest.approx(4.0, rel=1e-12)


def test_helmholtz_annihilates_its_general_solution():
    op = helmholtz(2.0)
    kern = build_kernel("helmholtz_gs_2d", k=2.0)
    x_s = np.array([0.0, 0.0])
    for x in ([1.0, 0.0], [0.3, 0.4], [1.5, -2.0]):
        assert abs(apply_radial_operator(op, kern, x, x_s)) < 1e-11


def test_mod_helmholtz_annihilates_bessel_i():
    op = mod_helmholtz(1.5)
    kern = build_kernel("mod_helmholtz_gs_2d", k=1.5)
    assert abs(apply_radial_operator(op, kern, (0.8, 0.1), (0.0, 0.0))) < 1e-11


def test_laplacian_limit_at_origin():
    kern = build_kernel("gaussian", c=1.0)
    val = apply_radial_operator(laplace(), kern, (0.3, 0.3), (0.3, 0.3))
    assert val == pytest.approx(-4.0)  # 2 * phi''(0)


def test_singular_kernel_at_coincident_points_raises():
    kern = build_kernel("laplace_fs_2d")
    with pytest.raises(SingularityError):
        apply_radial_operator(laplace(), kern, (0.5, 0.5), (0.5, 0.5))


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
        got = apply_radial_operator(op, kern, x, x_s)
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
    val = normal_derivative(kern, (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), side="field")
    assert val == pytest.approx(2.0)
    val_s = normal_derivative(kern, (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), side="source")
    assert val_s == pytest.approx(-2.0)
    # direction orthogonal to the separation contributes nothing
    ortho = normal_derivative(build_kernel("gaussian", c=1.0), (1.0, 0.0), (0.0, 0.0), (0.0, 1.0))
    assert ortho == 0.0


def test_normal_derivative_zero_separation_raises():
    with pytest.raises(SingularityError):
        normal_derivative(quadratic_kernel(), (1.0, 1.0), (1.0, 1.0), (1.0, 0.0))
    with pytest.raises(SingularityError):
        mixed_normal_second_derivative(
            quadratic_kernel(), (1.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)
        )


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
    f = normal_derivative(kern, x, x_s, n, side="field")
    s = normal_derivative(kern, x, x_s, n, side="source")
    assert s == -f  # exact negation, not approximate


def test_mixed_derivative_examples():
    kern = quadratic_kernel()
    val = mixed_normal_second_derivative(kern, (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0))
    assert val == pytest.approx(-2.0)
    val = mixed_normal_second_derivative(kern, (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert val == pytest.approx(0.0, abs=1e-14)


def test_mixed_derivative_matches_nested_differences():
    kern = build_kernel("gaussian", c=1.0)
    x, x_s = (0.5, 0.0), (0.0, 0.0)
    n_x = np.array([1.0, 0.0])
    for n_s in ([1.0, 0.0], [0.6, 0.8], [0.0, -1.0]):
        want = nested_normal_fd(kern, x, x_s, n_x, n_s)
        got = mixed_normal_second_derivative(kern, x, x_s, n_x, np.asarray(n_s))
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
    a = mixed_normal_second_derivative(kern, x, y, n_x, n_y)
    b = mixed_normal_second_derivative(kern, y, x, n_y, n_x)
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
        return adjoint_image_matrix(op, kern, np.atleast_2d(p), y)[:, 0]

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


def test_ll_star_coincident_limit():
    # for the Gaussian with c=1: bilaplacian limit 8/3 * phi''''(0) = 32
    kern = build_kernel("gaussian", c=1.0)
    val = ll_star_matrix(laplace(), kern, np.zeros((1, 2)), np.zeros((1, 2)))[0, 0]
    assert val == pytest.approx(32.0)


def test_normal_of_adjoint_image_matches_differences():
    op = convection_diffusion(0.9, (0.3, 0.2))
    kern = build_kernel("mq", c=1.0)
    y = np.array([[0.1, -0.1]])
    x = np.array([0.6, 0.4])
    n = np.array([0.8, 0.6])

    def adjoint_field(p):
        return adjoint_image_matrix(op, kern, np.atleast_2d(p), y)[0, 0]

    h = 1e-5
    want = (adjoint_field(x + h * n) - adjoint_field(x - h * n)) / (2 * h)
    got = adjoint_normal_image_matrix(op, kern, x[None, :], y, n[None, :])[0, 0]
    assert got == pytest.approx(want, rel=1e-5)


def test_operator_of_source_normal_basis_matches_differences():
    op = helmholtz(1.5)
    kern = build_kernel("imq", c=1.0)
    y = np.array([0.1, -0.1])
    n_s = np.array([0.0, 1.0])
    x = np.array([0.6, 0.4])

    def basis(p):
        from rbfbench.operators import source_normal_matrix

        return source_normal_matrix(kern, np.atleast_2d(p), y[None, :], n_s[None, :])[:, 0]

    # five-point stencil applied to the basis function directly
    h = 1e-4
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    lap = (basis(x + ex) + basis(x - ex) + basis(x + ey) + basis(x - ey) - 4 * basis(x))[0] / (h * h)
    want = lap + op.reaction * basis(x)[0]
    got = operator_source_normal_matrix(op, kern, x[None, :], y[None, :], n_s[None, :])[0, 0]
    assert got == pytest.approx(want, rel=1e-4)


def test_fourth_order_schemes_reject_rough_kernels():
    op = laplace()
    pts = np.zeros((1, 2))
    with pytest.raises(KernelSmoothnessError):
        ll_star_matrix(op, build_kernel("tps"), pts, pts)
    with pytest.raises(KernelSmoothnessError):
        ll_star_matrix(op, build_kernel("exp_decay", omega=1.0), pts, pts)


# ---------------------------------------------------------------------------
# one collocation-matrix builder
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "rbfbench"

BLOCK_BUILDERS = (
    "field_normal_matrix",
    "source_normal_matrix",
    "mixed_normal_matrix",
    "operator_image_matrix",
    "adjoint_image_matrix",
    "operator_source_normal_matrix",
    "adjoint_normal_image_matrix",
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


def test_collocation_matrix_stacks_the_block_builders():
    from rbfbench.operators import (
        collocation_matrix,
        field_normal_matrix,
        kernel_value_matrix,
        mixed_normal_matrix,
        operator_image_matrix,
        source_normal_matrix,
    )

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
    assert np.array_equal(A[5:7, 4:9], source_normal_matrix(kern, X[:2], X, n))
    assert np.array_equal(A[7:, :4], field_normal_matrix(kern, X, Y, n))
    assert np.array_equal(A[7:, 4:9], mixed_normal_matrix(kern, X, X, n, n))
    assert np.array_equal(A[5:7, 9:], adjoint_image_matrix(op, kern, X[:2], Y))
    assert np.array_equal(A[:5, 9:], ll_star_matrix(op, kern, X, Y))
    assert np.array_equal(A[7:, 9:], adjoint_normal_image_matrix(op, kern, X, Y, n))
    assert np.array_equal(A[:5, 4:9], operator_source_normal_matrix(op, kern, X, X, n))
    assert np.array_equal(A[5:7, :4], kernel_value_matrix(kern, X[:2], Y))


@pytest.mark.parametrize(
    "kern",
    [build_kernel("gaussian", c=0.9), higher_order_solution(helmholtz(1.3), 2)],
    ids=["gaussian", "helmholtz_chain_2"],
)
def test_transposed_blocks_match_single_block_builds(kern):
    # the second of two transposed blocks reads the first one's kernel
    # derivatives; it must equal the block built on its own, bit for bit
    from rbfbench.operators import (
        collocation_matrix,
        field_normal_matrix,
        kernel_value_matrix,
        mixed_normal_matrix,
        source_normal_matrix,
    )

    rng = np.random.default_rng(5)
    X, Y = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (4, 2))
    theta = rng.uniform(0, 2 * np.pi, 4)
    n = np.column_stack([np.cos(theta), np.sin(theta)])
    groups = [("value", X), ("normal", Y, n)]
    A = collocation_matrix(None, kern, groups, groups)
    assert np.array_equal(A[:6, :6], kernel_value_matrix(kern, X, X))
    assert np.array_equal(A[:6, 6:], source_normal_matrix(kern, X, Y, n))
    assert np.array_equal(A[6:, :6], field_normal_matrix(kern, Y, X, n))
    assert np.array_equal(A[6:, 6:], mixed_normal_matrix(kern, Y, Y, n, n))


def test_collocation_matrix_rejects_unknown_groups():
    from rbfbench.operators import collocation_matrix

    kern = build_kernel("mq", c=1.0)
    pts = np.zeros((1, 2))
    with pytest.raises(ValueError):
        collocation_matrix(None, kern, [("adjoint", pts)], [("value", pts)])
    with pytest.raises(ValueError):
        collocation_matrix(None, kern, [("normal", pts)], [("value", pts)])
