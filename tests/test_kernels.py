import inspect
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from conftest import central_d1, radial_fd_laplacian
from rbfbench.errors import ParameterError, SingularityError, UnsupportedError
from rbfbench.kernels import (
    _FAMILIES,
    _SERIES_CUTOVER,
    CATALOG,
    MAX_CHAIN_ORDER,
    _bessel_table,
    augment_r2m,
    build_kernel,
    check_regulation,
    default_shape_parameter,
    derivs_upto_many,
    higher_order_solution,
    probe_singular_at_origin,
    shape_substitute,
)
from rbfbench.operators import helmholtz, laplace, ll_star_matrix

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src" / "rbfbench"

#: one representative parameterization per catalog family
KERNELS = {
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


def _kernel(family):
    return build_kernel(family, **KERNELS[family])


# ---------------------------------------------------------------------------
# catalog values and derivative consistency
# ---------------------------------------------------------------------------


def test_catalog_complete():
    assert set(KERNELS) == set(CATALOG)


@pytest.mark.parametrize("family", CATALOG)
def test_derivatives_match_finite_differences(family):
    # first derivative against differences of values, second against
    # differences of the first: keeps every quotient well-conditioned
    kern = _kernel(family)
    for r in (0.1, 0.5, 1.0, 2.0, 5.0):
        fd1 = central_d1(kern.phi, r, h=1e-6)
        assert kern.d1(r) == pytest.approx(fd1, rel=1e-5, abs=1e-10)
        fd2 = central_d1(kern.d1, r, h=1e-6)
        assert kern.d2(r) == pytest.approx(fd2, rel=1e-5, abs=1e-10)


#: the families whose generators yield orders 3 and 4
FOURTH_ORDER_FAMILIES = ("mq", "imq", "gaussian", "helmholtz_gs_2d")

#: every kernel of top order 4: those families and their shape substitutes
FOURTH_ORDER_KERNELS = [pytest.param(_kernel(f), id=f) for f in FOURTH_ORDER_FAMILIES] + [
    pytest.param(shape_substitute(_kernel(f), 0.5), id=f"{f}+shift")
    for f in FOURTH_ORDER_FAMILIES
]


@pytest.mark.parametrize("kern", FOURTH_ORDER_KERNELS)
def test_higher_derivatives_match_finite_differences(kern):
    assert kern.top_order >= 4
    _, _, d2, d3, d4 = kern.derivs
    for r in (0.1, 0.5, 1.0, 2.0):
        assert d3(r) == pytest.approx(central_d1(d2, r, h=1e-6), rel=1e-5, abs=1e-9)
        assert d4(r) == pytest.approx(central_d1(d3, r, h=1e-6), rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("kern", FOURTH_ORDER_KERNELS)
def test_reading_orders_3_and_4_leaves_orders_0_to_2_alone(kern):
    # orders 3 and 4 reuse the arrays of the orders before them; a yielded
    # array must never be written into afterwards
    r = np.concatenate([[0.0], np.logspace(-8, 0, 17), np.linspace(0.0, 4.0, 41)[1:]])
    assert kern.top_order == 4
    upto4, upto2 = kern.derivs_upto(r, 4), kern.derivs_upto(r, 2)
    assert [a.tobytes() for a in upto4[:3]] == [a.tobytes() for a in upto2]


#: an error bound relative to the largest reference value of each row: the
#: 8.405e-10 that power sums in 1/r make on this fixture, rounded down (J0's
#: phi'''' = k^4 J0 - 2 k^3 J1/r - 3 k^2 J0/r^2 + 6 k J1/r^3 at k = 2 and
#: r = 1e-3, whose terms of order 1/r^2 cancel)
FOURTH_ORDER_REFERENCE_BOUND = 8.4e-10


def _fourth_order_reference() -> dict:
    with open(FIXTURES / "fourth_order_reference.json") as fh:
        return json.load(fh)


def _reference_error(got, want) -> float:
    want = np.asarray(want)
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


def test_fourth_order_derivatives_match_reference_fixture():
    reference = _fourth_order_reference()
    r = np.array(reference["radii"])
    assert set(reference["derivatives"]) == set(FOURTH_ORDER_FAMILIES)
    for family, want in reference["derivatives"].items():
        got = build_kernel(family, **want["params"]).derivs_upto(r, 4)
        for n in (3, 4):
            err = _reference_error(got[n], want[f"d{n}"])
            assert err <= FOURTH_ORDER_REFERENCE_BOUND, f"{family} order {n}: {err:.2e}"


def test_ll_star_matches_reference_fixture():
    # L L* phi of MQ against mpmath's Cartesian (Lap + gamma)^2, the r = 0
    # point through the coincident limit
    fixture = _fourth_order_reference()
    r, reference = np.array(fixture["radii"]), fixture["ll_star_mq"]
    X = np.column_stack([r, np.zeros_like(r)])
    mq = build_kernel("mq", c=reference["c"])
    for name, op in (("laplace", laplace()), ("helmholtz_k2", helmholtz(2.0))):
        got = ll_star_matrix(op, mq, X, np.zeros((1, 2)))[:, 0]
        err = _reference_error(got, reference[name])
        assert err <= FOURTH_ORDER_REFERENCE_BOUND, f"{name}: {err:.2e}"


def test_derivatives_read_only_through_derivs_upto():
    # outside the kernel module every derivative read is one derivs_upto
    # call for all the orders it needs, not one call per order
    pattern = re.compile(r"\.(phi|d[1-4]|deriv)\(")
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "kernels.py" in modules and SRC / "operators.py" in modules
    offenders = [
        f"{path.name}:{lineno}"
        for path in modules
        if path.name != "kernels.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_eval_with_derivatives_triple():
    kern = _kernel("gaussian")
    for r in (0.1, 1.0, 3.0):
        d1, d2 = kern.d1(r), kern.d2(r)
        assert kern.phi(r) == pytest.approx(np.exp(-r * r), rel=1e-14)
        assert d1 == pytest.approx(central_d1(kern.phi, r, h=1e-6), rel=1e-5)
        assert d2 == pytest.approx(central_d1(kern.d1, r, h=1e-6), rel=1e-5)


def test_mq_value_at_origin():
    assert _kernel("mq").phi(0.0) == pytest.approx(1.0)


def test_mq_slope_zero_at_origin():
    assert _kernel("mq").d1(0.0) == 0.0


def test_helmholtz_gs_2d_value_at_origin():
    assert _kernel("helmholtz_gs_2d").phi(0.0) == pytest.approx(1.0)


def test_helmholtz_gs_3d_origin_limits():
    k = 1.5
    kern = build_kernel("helmholtz_gs_3d", k=k)
    assert kern.phi(0.0) == pytest.approx(1.0)
    assert kern.d1(0.0) == 0.0
    assert kern.d2(0.0) == pytest.approx(-k * k / 3.0)


def test_gaussian_second_derivative_at_origin():
    # independent oracle: one-sided parabola fit of the even profile
    kern = _kernel("gaussian")
    h = 1e-6
    fd = 2.0 * (kern.phi(h) - kern.phi(0.0)) / (h * h)
    assert fd == pytest.approx(-2.0, rel=1e-4)
    assert kern.d2(0.0) == pytest.approx(-2.0)


def test_tps_value_and_slope():
    kern = _kernel("tps")
    assert kern.phi(1.0) == 0.0
    assert kern.phi(0.0) == 0.0
    assert kern.d1(0.0) == 0.0


def test_singular_kernel_refuses_origin():
    kern = _kernel("laplace_fs_3d")
    for fn in (kern.phi, kern.d1, kern.d2):
        with pytest.raises(SingularityError):
            fn(0.0)


def test_values_finite_on_validated_range():
    rs = np.logspace(-9, 3, 40)
    for family in CATALOG:
        kern = _kernel(family)
        for order in (0, 1, 2):
            vals = kern.deriv(rs, order)
            assert np.all(np.isfinite(vals)), f"{family} order {order}"


def test_parameter_validation():
    with pytest.raises(ParameterError):
        build_kernel("mq", c=-1.0)
    with pytest.raises(ParameterError):
        build_kernel("helmholtz_gs_2d", k=0.0)
    with pytest.raises(ParameterError):
        build_kernel("exp_decay", omega=-2.0)
    with pytest.raises(ParameterError):
        build_kernel("gaussian", c=0.0)
    with pytest.raises(ParameterError):
        build_kernel("mqq")
    with pytest.raises(ParameterError, match="takes no parameter 'k'"):
        build_kernel("gaussian", c=0.5, k=3.0)
    with pytest.raises(ParameterError, match="needs parameter c"):
        build_kernel("mq")


def test_family_factories_take_their_declared_parameters():
    # the family table's parameter ranges name exactly the factory's keywords
    for family, (make, _, _, params) in _FAMILIES.items():
        assert list(inspect.signature(make).parameters) == list(params), family


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "family, param",
    [
        ("mq", "c"),
        ("imq", "c"),
        ("gaussian", "c"),
        ("exp_decay", "omega"),
        ("helmholtz_gs_2d", "k"),
        ("helmholtz_gs_3d", "k"),
        ("helmholtz_fs_2d", "k"),
        ("mod_helmholtz_gs_2d", "k"),
    ],
)
def test_non_finite_parameter_rejected(family, param, bad):
    with pytest.raises(ParameterError, match="finite"):
        build_kernel(family, **{param: bad})


def test_singular_flag_matches_sampling_probe():
    for family in CATALOG:
        kern = _kernel(family)
        assert probe_singular_at_origin(kern.derivs[0]) == kern.singular_at_origin, family


# ---------------------------------------------------------------------------
# construction operators
# ---------------------------------------------------------------------------


def test_substitute_laplace_1d_is_half_mq():
    base = _kernel("laplace_fs_1d")
    sub = shape_substitute(base, 1.0)
    mq = _kernel("mq")
    rs = np.linspace(0.0, 4.0, 30)
    assert np.allclose(sub.phi(rs), 0.5 * mq.phi(rs), rtol=1e-14)


def test_substitute_laplace_3d_is_scaled_imq():
    base = _kernel("laplace_fs_3d")
    sub = shape_substitute(base, 1.0)
    imq = _kernel("imq")
    rs = np.linspace(0.0, 4.0, 30)
    assert np.allclose(sub.phi(rs), imq.phi(rs) / (4.0 * np.pi), rtol=1e-14)


def test_substitute_zero_shift_is_identity():
    base = _kernel("gaussian")
    sub = shape_substitute(base, 0.0)
    rs = np.linspace(0.05, 3.0, 20)
    assert np.array_equal(sub.phi(rs), base.phi(rs))


def test_substitute_derivative_consistency():
    sub = shape_substitute(_kernel("laplace_fs_2d"), 0.7)
    assert not sub.singular_at_origin
    assert sub.d1(0.0) == 0.0
    for r in (0.3, 1.0, 2.5):
        assert sub.d1(r) == pytest.approx(central_d1(sub.phi, r, h=1e-6), rel=1e-5, abs=1e-9)
        assert sub.d2(r) == pytest.approx(central_d1(sub.d1, r, h=1e-6), rel=1e-5, abs=1e-9)


def test_substitute_regularizes_singular_base():
    for family in ("laplace_fs_2d", "laplace_fs_3d", "helmholtz_fs_2d"):
        sub = shape_substitute(_kernel(family), 0.5)
        assert check_regulation(sub)


def test_substitute_rejects_negative_shift():
    with pytest.raises(ParameterError):
        shape_substitute(_kernel("mq"), -0.1)


@pytest.mark.parametrize("family", CATALOG)
@pytest.mark.parametrize("c", [0.1, 0.5, 2.0])
def test_substitute_always_passes_regulation(family, c):
    # every catalog profile has a bounded derivative away from the
    # origin, so any positive shift must yield a regulated kernel
    assert check_regulation(shape_substitute(_kernel(family), c))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: shape_substitute(_kernel("mq"), float("nan")), id="shift-c=nan"),
        pytest.param(lambda: shape_substitute(_kernel("mq"), float("inf")), id="shift-c=inf"),
        pytest.param(lambda: augment_r2m(_kernel("mq"), 1.5), id="augment-m=1.5"),
        pytest.param(lambda: augment_r2m(_kernel("mq"), True), id="augment-m=True"),
        pytest.param(lambda: build_kernel("mq", c=True), id="mq-c=True"),
        pytest.param(lambda: build_kernel("imq", c=np.True_), id="imq-c=np.True_"),
    ],
)
def test_kernel_parameters_out_of_range_rejected(make):
    with pytest.raises(ParameterError):
        make()


def test_augmented_laplace_2d_is_scaled_tps():
    aug = augment_r2m(_kernel("laplace_fs_2d"), 1)
    tps = _kernel("tps")
    rs = np.linspace(0.05, 3.0, 25)
    assert np.allclose(aug.phi(rs), -tps.phi(rs) / (2.0 * np.pi), rtol=1e-13)
    assert aug.phi(0.0) == 0.0


def test_augment_zero_order_is_identity():
    base = _kernel("laplace_fs_3d")
    aug = augment_r2m(base, 0)
    rs = np.linspace(0.1, 3.0, 17)
    assert np.array_equal(aug.phi(rs), base.phi(rs))


def test_augmentation_fixes_regulation():
    base = _kernel("laplace_fs_2d")
    assert not check_regulation(base)
    assert check_regulation(augment_r2m(base, 1))


def test_augmented_derivative_consistency():
    aug = augment_r2m(_kernel("laplace_fs_3d"), 1)
    for r in (0.2, 0.8, 2.0):
        assert aug.d1(r) == pytest.approx(central_d1(aug.phi, r, h=1e-6), rel=1e-5)
        assert aug.d2(r) == pytest.approx(central_d1(aug.d1, r, h=1e-6), rel=1e-5)


# ---------------------------------------------------------------------------
# higher-order solution chains
# ---------------------------------------------------------------------------


def test_chain_order_zero_is_catalog_base():
    k0 = higher_order_solution(helmholtz(2.0), 0)
    assert k0.family == "helmholtz_gs_2d"
    l0 = higher_order_solution(laplace(), 0)
    assert l0.family == "laplace_fs_2d"


def test_helmholtz_chain_first_order_closed_form():
    k = 2.0
    k1 = higher_order_solution(helmholtz(k), 1)
    rs = np.linspace(0.0, 3.0, 20)
    assert np.allclose(k1.phi(rs), rs * special.j1(k * rs) / (2.0 * k), atol=1e-14)


def test_laplace_chain_first_order_constants():
    # ansatz r^2 (a ln r + b): the recursion oracle fixes a = -1/(8 pi)
    # and b = +1/(8 pi); recovered here by solving the 2x2 system the
    # radial Laplacian formula implies at two radii
    A = np.array([[4 * np.log(0.5) + 4, 4.0], [4 * np.log(2.0) + 4, 4.0]])
    rhs = np.array([-np.log(0.5) / (2 * np.pi), -np.log(2.0) / (2 * np.pi)])
    a, b = np.linalg.solve(A, rhs)
    assert a == pytest.approx(-1.0 / (8 * np.pi), rel=1e-12)
    assert b == pytest.approx(1.0 / (8 * np.pi), rel=1e-12)
    k1 = higher_order_solution(laplace(), 1)
    for r in (0.3, 1.7):
        assert k1.phi(r) == pytest.approx(r * r * (a * np.log(r) + b), rel=1e-12)


@pytest.mark.parametrize("op", [helmholtz(1.3), laplace()])
def test_chain_recursion_property(op):
    # independent oracle: radial finite-difference Laplacian of values only
    chain = [higher_order_solution(op, m) for m in range(5)]
    radii = (0.3, 1.0, 2.5)
    for m in range(1, 5):
        scale = max(abs(chain[m - 1].phi(r)) for r in radii)
        for r in radii:
            image = radial_fd_laplacian(chain[m].phi, r) + op.reaction * chain[m].phi(r)
            assert abs(image - chain[m - 1].phi(r)) / scale < 1e-5


def test_chain_derivative_consistency():
    for m in (1, 2, 3, 4):
        kern = higher_order_solution(helmholtz(1.3), m)
        for r in (0.3, 1.0, 2.5):
            assert kern.d1(r) == pytest.approx(central_d1(kern.phi, r, h=1e-6), rel=1e-5, abs=1e-10)
            assert kern.d2(r) == pytest.approx(central_d1(kern.d1, r, h=1e-6), rel=1e-5, abs=1e-10)


def test_chain_rejects_unsupported():
    with pytest.raises(UnsupportedError):
        higher_order_solution(helmholtz(1.0), 5)
    with pytest.raises(UnsupportedError):
        higher_order_solution(helmholtz(1.0), -1)
    from rbfbench.operators import convection_diffusion

    with pytest.raises(UnsupportedError):
        higher_order_solution(convection_diffusion(1.0, (1.0, 0.0)), 1)


# ---------------------------------------------------------------------------
# regulation condition and defaults
# ---------------------------------------------------------------------------

REGULATION_PASS = (
    "mq",
    "imq",
    "gaussian",
    "tps",
    "exp_decay",
    "helmholtz_gs_2d",
    "helmholtz_gs_3d",
)
REGULATION_FAIL = ("laplace_fs_2d", "laplace_fs_3d", "helmholtz_fs_2d")


@pytest.mark.parametrize("family", REGULATION_PASS)
def test_regulation_passes(family):
    assert check_regulation(_kernel(family))


@pytest.mark.parametrize("family", REGULATION_FAIL)
def test_regulation_fails(family):
    assert not check_regulation(_kernel(family))


def test_default_shape_parameter_rule():
    xs = np.linspace(0, 1, 5)
    pts = np.column_stack([np.repeat(xs, 5), np.tile(xs, 5)])
    assert default_shape_parameter(pts) == pytest.approx(0.5)  # 2 x grid spacing


# ---------------------------------------------------------------------------
# special-function accuracy against frozen high-precision references
# ---------------------------------------------------------------------------

_SCIPY_FUNCS = {
    "j0": special.j0,
    "j1": special.j1,
    "y0": special.y0,
    "y1": special.y1,
    "i0": special.i0,
    "i1": special.i1,
    "j2": lambda x: special.jv(2, x),
    "j3": lambda x: special.jv(3, x),
    "j4": lambda x: special.jv(4, x),
}


def test_bessel_routines_match_reference_fixture():
    # absolute tolerance for the bounded oscillatory functions; relative
    # for the exponentially growing modified ones, where an absolute
    # target is unrepresentable in doubles
    with open(FIXTURES / "bessel_reference.json") as fh:
        reference = json.load(fh)
    for name, pairs in reference.items():
        fn = _SCIPY_FUNCS[name]
        for x, want in pairs:
            if name in ("i0", "i1"):
                assert abs(fn(x) - want) <= 1e-12 * max(1.0, abs(want)), f"{name}({x})"
            else:
                assert abs(fn(x) - want) <= 1e-10, f"{name}({x})"


def test_bessel_table_matches_reference_fixture():
    with open(FIXTURES / "bessel_reference.json") as fh:
        reference = json.load(fh)
    for n in range(5):
        pairs = np.array(reference[f"j{n}"])
        got = _bessel_table(pairs[:, 0], 4)[n]
        for x, want, value in zip(pairs[:, 0], pairs[:, 1], got):
            err = abs(value - want)
            assert err <= 1e-15 * max(1.0, abs(want)), f"j{n}({x})"
            assert err <= 1e-13 * abs(want), f"j{n}({x})"


def test_bessel_table_prefix_is_the_shorter_table():
    # the members of one chain share the table of their highest order, so
    # orders 0..m of any longer table must be the bits of the order-m table
    x = np.concatenate(
        [
            [0.0, 1e-8],
            np.linspace(0.1, 1.9, 10),
            [np.nextafter(_SERIES_CUTOVER, 0.0), _SERIES_CUTOVER],
            np.linspace(2.1, 40.0, 12),
        ]
    )
    for M in range(MAX_CHAIN_ORDER + 1):
        longer = _bessel_table(x, M)
        for m in range(M + 1):
            shorter = _bessel_table(x, m)
            assert len(shorter) == m + 1
            for n, (a, b) in enumerate(zip(longer[: m + 1], shorter)):
                assert np.array_equal(a, b), f"J_{n} of the order-{M} and order-{m} tables"


def _two_formula_table(x, m):
    # both formulas on every argument, the series copied in below the cutover
    table = [special.j0(x), special.j1(x)]
    small = x < _SERIES_CUTOVER
    half = 0.5 * x[small]
    t = -half * half
    two_over_x = 2.0 / np.maximum(x, _SERIES_CUTOVER)
    for n in range(2, m + 1):
        jn = (n - 1) * two_over_x * table[n - 1] - table[n - 2]
        coeffs = [1.0 / (math.factorial(j) * math.factorial(n + j)) for j in range(14)]
        acc = np.full_like(t, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc *= t
            acc += c
        jn[small] = half**n * acc
        table.append(jn)
    return table


@pytest.mark.parametrize("where", ["small", "large", "mixed", "empty"])
def test_bessel_table_matches_the_two_formulas_bitwise(where):
    # a table whose arguments all take one formula skips the other
    rng = np.random.default_rng(11)
    edges = [0.0, 1e-8, np.nextafter(_SERIES_CUTOVER, 0.0)]
    small = np.concatenate([edges, rng.uniform(0.0, _SERIES_CUTOVER, 300)])
    large = np.concatenate([[_SERIES_CUTOVER, 40.0], rng.uniform(2.0, 40.0, 300)])
    x = {
        "small": small,
        "large": large,
        "mixed": rng.permutation(np.concatenate([small, large])),
        "empty": np.empty(0),
    }[where]
    for m in range(MAX_CHAIN_ORDER + 1):
        got = _bessel_table(x, m)
        assert len(got) == m + 1
        for n, (a, b) in enumerate(zip(got, _two_formula_table(x, m))):
            assert np.array_equal(a, b), f"J_{n} of the order-{m} table"


def test_derivs_upto_many_matches_each_generator_bitwise():
    # two Helmholtz chains (orders out of order), a Laplace chain kernel and
    # catalog kernels in one pass; each must read as its own generator
    kernels = (
        [build_kernel("helmholtz_gs_2d", k=2.0)]
        + [higher_order_solution(helmholtz(k), m) for k in (2.0, 0.5) for m in (3, 1, 4)]
        + [higher_order_solution(laplace(), 2), build_kernel("mq", c=0.7)]
    )
    r = np.concatenate([[0.0], np.linspace(1e-3, 3.0, 50)])
    for n in range(3):
        for kern, many in zip(kernels, derivs_upto_many(kernels, r, n)):
            own = tuple(itertools.islice(kern.radial(r), n + 1))
            assert len(many) == n + 1
            assert all(np.array_equal(a, b) for a, b in zip(many, own)), kern.name
    assert derivs_upto_many(kernels, 0.0, 2) == [kern.derivs_upto(0.0, 2) for kern in kernels]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
def test_chain_kernels_match_jv_formula(m, k):
    # oracle: the chain's closed form through scipy's arbitrary-order jv
    r = np.concatenate([[0.0], np.logspace(-8, 0, 33), np.linspace(0.0, 4.0 / k, 401)[1:]])
    a = 1.0 / ((2.0 * k) ** m * math.factorial(m))
    want = (
        a * r**m * special.jv(m, k * r),
        a * k * r**m * special.jv(m - 1, k * r),
        a * (k * r ** (m - 1) * special.jv(m - 1, k * r) + k * k * r**m * special.jv(m - 2, k * r)),
    )
    want[2][0] = a * k if m == 1 else 0.0
    got = higher_order_solution(helmholtz(k), m).derivs_upto(r, 2)
    for order, (g, w) in enumerate(zip(got, want)):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), f"order {order}"


def test_no_arbitrary_order_bessel_in_library():
    # scipy's jv costs tens of times j0/j1 per element; the chain kernels
    # build their orders from j0/j1 (kernels._bessel_table)
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "kernels.py" in modules
    offenders = [
        f"{path.name}:{lineno}"
        for path in modules
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"special\.jv\(", line)
    ]
    assert offenders == []
