"""Radial kernel catalog and kernel-construction operators.

A kernel is a radial profile phi(r) bundled with analytically coded
radial derivatives. The catalog covers generic RBFs (MQ, inverse MQ,
Gaussian, thin plate spline, exponential decay), fundamental solutions
of the Laplacian in 1/2/3 dimensions, and nonsingular general solutions
of the Helmholtz and modified Helmholtz operators. On top of the
catalog sit three construction operators: r^(2m) augmentation,
higher-order homogeneous solutions of an operator, and the shape
substitution r -> sqrt(r^2 + c^2).

Each family is one derivative generator: called on an array of radii,
it yields phi, phi', phi'', ... in turn, up to the family's top order,
and computes the subexpressions the orders share (the MQ square root,
the Gaussian exponential, the Bessel values) once per call. Orders past
the last one read are never evaluated. `derivs_upto_many` evaluates a
list of kernels at the same radii; the members of one Helmholtz chain
there share one Bessel table J_0 ... J_M.

Sign and scaling conventions (e.g. -ln(r)/(2*pi) for the 2D Laplace
fundamental solution, Y0(k r)/4 for 2D Helmholtz) are fixed once here;
expansion coefficients absorb any constant, so the choice only matters
for test determinism.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Iterator

import numpy as np
from scipy import special

from .errors import ParameterError, SingularityError, UnsupportedError

#: a derivative generator: radii r >= 0 -> phi(r), phi'(r), ... in turn
_Radial = Callable[[np.ndarray], Iterator[np.ndarray]]


@dataclass(frozen=True)
class RadialKernel:
    """Immutable radial kernel with analytic derivatives.

    `radial` is the family's derivative generator and `top_order` the
    highest radial derivative it yields (4 for families that support
    fourth-order schemes, 2 otherwise). The generator patches the r == 0
    limit where one exists; singular kernels refuse evaluation at r == 0.
    """

    family: str
    singular_at_origin: bool
    radial: _Radial = field(repr=False, compare=False)
    c: float = 0.0
    k: float = 0.0
    omega: float = 0.0
    m: int = 0
    order: int = 0
    label: str = ""
    top_order: int = 2

    def derivs_upto(self, r, n: int) -> tuple:
        """(phi, phi', ..., n-th radial derivative) at r >= 0, from one generator pass:
        floats for scalar r, arrays for array r."""
        return derivs_upto_many([self], r, n)[0]

    def deriv(self, r, order: int = 0):
        return self.derivs_upto(r, order)[order]

    def phi(self, r):
        return self.deriv(r, 0)

    def d1(self, r):
        return self.deriv(r, 1)

    def d2(self, r):
        return self.deriv(r, 2)

    @property
    def derivs(self) -> tuple:
        """(phi, phi', ..., phi'''') as per-order callables; None above the top order."""
        return tuple(
            partial(self.deriv, order=o) if o <= self.top_order else None for o in range(5)
        )

    @property
    def name(self) -> str:
        return self.label or self.family


def derivs_upto_many(kernels, r, n: int) -> list:
    """`[kernel.derivs_upto(r, n) for kernel in kernels]`, bit for bit, in one pass.

    The members of one Helmholtz chain (one k) read one Bessel table J_0 ...
    J_M, M their highest order, whose orders `_bessel_table` computes the
    same way whatever M is; every other kernel runs its own generator.
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if (arr < 0).any():
        raise ValueError("radial distance must be nonnegative")
    tables = {}  # Helmholtz chain wavenumber -> highest order, then its table
    for kern in kernels:
        if not 0 <= n <= kern.top_order:
            raise UnsupportedError(f"kernel {kern.name} has no order-{n} radial derivative")
        if kern.singular_at_origin and (arr == 0.0).any():
            raise SingularityError(f"kernel {kern.name} is singular at r = 0")
        if kern.family == "higher_order" and kern.k > 0:  # the Laplace chain has k = 0
            tables[kern.k] = max(tables.get(kern.k, 0), kern.order)
    if tables:
        nz = arr > 0.0
        q = arr[nz]
        tables = {k: _bessel_table(k * q, m) for k, m in tables.items()}
    out = []
    for kern in kernels:
        if kern.family == "higher_order" and kern.k in tables:
            gen = _chain_derivs(kern.k, kern.order, nz, q, tables[kern.k])
        else:
            gen = kern.radial(arr)
        vals = tuple(islice(gen, n + 1))
        out.append(tuple(float(v[0]) for v in vals) if scalar else vals)
    return out


def _piecewise(mask: np.ndarray, inside, outside) -> np.ndarray:
    """`inside` where mask holds, `outside` (an array or a constant) elsewhere.

    Patches the r == 0 limit as `_piecewise(r > 0, values, limit)`, the
    formula having been evaluated on the positive radii only.
    """
    out = np.empty(mask.shape)
    out[mask] = inside
    out[~mask] = outside
    return out


# ---------------------------------------------------------------------------
# catalog families
# ---------------------------------------------------------------------------


def _mq(c: float) -> _Radial:
    c2 = c * c

    def radial(r):
        s = np.sqrt(r * r + c2)
        yield s
        yield r / s
        sp = s**3
        yield c2 / sp
        # -3 c^2 r/s^5 and 3 c^2 (4 r^2 - c^2)/s^7, the powers of s taken from s^3; in place,
        # since MKM reads these orders in every tile of its largest block, and each fresh
        # temporary there costs a pass over new memory
        sp *= s
        sp *= s
        d3 = r * (-3.0 * c2)
        d3 /= sp
        yield d3
        sp *= s
        sp *= s
        d4 = r * r
        d4 *= 12.0 * c2
        d4 -= 3.0 * c2 * c2
        d4 /= sp
        yield d4

    return radial


def _imq(c: float) -> _Radial:
    c2 = c * c

    def radial(r):
        s = np.sqrt(r * r + c2)
        yield 1.0 / s
        yield -r / s**3
        s5 = s**5
        yield (2.0 * r * r - c2) / s5
        rr, s7 = r * r, s5 * s * s
        yield (9.0 * c2 - 6.0 * rr) * r / s7
        # 9/s^5 - 90 r^2/s^7 + 105 r^4/s^9 with s^2 = r^2 + c^2
        yield ((24.0 * rr - 72.0 * c2) * rr + 9.0 * c2 * c2) / (s7 * s * s)

    return radial


def _gaussian(c: float) -> _Radial:
    a = 1.0 / (c * c)

    def radial(r):
        e = np.exp(-a * r * r)
        yield e
        yield -2.0 * a * r * e
        yield (-2.0 * a + 4.0 * a * a * r * r) * e
        rr = r * r
        yield (12.0 * a * a - 8.0 * a**3 * rr) * r * e
        yield ((16.0 * a**4 * rr - 48.0 * a**3) * rr + 12.0 * a * a) * e

    return radial


def _tps() -> _Radial:
    # phi'' has no finite limit at the origin; the r == 0 value is a
    # bookkeeping convention and must not feed operator evaluations there.
    def radial(r):
        nz = r > 0.0
        q = r[nz]
        log = np.log(q)
        yield _piecewise(nz, q * q * log, 0.0)
        yield _piecewise(nz, 2.0 * q * log + q, 0.0)
        yield _piecewise(nz, 2.0 * log + 3.0, 0.0)

    return radial


def _exp_decay(omega: float) -> _Radial:
    def radial(r):
        e = np.exp(-omega * r)
        yield e
        yield -omega * e
        yield omega * omega * e

    return radial


def _laplace_fs_1d() -> _Radial:
    def radial(r):
        yield 0.5 * r
        yield np.full(r.shape, 0.5)
        yield np.zeros(r.shape)

    return radial


_INV_2PI = 1.0 / (2.0 * np.pi)
_INV_4PI = 1.0 / (4.0 * np.pi)


def _laplace_fs_2d() -> _Radial:
    def radial(r):
        yield -np.log(r) * _INV_2PI
        yield -_INV_2PI / r
        yield _INV_2PI / (r * r)

    return radial


def _laplace_fs_3d() -> _Radial:
    def radial(r):
        yield _INV_4PI / r
        yield -_INV_4PI / (r * r)
        yield 2.0 * _INV_4PI / r**3

    return radial


def _helmholtz_gs_2d(k: float) -> _Radial:
    # J0(k r); derivatives via J0' = -J1 and J1'(x) = J0(x) - J1(x)/x. Orders 3 and 4 from
    # J_n' = (J_(n-1) - J_(n+1))/2 and the recurrence (DLMF 10.6.1): J0''' = J1 - x u and
    # J0'''' = (3 - x^2) u with u = J2(x)/x^2 (1/8 at x = 0), J2 from the series of
    # `_bessel_table` near 0, so that neither cancels there
    def radial(r):
        x = k * r
        j0 = special.j0(x)
        yield j0
        j1 = special.j1(x)
        yield -k * j1
        nz = r > 0.0
        q = r[nz]
        yield _piecewise(nz, -k * k * j0[nz] + k * j1[nz] / q, -0.5 * k * k)
        j2, xq = _bessel_orders(x, [j0, j1], 2)[2], x[nz]
        u = _piecewise(nz, j2[nz] / (xq * xq), 0.125)
        yield k**3 * (j1 - x * u)
        yield k**4 * (3.0 - x * x) * u

    return radial


def _helmholtz_gs_3d(k: float) -> _Radial:
    # sin(x)/x with x = k r; Taylor branch below x = 1e-3 avoids the
    # catastrophic cancellation of (x cos x - sin x) at tiny arguments.
    def radial(r):
        x = k * r
        small = x < 1e-3
        t, q = x[small], x[~small]
        sin = np.sin(q)
        yield _piecewise(small, 1.0 - t * t / 6.0 + t**4 / 120.0, sin / q)
        cos = np.cos(q)
        yield k * _piecewise(
            small, -t / 3.0 + t**3 / 30.0 - t**5 / 840.0, (q * cos - sin) / (q * q)
        )
        yield k * k * _piecewise(
            small,
            -1.0 / 3.0 + t * t / 10.0 - t**4 / 168.0,
            ((2.0 - q * q) * sin - 2.0 * q * cos) / q**3,
        )

    return radial


def _helmholtz_fs_2d(k: float) -> _Radial:
    def radial(r):
        y0 = special.y0(k * r)
        yield 0.25 * y0
        y1 = special.y1(k * r)
        yield -0.25 * k * y1
        yield -0.25 * k * k * y0 + 0.25 * k * y1 / r

    return radial


def _mod_helmholtz_gs_2d(k: float) -> _Radial:
    def radial(r):
        i0 = special.i0(k * r)
        yield i0
        i1 = special.i1(k * r)
        yield k * i1
        nz = r > 0.0
        yield _piecewise(nz, k * k * i0[nz] - k * i1[nz] / r[nz], 0.5 * k * k)

    return radial


#: family -> (derivative generator factory, singular at the origin, top order,
#: named parameters: the factory's keywords, each with its range, a finite
#: number ">= 0" or "> 0")
_FAMILIES = {
    "mq": (_mq, False, 4, {"c": ">= 0"}),
    "imq": (_imq, False, 4, {"c": "> 0"}),
    "gaussian": (_gaussian, False, 4, {"c": "> 0"}),
    "tps": (_tps, False, 2, {}),
    "exp_decay": (_exp_decay, False, 2, {"omega": "> 0"}),
    "laplace_fs_1d": (_laplace_fs_1d, False, 2, {}),
    "laplace_fs_2d": (_laplace_fs_2d, True, 2, {}),
    "laplace_fs_3d": (_laplace_fs_3d, True, 2, {}),
    "helmholtz_gs_2d": (_helmholtz_gs_2d, False, 4, {"k": "> 0"}),
    "helmholtz_gs_3d": (_helmholtz_gs_3d, False, 2, {"k": "> 0"}),
    "helmholtz_fs_2d": (_helmholtz_fs_2d, True, 2, {"k": "> 0"}),
    "mod_helmholtz_gs_2d": (_mod_helmholtz_gs_2d, False, 2, {"k": "> 0"}),
}

#: kernel families constructible by name
CATALOG = tuple(_FAMILIES)

#: named parameters (build_kernel keywords) each family takes, with their ranges
FAMILY_PARAMETERS = {family: entry[3] for family, entry in _FAMILIES.items()}


def check_parameters(family, params: dict) -> dict:
    """`params` as floats, for a catalog `family` that takes each of them,
    each in its range (`check_parameter`); a ParameterError otherwise.
    Parameters the family takes but `params` lacks are not checked."""
    if family not in CATALOG:  # a tuple: an unhashable family is unknown, not a TypeError
        raise ParameterError(f"unknown kernel family {family!r}; known: {', '.join(CATALOG)}")
    allowed = FAMILY_PARAMETERS[family]
    for name in params:
        if name not in allowed:
            raise ParameterError(
                f"kernel {family!r} takes no parameter {name!r}; "
                f"allowed: {', '.join(allowed) or 'none'}"
            )
    return {name: check_parameter(family, name, value) for name, value in params.items()}


def check_parameter(family: str, name: str, value) -> float:
    """`value` as a float if it is a real number (not a bool) in the range of
    `family`'s parameter `name` (shape c, wavenumber k or decay rate omega)
    at which the family's radial derivatives, up to its top order, are
    finite at r = 0 and at r = 2, the largest distance in a benchmark domain
    (Gaussian's 16 a^4 r^4 overflows sooner at larger r). Singular families,
    whose pole is refused where it is evaluated, and MQ at c = 0 (phi = r,
    whose kink the fourth-order schemes refuse) are not probed at r = 0."""
    bound = FAMILY_PARAMETERS[family][name]
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        ok = real and math.isfinite(value) and (value > 0 or (value == 0 and bound == ">= 0"))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ParameterError(
            f"kernel {family!r} parameter {name} must be a finite number {bound}, got {value!r}"
        )
    if not _finite_derivatives(family, float(value)):
        raise ParameterError(
            f"kernel {family!r} parameter {name} = {value!r} gives radial derivatives "
            "that are not finite"
        )
    return float(value)


@lru_cache(maxsize=256)  # a pure probe; harness rows repeat their parameters
def _finite_derivatives(family: str, value: float) -> bool:
    make, singular, _, _ = _FAMILIES[family]
    radii = (2.0,) if singular or value == 0 else (0.0, 2.0)
    # an overflow on the way can end in a finite but wrong value (MQ at
    # c = 1e50 reads -0.0 for its fourth derivative at r = 0), so the probe refuses it too
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            return all(np.isfinite(d).all() for d in make(value)(np.array(radii)))
    except (OverflowError, ZeroDivisionError, FloatingPointError):  # Gaussian's a**4, k**3
        return False


def build_kernel(family: str, **params) -> RadialKernel:
    """Construct a catalog kernel by family name.

    `params` are exactly the parameters the family takes
    (`FAMILY_PARAMETERS`), checked as a config's kernel entry is
    (`check_parameters`). There are no defaults: the harness supplies the
    shape parameter, wavenumber and decay rate a config leaves out.
    """
    params = check_parameters(family, params)
    make, singular, top, takes = _FAMILIES[family]
    missing = [name for name in takes if name not in params]
    if missing:
        raise ParameterError(f"kernel {family!r} needs parameter {', '.join(missing)}")
    return RadialKernel(family, singular, make(**params), top_order=top, **params)


# ---------------------------------------------------------------------------
# construction operators
# ---------------------------------------------------------------------------
#
# The composite generators read their base's generator directly: the radii
# they pass it are positive by construction, so derivs_upto's input checks
# would only repeat themselves.


def probe_singular_at_origin(phi: Callable[[np.ndarray], np.ndarray]) -> bool:
    """Sample |phi| at r = 1e-3 .. 1e-9 and flag monotone divergence.

    Catches both algebraic (1/r) and logarithmic blow-up; bounded kernels
    whose values creep up by a negligible amount are not flagged.
    """
    rs = 10.0 ** -np.arange(3, 10, dtype=float)
    vals = np.array([abs(float(phi(np.atleast_1d(r))[0])) for r in rs])
    increasing = bool(np.all(np.diff(vals) > 0))
    return increasing and vals[-1] - vals[0] > 0.5


def _composite(family: str, radial: _Radial, **fields) -> RadialKernel:
    """A constructed kernel, flagged singular when its sampled values diverge."""
    singular = probe_singular_at_origin(lambda r: next(radial(r)))
    return RadialKernel(family, singular, radial, **fields)


def shape_substitute(kernel: RadialKernel, c: float) -> RadialKernel:
    """Replace the distance variable r by sqrt(r^2 + c^2).

    With c > 0 the substituted kernel is evaluated at arguments >= c,
    so singular bases become smooth at the origin. c = 0 is the identity.
    c takes the MQ shape parameter's range.
    """
    c = check_parameter("mq", "c", c)
    label = f"{kernel.name}+shift(c={c:g})"
    if c == 0.0:
        return replace(kernel, family="substituted", label=label)

    top = 4 if kernel.top_order >= 4 else 2
    mq = _mq(c)

    def radial(r):
        # Faa di Bruno through s(r) = sqrt(r^2 + c^2), whose derivatives
        # are the MQ family's
        s = mq(r)
        q = next(s)
        b = kernel.radial(q)
        yield next(b)
        s1, b1 = next(s), next(b)
        yield b1 * s1
        s2, b2 = next(s), next(b)
        yield b2 * s1**2 + b1 * s2
        if top < 4:
            return
        s3, b3 = next(s), next(b)
        yield (b3 * s1 * s1 + 3.0 * b2 * s2) * s1 + b1 * s3
        s4, b4 = next(s), next(b)
        yield (
            (b4 * s1 * s1 + 6.0 * b3 * s2) * s1 * s1
            + (3.0 * s2 * s2 + 4.0 * s1 * s3) * b2
            + b1 * s4
        )

    return _composite(
        "substituted", radial, c=c, k=kernel.k, omega=kernel.omega, label=label, top_order=top
    )


def augment_r2m(base: RadialKernel, m: int) -> RadialKernel:
    """Multiply a kernel by r^(2m) to tame its origin behavior."""
    if not (isinstance(m, numbers.Integral) and not isinstance(m, bool) and m >= 0):
        raise ParameterError(f"augmentation order m must be a nonnegative integer, got {m!r}")
    label = f"r^{2 * m} * {base.name}"
    if m == 0:
        return replace(base, family="augmented", m=0, label=label)

    p = 2 * m

    def radial(r):
        nz = r > 0.0
        q = r[nz]
        b = base.radial(q)
        b0 = next(b)
        yield _piecewise(nz, q**p * b0, 0.0)
        b1 = next(b)
        yield _piecewise(nz, p * q ** (p - 1) * b0 + q**p * b1, 0.0)
        # no finite limit for m = 1 over log-type bases; 0 is a convention
        yield _piecewise(
            nz,
            p * (p - 1) * q ** (p - 2) * b0 + 2.0 * p * q ** (p - 1) * b1 + q**p * next(b),
            0.0,
        )

    return _composite(
        "augmented", radial, c=base.c, k=base.k, omega=base.omega, m=m, label=label
    )


#: highest order of the higher-order solution chains
MAX_CHAIN_ORDER = 4


def higher_order_solution(operator, order: int) -> RadialKernel:
    """Radial solutions u_m with L{u_m} = u_(m-1), L{u_0} in the catalog.

    For the 2D Helmholtz operator the chain starts at the nonsingular
    general solution J0(k r) and continues with
    u_m = r^m J_m(k r) / ((2k)^m m!). For the 2D Laplacian it starts at
    the fundamental solution -ln(r)/(2 pi) and continues with
    u_m = r^(2m) (A_m ln r + B_m), A_m and B_m fixed by the recursion.
    Implemented up to order MAX_CHAIN_ORDER.
    """
    if order < 0 or order > MAX_CHAIN_ORDER:
        raise UnsupportedError(f"chain order must be in 0..{MAX_CHAIN_ORDER}, got {order}")
    kind = operator.kind
    if kind == "helmholtz_2d":
        k = operator.k
        if order == 0:
            return build_kernel("helmholtz_gs_2d", k=k)
        return _helmholtz_chain_kernel(k, order)
    if kind == "laplace_2d":
        if order == 0:
            return build_kernel("laplace_fs_2d")
        return _laplace_chain_kernel(order)
    raise UnsupportedError(f"no higher-order solutions implemented for {kind!r}")


#: below this argument the chain's J_n (n >= 2) come from the power
#: series, at or above it from the upward recurrence
_SERIES_CUTOVER = 2.0
#: terms of the power series; at x < 2 the first one dropped is under
#: 2e-24 of the sum
_SERIES_TERMS = 14


def _bessel_table(x: np.ndarray, m: int) -> list[np.ndarray]:
    """[J_0(x), ..., J_m(x)] for arguments x >= 0 and orders m <= MAX_CHAIN_ORDER.

    J_0 and J_1 are scipy's `j0`/`j1`. Each higher order comes from the
    power series (x/2)^n sum_j (-x^2/4)^j / (j! (n+j)!) (DLMF 10.2.2),
    summed by Horner's rule, below _SERIES_CUTOVER, and from the upward
    recurrence J_(n+1) = (2n/x) J_n - J_(n-1) (DLMF 10.6.1) at or above
    it, where the recurrence is stable for n <= MAX_CHAIN_ORDER. When no
    argument takes the recurrence, it is not run.
    """
    return _bessel_orders(x, [special.j0(x), special.j1(x)], m)


def _bessel_orders(x: np.ndarray, table: list, m: int) -> list[np.ndarray]:
    """`_bessel_table(x, m)` from its first two orders, `table` = [J_0(x), J_1(x)]."""
    if m < 2:
        return table[: m + 1]
    small = x < _SERIES_CUTOVER
    every = np.all(small)
    half = 0.5 * (x if every else x[small])
    t = -half * half
    if every:  # no argument takes the recurrence
        return table + [_bessel_series(n, half, t) for n in range(2, m + 1)]
    # 2/x where the recurrence holds; a finite stand-in where the series
    # overwrites it
    two_over_x = 2.0 / np.maximum(x, _SERIES_CUTOVER)
    for n in range(2, m + 1):
        jn = (n - 1) * two_over_x * table[n - 1] - table[n - 2]
        jn[small] = _bessel_series(n, half, t)
        table.append(jn)
    return table


def _bessel_series(n: int, half: np.ndarray, t: np.ndarray) -> np.ndarray:
    """J_n from its power series at half = x/2 and t = -x^2/4, by Horner's rule."""
    coeffs = [1.0 / (math.factorial(j) * math.factorial(n + j)) for j in range(_SERIES_TERMS)]
    acc = np.full_like(t, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= t
        acc += c
    return half**n * acc


def _chain_derivs(k: float, m: int, nz, q, J) -> Iterator[np.ndarray]:
    """phi, phi', phi'' of the order-m chain kernel, q = r[nz] the positive
    radii and J a Bessel table at k q reaching at least order m."""
    a = 1.0 / ((2.0 * k) ** m * math.factorial(m))
    qm = q**m
    yield _piecewise(nz, a * qm * J[m], 0.0)
    yield _piecewise(nz, a * k * qm * J[m - 1], 0.0)
    jm2 = J[m - 2] if m >= 2 else -J[1]  # J_(-1) = -J_1
    d2_limit = a * k if m == 1 else 0.0
    yield _piecewise(nz, a * (k * q ** (m - 1) * J[m - 1] + k * k * qm * jm2), d2_limit)


def _helmholtz_chain_kernel(k: float, m: int) -> RadialKernel:
    def radial(r):
        nz = r > 0.0
        q = r[nz]
        yield from _chain_derivs(k, m, nz, q, _bessel_table(k * q, m))

    return RadialKernel(
        "higher_order", False, radial, k=k, order=m, label=f"helmholtz_gs_2d^({m})"
    )


def _laplace_chain_coeffs(m: int) -> tuple[float, float]:
    A, B = -_INV_2PI, 0.0
    for j in range(1, m + 1):
        A, B = A / (4.0 * j * j), (B - A / j) / (4.0 * j * j)
    return A, B


def _laplace_chain_kernel(m: int) -> RadialKernel:
    A, B = _laplace_chain_coeffs(m)
    p = 2 * m

    def radial(r):
        nz = r > 0.0
        q = r[nz]
        log = np.log(q)
        yield _piecewise(nz, q**p * (A * log + B), 0.0)
        yield _piecewise(nz, q ** (p - 1) * (p * A * log + A + p * B), 0.0)
        yield _piecewise(
            nz,
            q ** (p - 2) * (p * (p - 1) * A * log + (2 * p - 1) * A + p * (p - 1) * B),
            0.0,
        )

    return RadialKernel("higher_order", False, radial, order=m, label=f"laplace_fs_2d^({m})")


# ---------------------------------------------------------------------------
# diagnostics and defaults
# ---------------------------------------------------------------------------

REGULATION_CAP = 1e6
REGULATION_RADII = (1e-2, 1e-4, 1e-6, 1e-8)


def check_regulation(kernel: RadialKernel) -> bool:
    """First-derivative boundedness near the origin.

    Samples |phi'| on a shrinking ladder of radii; passes when every
    sample stays under a fixed cap and no step grows by more than 10x.
    """
    vals = np.abs(kernel.derivs_upto(REGULATION_RADII, 1)[1])
    if np.any(vals > REGULATION_CAP):
        return False
    for prev, nxt in zip(vals[:-1], vals[1:]):
        if nxt / max(prev, 1e-300) >= 10.0:
            return False
    return True


def default_shape_parameter(points: np.ndarray) -> float:
    """Twice the mean nearest-neighbor spacing of the node set."""
    from .geometry import mean_nearest_neighbor_spacing

    return 2.0 * mean_nearest_neighbor_spacing(points)
