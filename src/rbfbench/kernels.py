"""Radial kernel catalog and kernel-construction operators.

A kernel is a radial profile phi(r) bundled with analytically coded
radial derivatives. The catalog covers generic RBFs (MQ, inverse MQ,
Gaussian, thin plate spline, exponential decay), fundamental solutions
of the Laplacian in 1/2/3 dimensions, and nonsingular general solutions
of the Helmholtz and modified Helmholtz operators. On top of the
catalog sit three construction operators: r^(2m) augmentation,
higher-order homogeneous solutions of an operator, and the shape
substitution r -> sqrt(r^2 + c^2).

Sign and scaling conventions (e.g. -ln(r)/(2*pi) for the 2D Laplace
fundamental solution, Y0(k r)/4 for 2D Helmholtz) are fixed once here;
expansion coefficients absorb any constant, so the choice only matters
for test determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy import special

from .errors import ParameterError, SingularityError, UnsupportedError

#: kernel families constructible by name
CATALOG = (
    "mq",
    "imq",
    "gaussian",
    "tps",
    "exp_decay",
    "laplace_fs_1d",
    "laplace_fs_2d",
    "laplace_fs_3d",
    "helmholtz_gs_2d",
    "helmholtz_gs_3d",
    "helmholtz_fs_2d",
    "mod_helmholtz_gs_2d",
)

#: named parameters (build_kernel keywords) each family takes
FAMILY_PARAMETERS = {
    **{family: () for family in CATALOG},
    "mq": ("c",),
    "imq": ("c",),
    "gaussian": ("c",),
    "exp_decay": ("omega",),
    "helmholtz_gs_2d": ("k",),
    "helmholtz_gs_3d": ("k",),
    "helmholtz_fs_2d": ("k",),
    "mod_helmholtz_gs_2d": ("k",),
}

_DerivFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RadialKernel:
    """Immutable radial kernel with analytic derivatives.

    `derivs` holds (phi, phi', phi'', phi''', phi'''') as vectorized
    functions of r >= 0; the last two may be None when a family does not
    support fourth-order schemes. Functions patch the r == 0 limit where
    one exists; singular kernels refuse evaluation at r == 0.
    """

    family: str
    singular_at_origin: bool
    c: float = 0.0
    k: float = 0.0
    omega: float = 0.0
    m: int = 0
    order: int = 0
    label: str = ""
    derivs: tuple = field(default=(), repr=False, compare=False)

    def deriv(self, r, order: int = 0):
        fn = self.derivs[order] if order < len(self.derivs) else None
        if fn is None:
            raise UnsupportedError(
                f"kernel {self.name} has no order-{order} radial derivative"
            )
        arr = np.asarray(r, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(arr < 0):
            raise ValueError("radial distance must be nonnegative")
        if self.singular_at_origin and np.any(arr == 0.0):
            raise SingularityError(f"kernel {self.name} is singular at r = 0")
        out = fn(arr)
        return float(out[0]) if scalar else out

    def phi(self, r):
        return self.deriv(r, 0)

    def d1(self, r):
        return self.deriv(r, 1)

    def d2(self, r):
        return self.deriv(r, 2)

    def d3(self, r):
        return self.deriv(r, 3)

    def d4(self, r):
        return self.deriv(r, 4)

    @property
    def has_fourth_order(self) -> bool:
        return (
            len(self.derivs) >= 5
            and self.derivs[3] is not None
            and self.derivs[4] is not None
        )

    @property
    def name(self) -> str:
        return self.label or self.family


def _where0(r: np.ndarray, limit: float, formula: _DerivFn) -> np.ndarray:
    """Evaluate `formula` on positive entries, patching r == 0 with `limit`."""
    out = np.full(r.shape, float(limit))
    nz = r > 0.0
    if np.any(nz):
        out[nz] = formula(r[nz])
    return out


def _piecewise(x: np.ndarray, cut: float, small: _DerivFn, large: _DerivFn) -> np.ndarray:
    out = np.empty_like(x)
    s = x < cut
    out[s] = small(x[s])
    out[~s] = large(x[~s])
    return out


# ---------------------------------------------------------------------------
# catalog families
# ---------------------------------------------------------------------------


def _mq_derivs(c: float) -> tuple:
    c2 = c * c

    def s(r):
        return np.sqrt(r * r + c2)

    return (
        lambda r: s(r),
        lambda r: r / s(r),
        lambda r: c2 / s(r) ** 3,
        lambda r: -3.0 * c2 * r / s(r) ** 5,
        lambda r: -3.0 * c2 * (s(r) ** 2 - 5.0 * r * r) / s(r) ** 7,
    )


def _imq_derivs(c: float) -> tuple:
    c2 = c * c

    def s(r):
        return np.sqrt(r * r + c2)

    return (
        lambda r: 1.0 / s(r),
        lambda r: -r / s(r) ** 3,
        lambda r: (2.0 * r * r - c2) / s(r) ** 5,
        lambda r: 3.0 * r * (3.0 * c2 - 2.0 * r * r) / s(r) ** 7,
        lambda r: 9.0 / s(r) ** 5 - 90.0 * r * r / s(r) ** 7 + 105.0 * r**4 / s(r) ** 9,
    )


def _gaussian_derivs(c: float) -> tuple:
    a = 1.0 / (c * c)

    def e(r):
        return np.exp(-a * r * r)

    return (
        e,
        lambda r: -2.0 * a * r * e(r),
        lambda r: (-2.0 * a + 4.0 * a * a * r * r) * e(r),
        lambda r: (12.0 * a * a * r - 8.0 * a**3 * r**3) * e(r),
        lambda r: (12.0 * a * a - 48.0 * a**3 * r * r + 16.0 * a**4 * r**4) * e(r),
    )


def _tps_derivs() -> tuple:
    # phi'' has no finite limit at the origin; the r == 0 value is a
    # bookkeeping convention and must not feed operator evaluations there.
    return (
        lambda r: _where0(r, 0.0, lambda q: q * q * np.log(q)),
        lambda r: _where0(r, 0.0, lambda q: 2.0 * q * np.log(q) + q),
        lambda r: _where0(r, 0.0, lambda q: 2.0 * np.log(q) + 3.0),
        None,
        None,
    )


def _exp_decay_derivs(omega: float) -> tuple:
    def e(r):
        return np.exp(-omega * r)

    return (
        e,
        lambda r: -omega * e(r),
        lambda r: omega * omega * e(r),
        None,
        None,
    )


def _laplace_fs_1d_derivs() -> tuple:
    return (
        lambda r: 0.5 * r,
        lambda r: np.full(r.shape, 0.5),
        lambda r: np.zeros(r.shape),
        None,
        None,
    )


_INV_2PI = 1.0 / (2.0 * np.pi)
_INV_4PI = 1.0 / (4.0 * np.pi)


def _laplace_fs_2d_derivs() -> tuple:
    return (
        lambda r: -np.log(r) * _INV_2PI,
        lambda r: -_INV_2PI / r,
        lambda r: _INV_2PI / (r * r),
        None,
        None,
    )


def _laplace_fs_3d_derivs() -> tuple:
    return (
        lambda r: _INV_4PI / r,
        lambda r: -_INV_4PI / (r * r),
        lambda r: 2.0 * _INV_4PI / r**3,
        None,
        None,
    )


def _helmholtz_gs_2d_derivs(k: float) -> tuple:
    # J0(k r); derivatives via J0' = -J1 and J1'(x) = J0(x) - J1(x)/x.
    def d2(r):
        return _where0(
            r,
            -0.5 * k * k,
            lambda q: -k * k * special.j0(k * q) + k * special.j1(k * q) / q,
        )

    def d3(r):
        return _where0(
            r,
            0.0,
            lambda q: k**3 * special.j1(k * q)
            + k * k * special.j0(k * q) / q
            - 2.0 * k * special.j1(k * q) / (q * q),
        )

    def d4(r):
        return _where0(
            r,
            0.375 * k**4,
            lambda q: k**4 * special.j0(k * q)
            - 2.0 * k**3 * special.j1(k * q) / q
            - 3.0 * k * k * special.j0(k * q) / (q * q)
            + 6.0 * k * special.j1(k * q) / q**3,
        )

    return (
        lambda r: special.j0(k * r),
        lambda r: -k * special.j1(k * r),
        d2,
        d3,
        d4,
    )


def _helmholtz_gs_3d_derivs(k: float) -> tuple:
    # sin(x)/x with x = k r; Taylor branch below x = 1e-3 avoids the
    # catastrophic cancellation of (x cos x - sin x) at tiny arguments.
    def phi(r):
        x = k * r
        return _piecewise(
            x,
            1e-3,
            lambda q: 1.0 - q * q / 6.0 + q**4 / 120.0,
            lambda q: np.sin(q) / q,
        )

    def d1(r):
        x = k * r
        return k * _piecewise(
            x,
            1e-3,
            lambda q: -q / 3.0 + q**3 / 30.0 - q**5 / 840.0,
            lambda q: (q * np.cos(q) - np.sin(q)) / (q * q),
        )

    def d2(r):
        x = k * r
        return k * k * _piecewise(
            x,
            1e-3,
            lambda q: -1.0 / 3.0 + q * q / 10.0 - q**4 / 168.0,
            lambda q: ((2.0 - q * q) * np.sin(q) - 2.0 * q * np.cos(q)) / q**3,
        )

    return (phi, d1, d2, None, None)


def _helmholtz_fs_2d_derivs(k: float) -> tuple:
    return (
        lambda r: 0.25 * special.y0(k * r),
        lambda r: -0.25 * k * special.y1(k * r),
        lambda r: -0.25 * k * k * special.y0(k * r) + 0.25 * k * special.y1(k * r) / r,
        None,
        None,
    )


def _mod_helmholtz_gs_2d_derivs(k: float) -> tuple:
    def d2(r):
        return _where0(
            r,
            0.5 * k * k,
            lambda q: k * k * special.i0(k * q) - k * special.i1(k * q) / q,
        )

    return (
        lambda r: special.i0(k * r),
        lambda r: k * special.i1(k * r),
        d2,
        None,
        None,
    )


def _require_positive(name: str, value: Optional[float]) -> float:
    if value is None or not math.isfinite(value) or value <= 0:
        raise ParameterError(f"{name} must be finite and positive, got {value}")
    return float(value)


def build_kernel(
    family: str,
    c: Optional[float] = None,
    k: Optional[float] = None,
    omega: Optional[float] = None,
) -> RadialKernel:
    """Construct a catalog kernel by family name.

    Shape parameter c defaults to 1 for MQ/inverse-MQ/Gaussian when not
    given; wavenumber k and decay rate omega are required (and positive)
    for the families that use them. Negative or non-finite c is rejected.
    """
    if c is not None and not (math.isfinite(c) and c >= 0):
        raise ParameterError(f"shape parameter c must be finite and nonnegative, got {c}")

    if family in ("mq", "imq", "gaussian"):
        cv = 1.0 if c is None else float(c)
        if family == "gaussian":
            cv = _require_positive("gaussian shape parameter c", cv)
            derivs = _gaussian_derivs(cv)
        elif family == "mq":
            derivs = _mq_derivs(cv)
        else:
            cv = _require_positive("imq shape parameter c", cv)
            derivs = _imq_derivs(cv)
        return RadialKernel(family, False, c=cv, derivs=derivs)
    if family == "tps":
        return RadialKernel(family, False, derivs=_tps_derivs())
    if family == "exp_decay":
        w = _require_positive("decay rate omega", omega)
        return RadialKernel(family, False, omega=w, derivs=_exp_decay_derivs(w))
    if family == "laplace_fs_1d":
        return RadialKernel(family, False, derivs=_laplace_fs_1d_derivs())
    if family == "laplace_fs_2d":
        return RadialKernel(family, True, derivs=_laplace_fs_2d_derivs())
    if family == "laplace_fs_3d":
        return RadialKernel(family, True, derivs=_laplace_fs_3d_derivs())
    if family == "helmholtz_gs_2d":
        kv = _require_positive("wavenumber k", k)
        return RadialKernel(family, False, k=kv, derivs=_helmholtz_gs_2d_derivs(kv))
    if family == "helmholtz_gs_3d":
        kv = _require_positive("wavenumber k", k)
        return RadialKernel(family, False, k=kv, derivs=_helmholtz_gs_3d_derivs(kv))
    if family == "helmholtz_fs_2d":
        kv = _require_positive("wavenumber k", k)
        return RadialKernel(family, True, k=kv, derivs=_helmholtz_fs_2d_derivs(kv))
    if family == "mod_helmholtz_gs_2d":
        kv = _require_positive("wavenumber k", k)
        return RadialKernel(family, False, k=kv, derivs=_mod_helmholtz_gs_2d_derivs(kv))
    raise ParameterError(f"unknown kernel family {family!r}")


# ---------------------------------------------------------------------------
# construction operators
# ---------------------------------------------------------------------------


def probe_singular_at_origin(phi: Callable[[float], float]) -> bool:
    """Sample |phi| at r = 1e-3 .. 1e-9 and flag monotone divergence.

    Catches both algebraic (1/r) and logarithmic blow-up; bounded kernels
    whose values creep up by a negligible amount are not flagged.
    """
    rs = 10.0 ** -np.arange(3, 10, dtype=float)
    vals = np.array([abs(float(phi(np.atleast_1d(r))[0])) for r in rs])
    increasing = bool(np.all(np.diff(vals) > 0))
    return increasing and vals[-1] - vals[0] > 0.5


def shape_substitute(kernel: RadialKernel, c: float) -> RadialKernel:
    """Replace the distance variable r by sqrt(r^2 + c^2).

    With c > 0 the substituted kernel is evaluated at arguments >= c,
    so singular bases become smooth at the origin. c = 0 is the identity.
    """
    if c < 0:
        raise ParameterError(f"shape parameter c must be nonnegative, got {c}")
    label = f"{kernel.name}+shift(c={c:g})"
    if c == 0.0:
        return replace(kernel, family="substituted", label=label)

    b0, b1, b2, b3, b4 = (kernel.derivs + (None,) * 5)[:5]
    c2 = c * c

    def s(r):
        return np.sqrt(r * r + c2)

    def phi(r):
        return b0(s(r))

    def d1(r):
        q = s(r)
        return b1(q) * (r / q)

    def d2(r):
        q = s(r)
        return b2(q) * (r / q) ** 2 + b1(q) * c2 / q**3

    d3 = d4 = None
    if b3 is not None and b4 is not None:
        # Faa di Bruno through s(r); s', s'', s''', s'''' match the MQ derivatives.
        def d3(r):
            q = s(r)
            s1, s2, s3 = r / q, c2 / q**3, -3.0 * c2 * r / q**5
            return b3(q) * s1**3 + 3.0 * b2(q) * s1 * s2 + b1(q) * s3

        def d4(r):
            q = s(r)
            s1, s2 = r / q, c2 / q**3
            s3 = -3.0 * c2 * r / q**5
            s4 = -3.0 * c2 * (q * q - 5.0 * r * r) / q**7
            return (
                b4(q) * s1**4
                + 6.0 * b3(q) * s1 * s1 * s2
                + 3.0 * b2(q) * s2 * s2
                + 4.0 * b2(q) * s1 * s3
                + b1(q) * s4
            )

    return RadialKernel(
        "substituted",
        probe_singular_at_origin(phi),
        c=c,
        k=kernel.k,
        omega=kernel.omega,
        label=label,
        derivs=(phi, d1, d2, d3, d4),
    )


def augment_r2m(base: RadialKernel, m: int) -> RadialKernel:
    """Multiply a kernel by r^(2m) to tame its origin behavior."""
    if m < 0:
        raise ParameterError(f"augmentation order m must be nonnegative, got {m}")
    label = f"r^{2 * m} * {base.name}"
    if m == 0:
        return replace(base, family="augmented", m=0, label=label)

    b0, b1, b2 = base.derivs[0], base.derivs[1], base.derivs[2]
    p = 2 * m

    def phi(r):
        return _where0(r, 0.0, lambda q: q**p * b0(q))

    def d1(r):
        return _where0(r, 0.0, lambda q: p * q ** (p - 1) * b0(q) + q**p * b1(q))

    def d2(r):
        # no finite limit for m = 1 over log-type bases; 0 is a convention
        return _where0(
            r,
            0.0,
            lambda q: p * (p - 1) * q ** (p - 2) * b0(q)
            + 2.0 * p * q ** (p - 1) * b1(q)
            + q**p * b2(q),
        )

    return RadialKernel(
        "augmented",
        probe_singular_at_origin(phi),
        c=base.c,
        k=base.k,
        omega=base.omega,
        m=m,
        label=label,
        derivs=(phi, d1, d2, None, None),
    )


def higher_order_solution(operator, order: int) -> RadialKernel:
    """Radial solutions u_m with L{u_m} = u_(m-1), L{u_0} in the catalog.

    For the 2D Helmholtz operator the chain starts at the nonsingular
    general solution J0(k r) and continues with
    u_m = r^m J_m(k r) / ((2k)^m m!). For the 2D Laplacian it starts at
    the fundamental solution -ln(r)/(2 pi) and continues with
    u_m = r^(2m) (A_m ln r + B_m), A_m and B_m fixed by the recursion.
    Implemented up to order 4.
    """
    if order < 0 or order > 4:
        raise UnsupportedError(f"chain order must be in 0..4, got {order}")
    kind = getattr(operator, "kind", operator)
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


def _helmholtz_chain_kernel(k: float, m: int) -> RadialKernel:
    a = 1.0 / ((2.0 * k) ** m * math.factorial(m))

    def phi(r):
        return _where0(r, 0.0, lambda q: a * q**m * special.jv(m, k * q))

    def d1(r):
        return _where0(r, 0.0, lambda q: a * k * q**m * special.jv(m - 1, k * q))

    d2_limit = a * k if m == 1 else 0.0

    def d2(r):
        return _where0(
            r,
            d2_limit,
            lambda q: a
            * (
                k * q ** (m - 1) * special.jv(m - 1, k * q)
                + k * k * q**m * special.jv(m - 2, k * q)
            ),
        )

    return RadialKernel(
        "higher_order",
        False,
        k=k,
        order=m,
        label=f"helmholtz_gs_2d^({m})",
        derivs=(phi, d1, d2, None, None),
    )


def _laplace_chain_coeffs(m: int) -> tuple[float, float]:
    A, B = -_INV_2PI, 0.0
    for j in range(1, m + 1):
        A, B = A / (4.0 * j * j), (B - A / j) / (4.0 * j * j)
    return A, B


def _laplace_chain_kernel(m: int) -> RadialKernel:
    A, B = _laplace_chain_coeffs(m)
    p = 2 * m

    def phi(r):
        return _where0(r, 0.0, lambda q: q**p * (A * np.log(q) + B))

    def d1(r):
        return _where0(
            r, 0.0, lambda q: q ** (p - 1) * (p * A * np.log(q) + A + p * B)
        )

    def d2(r):
        return _where0(
            r,
            0.0,
            lambda q: q ** (p - 2)
            * (p * (p - 1) * A * np.log(q) + (2 * p - 1) * A + p * (p - 1) * B),
        )

    return RadialKernel(
        "higher_order",
        False,
        order=m,
        label=f"laplace_fs_2d^({m})",
        derivs=(phi, d1, d2, None, None),
    )


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
    vals = np.array([abs(kernel.d1(r)) for r in REGULATION_RADII])
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
