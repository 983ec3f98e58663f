"""Governing operators applied analytically to radial kernels.

Supported operators have the form L = D*Lap + gamma - v.grad with
constant coefficients: the 2D Laplacian (D=1, gamma=0), Helmholtz
(gamma=+k^2), modified Helmholtz (gamma=-k^2) and convection-diffusion
(D, velocity v). The adjoint-sign variant L* flips the velocity.

Besides the scalar operations, this module builds every collocation
matrix of every scheme with one function, `collocation_matrix`: rows are
field values, field-normal derivatives or operator images L, columns are
kernels, source-normal derivatives or adjoint images L*, and each of the
nine (row, column) pairs is one analytic block formula, up to L L*
(which needs third and fourth radial derivatives). Coincident
field/source pairs (r below 1e-8) are patched with the analytic limits;
for smooth radial kernels the gradient at the origin is the zero vector
and the Laplacian limit is 2*phi''(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import KernelSmoothnessError, ParameterError, SingularityError
from .kernels import RadialKernel

#: below this separation a field/source pair is treated as coincident
COINCIDENT_TOL = 1e-8

OPERATOR_KINDS = (
    "laplace_2d",
    "helmholtz_2d",
    "mod_helmholtz_2d",
    "convection_diffusion_2d",
)


@dataclass(frozen=True)
class OperatorSpec:
    kind: str
    k: float = 0.0
    diffusivity: float = 1.0
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ParameterError(f"unknown operator kind {self.kind!r}")
        if self.kind in ("helmholtz_2d", "mod_helmholtz_2d") and not (
            math.isfinite(self.k) and self.k > 0
        ):
            raise ParameterError(f"wavenumber k must be positive and finite, got {self.k}")
        if self.kind == "convection_diffusion_2d":
            if not (math.isfinite(self.diffusivity) and self.diffusivity > 0):
                raise ParameterError(
                    f"diffusivity must be positive and finite, got {self.diffusivity}"
                )
            if not np.all(np.isfinite(self.velocity)):
                raise ParameterError(f"velocity must be finite, got {self.velocity}")

    @property
    def reaction(self) -> float:
        """Constant term gamma in L = D*Lap + gamma - v.grad."""
        if self.kind == "helmholtz_2d":
            return self.k * self.k
        if self.kind == "mod_helmholtz_2d":
            return -self.k * self.k
        return 0.0

    @property
    def diff_coeff(self) -> float:
        return self.diffusivity if self.kind == "convection_diffusion_2d" else 1.0

    @property
    def velocity_vec(self) -> np.ndarray:
        if self.kind == "convection_diffusion_2d":
            return np.asarray(self.velocity, dtype=float)
        return np.zeros(2)

    @property
    def is_self_adjoint(self) -> bool:
        return np.all(self.velocity_vec == 0.0)


def laplace() -> OperatorSpec:
    return OperatorSpec("laplace_2d")


def helmholtz(k: float) -> OperatorSpec:
    return OperatorSpec("helmholtz_2d", k=k)


def mod_helmholtz(k: float) -> OperatorSpec:
    return OperatorSpec("mod_helmholtz_2d", k=k)


def convection_diffusion(diffusivity: float, velocity) -> OperatorSpec:
    return OperatorSpec(
        "convection_diffusion_2d",
        diffusivity=diffusivity,
        velocity=(float(velocity[0]), float(velocity[1])),
    )


def adjoint_of(op: OperatorSpec) -> OperatorSpec:
    """Formal adjoint: odd-order derivative terms change sign."""
    if op.kind == "convection_diffusion_2d":
        v = op.velocity
        return replace(op, velocity=(-v[0], -v[1]))
    return op


# ---------------------------------------------------------------------------
# collocation matrices
# ---------------------------------------------------------------------------

#: row kinds: field value, field-normal derivative, operator image L
ROW_KINDS = ("value", "normal", "op")
#: column kinds: kernel, source-normal derivative, adjoint image L*
COLUMN_KINDS = ("value", "normal", "adjoint")


class _Pairs:
    """Pairwise geometry of one row group against one column group.

    `d` holds x_i - y_j (shape (m, n, 2)) and `r` its length; the
    coincident mask `z` (r < COINCIDENT_TOL) and the safe divisor `rs`
    (r with coincident pairs set to 1) are computed on first use, since
    plain kernel values need neither. Refuses poles of singular kernels.
    """

    def __init__(self, kernel: RadialKernel, X: np.ndarray, Y: np.ndarray, what: str):
        self.d = X[:, None, :] - Y[None, :, :]
        self.r = np.sqrt(np.einsum("ijk,ijk->ij", self.d, self.d))
        if kernel.singular_at_origin and np.any(self.z):
            raise SingularityError(
                f"{what}: coincident points hit the pole of kernel {kernel.name}"
            )

    @cached_property
    def z(self) -> np.ndarray:
        return self.r < COINCIDENT_TOL

    @cached_property
    def rs(self) -> np.ndarray:
        return np.where(self.z, 1.0, self.r)


# Each block formula reads `f`, the kernel's radial derivatives at the
# pair radii (phi, phi', ... up to the order `_FORMULAS` lists), and `f0`,
# the same derivatives at r = 0 when the block has coincident pairs (None
# otherwise).


def _value_value(op, g, f, f0, nx, ny):
    return f[0]


def _normal_value(op, g, f, f0, nx, ny):
    # directional derivative at the field point: phi'(r) (d.n_i)/r
    proj = np.einsum("ijk,ik->ij", g.d, nx)
    out = f[1] * proj / g.rs
    out[g.z] = 0.0
    return out


def _value_normal(op, g, f, f0, nx, ny):
    # directional derivative at the source point: -phi'(r) (d.n_j)/r
    proj = np.einsum("ijk,jk->ij", g.d, ny)
    out = -f[1] * proj / g.rs
    out[g.z] = 0.0
    return out


def _normal_normal(op, g, f, f0, nx, ny):
    # field-normal derivative of the source-normal derivative; symmetric
    # under the swap (x, n_x) <-> (y, n_y), coincident limit -phi''(0) n_x.n_y
    rs, z = g.rs, g.z
    px = np.einsum("ijk,ik->ij", g.d, nx)
    py = np.einsum("ijk,jk->ij", g.d, ny)
    nn = nx @ ny.T
    _, d1, d2 = f
    out = -(d2 * py * px / rs**2 + d1 * (nn / rs - py * px / rs**3))
    if f0 is not None:
        out[z] = (-f0[2] * nn)[z]
    return out


def _op_value(op, g, f, f0, nx, ny):
    # L in the field variable: D*(phi'' + phi'/r) + gamma*phi - phi' (v.d)/r
    rs, z = g.rs, g.z
    phi, d1, d2 = f
    D, gamma, v = op.diff_coeff, op.reaction, op.velocity_vec
    out = D * (d2 + d1 / rs) + gamma * phi
    if np.any(v):
        out -= d1 * (g.d @ v) / rs
    if f0 is not None:
        out[z] = 2.0 * D * f0[2] + gamma * f0[0]
    return out


def _value_adjoint(op, g, f, f0, nx, ny):
    # the adjoint-image trial function L* phi, valued at the field point
    return _op_value(adjoint_of(op), g, f, f0, nx, ny)


def _lap_derivative(f, rs: np.ndarray) -> np.ndarray:
    # radial derivative of Lap(phi): phi''' + phi''/r - phi'/r^2
    return f[3] + f[2] / rs - f[1] / rs**2


def _op_normal(op, g, f, f0, nx, ny):
    # L (field) applied to the source-normal column
    d, rs, z = g.d, g.rs, g.z
    d1, d2 = f[1], f[2]
    D, gamma, v = op.diff_coeff, op.reaction, op.velocity_vec
    py = np.einsum("ijk,jk->ij", d, ny)
    out = -(D * _lap_derivative(f, rs) + gamma * d1) * py / rs
    if np.any(v):
        vd = d @ v
        vn = np.broadcast_to(ny @ v, out.shape)
        out += d2 * py * vd / rs**2 + d1 * (vn / rs - py * vd / rs**3)
    if f0 is not None:
        vn = np.broadcast_to(ny @ v, out.shape)
        out[z] = (f0[2] * vn)[z]
    return out


def _normal_adjoint(op, g, f, f0, nx, ny):
    # field-normal derivative of the L* image
    d, rs, z = g.d, g.rs, g.z
    d1, d2 = f[1], f[2]
    D, gamma, v = op.diff_coeff, op.reaction, op.velocity_vec
    px = np.einsum("ijk,ik->ij", d, nx)
    out = (D * _lap_derivative(f, rs) + gamma * d1) * px / rs
    if np.any(v):
        vd = d @ v
        vn = np.broadcast_to((nx @ v)[:, None], out.shape)
        out += d2 * vd * px / rs**2 + d1 * (vn / rs - vd * px / rs**3)
    if f0 is not None:
        vn = np.broadcast_to((nx @ v)[:, None], out.shape)
        out[z] = (f0[2] * vn)[z]
    return out


def _op_adjoint(op, g, f, f0, nx, ny):
    # L L* phi: D^2 Lap^2 + 2 gamma D Lap + gamma^2 - (v.grad)^2
    d, rs, z = g.d, g.rs, g.z
    phi, d1, d2, d3, d4 = f
    D, gamma, v = op.diff_coeff, op.reaction, op.velocity_vec
    bilap = d4 + 2.0 * d3 / rs - d2 / rs**2 + d1 / rs**3
    lap = d2 + d1 / rs
    out = D * D * bilap + 2.0 * gamma * D * lap + gamma * gamma * phi
    if np.any(v):
        vd = d @ v
        vv = float(v @ v)
        out -= d2 * vd**2 / rs**2 + d1 * (vv / rs - vd**2 / rs**3)
    if f0 is not None:
        out[z] = (
            D * D * (8.0 / 3.0) * f0[4]
            + 4.0 * gamma * D * f0[2]
            + gamma * gamma * f0[0]
            - f0[2] * float(v @ v)
        )
    return out


#: (row kind, column kind) -> (block formula, highest radial derivative read)
_FORMULAS = {
    ("value", "value"): (_value_value, 0),
    ("value", "normal"): (_value_normal, 1),
    ("value", "adjoint"): (_value_adjoint, 2),
    ("normal", "value"): (_normal_value, 1),
    ("normal", "normal"): (_normal_normal, 2),
    ("normal", "adjoint"): (_normal_adjoint, 3),
    ("op", "value"): (_op_value, 2),
    ("op", "normal"): (_op_normal, 3),
    ("op", "adjoint"): (_op_adjoint, 4),
}


def _group(group, kinds):
    """(kind, points, normals or None), arrays as float rows of shape (m, 2)."""
    kind = group[0]
    if kind not in kinds or len(group) != (3 if kind == "normal" else 2):
        raise ValueError(
            f"collocation group must be (kind, points) with kind in {kinds}, "
            f"plus normals for 'normal'; got {group[:1]!r}"
        )
    arrays = [np.atleast_2d(np.asarray(a, dtype=float)) for a in group[1:]]
    return kind, arrays[0], arrays[1] if kind == "normal" else None


def _block(op, kernel, row, col, shared: dict) -> np.ndarray:
    (rk, X, nx), (ck, Y, ny) = row, col
    if not (len(X) and len(Y)):
        return np.empty((len(X), len(Y)))
    formula, order = _FORMULAS[rk, ck]
    if order > 2:
        _require_fourth_order(kernel, order)
    g = _Pairs(kernel, X, Y, f"{rk} rows x {ck} columns")
    f = shared.pop((id(Y), id(X), order), None)
    if f is not None:
        f = tuple(a.T for a in f)
    else:
        # plain values are exact at any separation; derivatives are read at
        # the safe radii, whose coincident entries the formulas overwrite
        f = kernel.derivs_upto(g.rs if order else g.r, order)
        if (id(X), id(Y), order) in shared:
            shared[id(X), id(Y), order] = f
    f0 = kernel.derivs_upto(0.0, order) if order and np.any(g.z) else None
    return formula(op, g, f, f0, nx, ny)


def collocation_matrix(op: OperatorSpec | None, kernel: RadialKernel, rows, cols) -> np.ndarray:
    """Hermite collocation matrix of row functionals against column trial functions.

    `rows` lists groups ("value", X), ("normal", X, normals) or ("op", X):
    field values, field-normal derivatives or operator images at the
    points X. `cols` lists groups ("value", Y), ("normal", Y, normals) or
    ("adjoint", Y): kernels, source-normal derivatives or adjoint-operator
    images L* centred at Y. Each (row, column) group pair is one block,
    stacked in list order; `op` may be None when no block involves an
    operator. Empty groups contribute no rows or columns.
    """
    rows = [_group(g, ROW_KINDS) for g in rows]
    cols = [_group(g, COLUMN_KINDS) for g in cols]
    # The radii of Y against X are those of X against Y transposed, bit for
    # bit, so of two transposed blocks of equal derivative order the first
    # one built leaves its kernel derivatives in `shared` for the second.
    keys = {(id(X), id(Y), _FORMULAS[rk, ck][1]) for rk, X, _ in rows for ck, Y, _ in cols}
    shared = {k: None for k in keys if k[0] != k[1] and (k[1], k[0], k[2]) in keys}
    blocks = [[_block(op, kernel, row, col, shared) for col in cols] for row in rows]
    if len(rows) == len(cols) == 1:
        return blocks[0][0]  # a lone block is returned as it is, not copied
    # the output is allocated after the blocks: allocating it first made
    # large assemblies measurably slower
    heights = [len(X) for _, X, _ in rows]
    widths = [len(Y) for _, Y, _ in cols]
    out = np.empty((sum(heights), sum(widths)))
    for i, row in enumerate(blocks):
        for j, block in enumerate(row):
            r0, c0 = sum(heights[:i]), sum(widths[:j])
            out[r0 : r0 + heights[i], c0 : c0 + widths[j]] = block
    return out


def kernel_value_matrix(kernel: RadialKernel, X, Y) -> np.ndarray:
    """phi(|x_i - y_j|)."""
    return collocation_matrix(None, kernel, [("value", X)], [("value", Y)])


def field_normal_matrix(kernel: RadialKernel, X, Y, normals_X) -> np.ndarray:
    """Directional derivative at the field point: phi'(r) (d.n_i)/r."""
    return collocation_matrix(None, kernel, [("normal", X, normals_X)], [("value", Y)])


def source_normal_matrix(kernel: RadialKernel, X, Y, normals_Y) -> np.ndarray:
    """Directional derivative at the source point: -phi'(r) (d.n_j)/r."""
    return collocation_matrix(None, kernel, [("value", X)], [("normal", Y, normals_Y)])


def mixed_normal_matrix(kernel: RadialKernel, X, Y, normals_X, normals_Y) -> np.ndarray:
    """Field-normal derivative of the source-normal derivative."""
    return collocation_matrix(
        None, kernel, [("normal", X, normals_X)], [("normal", Y, normals_Y)]
    )


def operator_image_matrix(op: OperatorSpec, kernel: RadialKernel, X, Y) -> np.ndarray:
    """L applied in the field variable."""
    return collocation_matrix(op, kernel, [("op", X)], [("value", Y)])


def adjoint_image_matrix(op: OperatorSpec, kernel: RadialKernel, X, Y) -> np.ndarray:
    """L* applied in the field variable (the Hermite trial basis)."""
    return collocation_matrix(op, kernel, [("value", X)], [("adjoint", Y)])


def operator_source_normal_matrix(
    op: OperatorSpec, kernel: RadialKernel, X, Y, normals_Y
) -> np.ndarray:
    """L (field) applied to the source-normal basis column."""
    return collocation_matrix(op, kernel, [("op", X)], [("normal", Y, normals_Y)])


def adjoint_normal_image_matrix(
    op: OperatorSpec, kernel: RadialKernel, X, Y, normals_X
) -> np.ndarray:
    """Field-normal derivative of the L* image (boundary rows on trial columns)."""
    return collocation_matrix(op, kernel, [("normal", X, normals_X)], [("adjoint", Y)])


def ll_star_matrix(op: OperatorSpec, kernel: RadialKernel, X, Y) -> np.ndarray:
    """L L* applied to the kernel."""
    return collocation_matrix(op, kernel, [("op", X)], [("adjoint", Y)])


def _require_fourth_order(kernel: RadialKernel, order: int):
    if kernel.top_order < order:
        need = "third" if order == 3 else "third and fourth"
        raise KernelSmoothnessError(
            f"kernel {kernel.name} lacks the {need} radial derivatives "
            "needed by fourth-order schemes"
        )
    if abs(kernel.derivs_upto(0.0, 1)[1]) > 1e-12:
        raise KernelSmoothnessError(
            f"kernel {kernel.name} has a kink at the origin (phi'(0) != 0)"
        )


# ---------------------------------------------------------------------------
# scalar operations
# ---------------------------------------------------------------------------


def apply_radial_operator(op: OperatorSpec, kernel: RadialKernel, x, x_s) -> float:
    """L{phi(|x - x_s|)} evaluated at the field point x."""
    out = operator_image_matrix(op, kernel, np.asarray(x)[None, :], np.asarray(x_s)[None, :])
    return float(out[0, 0])


def normal_derivative(kernel: RadialKernel, x, x_s, n, side: str = "field") -> float:
    """Directional derivative along n, taken at the field or source point.

    The source-side value is the exact negation of the field-side value.
    """
    x = np.asarray(x, dtype=float)
    x_s = np.asarray(x_s, dtype=float)
    n = np.asarray(n, dtype=float)
    d = x - x_s
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise SingularityError("normal derivative undefined at zero separation")
    fieldval = kernel.derivs_upto(r, 1)[1] * float(d @ n) / r
    if side == "field":
        return fieldval
    if side == "source":
        return -fieldval
    raise ValueError(f"side must be 'field' or 'source', got {side!r}")


def mixed_normal_second_derivative(kernel: RadialKernel, x, x_s, n_x, n_s) -> float:
    """Field-normal derivative of the source-normal derivative."""
    x = np.asarray(x, dtype=float)
    x_s = np.asarray(x_s, dtype=float)
    if np.array_equal(x, x_s):
        raise SingularityError("mixed normal derivative undefined at zero separation")
    out = mixed_normal_matrix(
        kernel,
        x[None, :],
        x_s[None, :],
        np.asarray(n_x, dtype=float)[None, :],
        np.asarray(n_s, dtype=float)[None, :],
    )
    return float(out[0, 0])


def homogeneous_residual(op: OperatorSpec, kernel: RadialKernel, radii=(0.5, 1.0, 2.0)) -> float:
    """Max |L{phi}| over sample radii, normalized by max(1, |phi|)."""
    worst = 0.0
    for r in radii:
        phi, d1, d2 = kernel.derivs_upto(r, 2)
        val = op.diff_coeff * (d2 + d1 / r) + op.reaction * phi
        worst = max(worst, abs(val) / max(1.0, abs(phi)))
    return worst
