"""Governing operators applied analytically to radial kernels.

Supported operators have the form L = D*Lap + gamma - v.grad with
constant coefficients: the 2D Laplacian (D=1, gamma=0), Helmholtz
(gamma=+k^2), modified Helmholtz (gamma=-k^2) and convection-diffusion
(D, velocity v). The adjoint-sign variant L* flips the velocity.

Every kernel functional of every scheme is evaluated by one function,
`collocation_matrices` (any number of kernels; `collocation_matrix` is its
one-kernel case): rows are field values, field-normal derivatives or
operator images L, columns are kernels, source-normal derivatives or
adjoint images L*, and each of the nine (row, column) pairs is one
analytic block formula, up to L L* (which needs third and fourth radial
derivatives), built in cache-sized row tiles of one pairwise geometry
and one derivative pass each, straight into the output. A block of at
least four tiles whose kernels have no pole is shared round-robin by
k = min(CORES, tiles / 2, MAX_THREADS) threads through `share`, which
runs its first task on the caller and the others on the package's one
thread pool of MAX_THREADS - 1 workers (`CORES` is the size of the
process's CPU affinity set; `lsq` factors the second row block of a
large least-squares system through `share` too). The pool is built at
import, starts no thread before its first task, and is built afresh in
a forked child; NumPy, SciPy and LAPACK release the interpreter lock in
their loops. Each thread takes tiles of 2 TILE / k elements, so the
tiles in flight hold two serial tiles' memory on any machine. Every
entry is an elementwise function of its own pair, and the BLAS products
of the row normals are taken once per block, so neither the tiling nor
the thread count changes a bit. The other blocks are built by the caller
alone, tile by tile in order: a singular kernel's pole must be refused in
the first tile that holds it, and blocks of two or three tiles ran
slower end to end when shared. Freed tile memory stays in the process:
under glibc, the package pins malloc's mmap and trim thresholds at import
(32 and 64 MiB, where glibc's own dynamic threshold ends up), so a tile's
temporaries reuse pages the tile before faulted in; other C libraries keep
their allocator's behaviour. Coincident field/source pairs (r below 1e-8)
are patched with the analytic limits, read from that same pass at r = 0
(every smooth kernel's generator returns its r = 0 limits); for smooth
radial kernels the gradient at the origin is the zero vector and the
Laplacian limit is 2*phi''(0), so a tile with coincident pairs refuses a
kernel whose r = 0 values are not such limits (`_origin_defect`). Every
solved field of every scheme is an `Expansion`, a sum of kernel
expansions evaluated through the same function, and the check
`homogeneous_residual` is one call of it too.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from itertools import accumulate, groupby
from typing import NamedTuple

import numpy as np

from .errors import KernelSmoothnessError, ParameterError, SingularityError
from .kernels import RadialKernel, derivs_upto_many

#: below this separation a field/source pair is treated as coincident
COINCIDENT_TOL = 1e-8

#: most elements in one row tile of a block, so that a tile's eight or so
#: live float64 temporaries (256 KiB each) stay in a 2 MiB per-core L2. On
#: a 2-core machine, tiles of 8K, 16K, 24K and 32K elements shared by both
#: cores built the (128, 1024) mixed-BC MKM system in 93, 65, 54 and 51 ms
#: (81 ms on one core). A block shared by k threads takes tiles of
#: 2 TILE / k elements; with `_Pairs` keeping no difference planes where a
#: block projects none, the tiles in flight keep that assembly's memory
#: peak under 1.5x its matrix. Under glibc only, freed temporaries of this
#: size stay on the heap (`_pin_heap_thresholds`), so the next tile finds
#: their pages already faulted in
TILE = 2**15

#: cores this process may run on, which share the row tiles of large blocks
CORES = len(os.sched_getaffinity(0))

#: most threads, the caller included, that share one block's tiles, so
#: that a shared tile of 2 TILE / k elements keeps 16K or more (see TILE)
MAX_THREADS = 4


def _build_pool():
    # built at import, starting no thread before its first task; a forked child has none
    # of its parent's threads, so it builds a pool of its own
    global _POOL
    _POOL = ThreadPoolExecutor(MAX_THREADS - 1, "rbfbench-worker")


_build_pool()
os.register_at_fork(after_in_child=_build_pool)


def _pin_heap_thresholds():
    # glibc starts both thresholds at 128 KiB, so a tile's 256 KiB temporaries are mmapped
    # or trimmed back to the OS when freed, and the next tile faults them in again; pin
    # them where glibc's dynamic threshold ends up anyway (M_MMAP_THRESHOLD at its 32 MiB
    # maximum, M_TRIM_THRESHOLD at twice that). Either alone leaves the faults. A forked
    # child inherits the setting; a libc without mallopt keeps its own behaviour
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_heap_thresholds()


def share(tasks):
    """Run tasks[0] on the calling thread and the other tasks on the package's
    pool; the results in task order. Every task has finished before this
    returns or raises, and the caller's own error comes before a worker's."""
    futures = [_POOL.submit(task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


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
        # a setting the kind does not read would be silently ignored
        if self.k and self.kind in ("laplace_2d", "convection_diffusion_2d"):
            raise ParameterError(f"operator {self.kind!r} takes no wavenumber, got k = {self.k}")
        if self.kind != "convection_diffusion_2d" and (self.diffusivity != 1 or any(self.velocity)):
            raise ParameterError(f"operator {self.kind!r} takes no diffusivity or velocity")
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
        return self.diffusivity

    @property
    def velocity_vec(self) -> np.ndarray:
        return np.asarray(self.velocity, dtype=float)


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

    x_i - y_j is held as two C-contiguous (m, n) planes `dx` and `dy`, with
    length `r`; `dot(w)` projects it on `w`, whose last axis of length 2
    broadcasts. Without `planes` only `r` is kept, two arrays fewer for
    blocks that project nothing. The coincident mask `z` (r <
    COINCIDENT_TOL) and the safe divisor `rs` are computed on first use,
    since plain kernel values need neither; `rs` is `r` itself with its
    coincident entries set to 1 in place, so `r` is read (by the
    derivative pass) before `rs`. `nn` is n_x.n_y of normal rows against
    normal columns, n_x.v (one column) of normal rows against adjoint
    columns under velocity v, else None. Refuses poles of singular kernels.
    """

    def __init__(
        self, kernel: RadialKernel, X: np.ndarray, Y: np.ndarray, what: str, nn=None, planes=True
    ):
        self.nn = nn
        self.dx = X[:, :1] - Y[:, 0]
        self.dy = X[:, 1:] - Y[:, 1]
        # the rounding of the two-term sum of squares, not hypot's
        self.r = self.dx * self.dx
        self.r += self.dy * self.dy
        np.sqrt(self.r, out=self.r)
        if not planes:
            del self.dx, self.dy
        if kernel.singular_at_origin and self.z.any():
            raise SingularityError(
                f"{what}: coincident points hit the pole of kernel {kernel.name}"
            )

    def dot(self, w: np.ndarray) -> np.ndarray:
        """(x_i - y_j).w: w is (m, 1, 2) per row, (n, 2) per column or (2,)."""
        return self.dx * w[..., 0] + self.dy * w[..., 1]

    @cached_property
    def z(self) -> np.ndarray:
        return self.r < COINCIDENT_TOL

    @cached_property
    def rs(self) -> np.ndarray:
        if self.z.any():
            np.copyto(self.r, 1.0, where=self.z)
        return self.r


# Each block formula reads `g`, the `_Pairs` of its points (d = x_i - y_j
# below, d.w = g.dot(w); `g.rs` may be `g.r` itself, so neither is written
# into) and `f`, the kernel's radial derivatives at the pair radii `g.r`,
# which `_block` first sets to 0 on the coincident mask `g.z` (phi, phi',
# ... up to the order `_FORMULAS` lists). Every smooth kernel's generator
# returns its r = 0 limits, so a formula patches the coincident entries
# with analytic limits read there (`_block` refuses any other kernel).


def _value_value(op, g, f, nx, ny):
    return f[0]


def _normal_value(op, g, f, nx, ny):
    # directional derivative at the field point: phi'(r) (d.n_x)/r
    proj = g.dot(nx[:, None])
    out = f[1] * proj / g.rs
    out[g.z] = 0.0
    return out


def _value_normal(op, g, f, nx, ny):
    # directional derivative at the source point: -phi'(r) (d.n_y)/r
    proj = g.dot(ny)
    out = -f[1] * proj / g.rs
    out[g.z] = 0.0
    return out


def _normal_normal(op, g, f, nx, ny):
    # field-normal derivative of the source-normal derivative; symmetric
    # under the swap (x, n_x) <-> (y, n_y), coincident limit -phi''(0) n_x.n_y
    rs, z = g.rs, g.z
    px, py, nn = g.dot(nx[:, None]), g.dot(ny), g.nn
    _, d1, d2 = f
    out = -(d2 * py * px / rs**2 + d1 * (nn / rs - py * px / rs**3))
    if z.any():
        out[z] = -d2[z] * nn[z]
    return out


def _op_value(op, g, f, nx, ny):
    # L in the field variable: D*(phi'' + phi'/r) + gamma*phi - phi' (v.d)/r; a factor
    # D = 1 and a term gamma*phi with gamma = 0 are skipped, which changes no bit
    rs, z = g.rs, g.z
    phi, d1, d2 = f
    D, gamma, v = op.diff_coeff, op.reaction, op.velocity_vec
    out = d1 / rs
    out += d2
    if D != 1.0:
        out *= D
    if gamma:
        out += gamma * phi
    if np.any(v):
        out -= d1 * g.dot(v) / rs
    if z.any():
        out[z] = 2.0 * D * d2[z] + gamma * phi[z]
    return out


def _value_adjoint(op, g, f, nx, ny):
    # the adjoint-image trial function L* phi, valued at the field point
    return _op_value(adjoint_of(op), g, f, nx, ny)


def _normal_image(op, g, f, p, vn, sign):
    # a normal derivative of an operator image, p = d.n for the normal n and vn = v.n:
    # sign (D Lap(phi)' + gamma phi') p/r + (phi'' - phi'/r) p (v.d)/r^2 + phi' vn/r, where
    # Lap(phi)' = phi''' + (phi'' - phi'/r)/r; coincident limit phi''(0) vn. Built in place;
    # a factor D = 1 and a term gamma = 0 are skipped
    rs, z = g.rs, g.z
    _, d1, d2, d3 = f
    D, gamma, v = op.diff_coeff, op.reaction, op.velocity_vec
    out = d1 / rs
    np.subtract(d2, out, out=out)  # phi'' - phi'/r
    transport = None
    if np.any(v):
        transport = g.dot(v)
        transport *= out
        transport /= rs
    out /= rs
    out += d3
    if D != 1.0:
        out *= D
    if gamma:
        out += gamma * d1
    if sign < 0:
        np.negative(out, out=out)
    if transport is not None:
        out += transport
    out *= p
    vn = np.broadcast_to(vn, out.shape)
    if transport is not None:
        out += d1 * vn
    out /= rs
    if z.any():
        out[z] = d2[z] * vn[z]
    return out


def _op_normal(op, g, f, nx, ny):
    # L (field) applied to the source-normal column
    return _normal_image(op, g, f, g.dot(ny), ny @ op.velocity_vec, -1)


def _normal_adjoint(op, g, f, nx, ny):
    # field-normal derivative of the L* image
    return _normal_image(op, g, f, g.dot(nx[:, None]), g.nn, 1)


def _op_adjoint(op, g, f, nx, ny):
    # L L* phi: D^2 Lap^2 + 2 gamma D Lap + gamma^2 - (v.grad)^2 with, by Horner's rule in 1/r,
    # Lap^2 phi = phi'''' + 2 phi'''/r - phi''/r^2 + phi'/r^3 = ((phi'/r - phi'')/r + 2 phi''')/r
    # + phi''''. Built in place; a factor D = 1 and the terms of gamma = 0 are skipped
    rs, z = g.rs, g.z
    phi, d1, d2, d3, d4 = f
    D, gamma, v = op.diff_coeff, op.reaction, op.velocity_vec
    vv = float(v @ v)
    out = d1 / rs
    out -= d2  # phi'/r - phi''
    transport = None
    if np.any(v):
        # -(v.grad)^2 phi = ((phi'/r - phi'') (v.d)^2/r - phi' |v|^2)/r
        transport = g.dot(v)
        transport *= transport
        transport *= out
        transport /= rs
        transport -= d1 * vv
        transport /= rs
    out /= rs
    out += d3
    out += d3
    out /= rs
    out += d4
    if D != 1.0:
        out *= D * D
    if gamma:
        lap = d1 / rs
        lap += d2
        lap *= 2.0 * D
        lap += gamma * phi
        lap *= gamma
        out += lap
    if transport is not None:
        out += transport
    if z.any():
        out[z] = (
            D * D * (8.0 / 3.0) * d4[z]
            + 4.0 * gamma * D * d2[z]
            + gamma * gamma * phi[z]
            - d2[z] * vv
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


def _block(op, kernels, pole, row, col, outs):
    # row tiles of at most TILE elements, each of one geometry (refusing coincident pairs
    # if `pole` is singular) and one derivative pass for every kernel, the formula's arrays
    # written into the `outs` views (`outs` None: a block of one tile returns them)
    (rk, X, nx), (ck, Y, ny) = row, col
    if not (len(X) and len(Y)):
        return
    formula, order = _FORMULAS[rk, ck]
    if order > 2:
        for kernel in kernels:
            _require_fourth_order(kernel, order)
    # BLAS rounds a row slice of nx @ ny.T, and a one-row slice of nx @ v, unlike the
    # whole product, so the block's product of its row normals is taken once and sliced
    nn = None
    if rk == ck == "normal":
        nn = nx @ ny.T
    elif (rk, ck) == ("normal", "adjoint"):
        nn = (nx @ op.velocity_vec)[:, None]
    # the formulas project x - y on normals and on a convection velocity only
    planes = "normal" in (rk, ck) or (op is not None and op.kind == "convection_diffusion_2d")
    step, what = max(1, TILE // len(Y)), f"{rk} rows x {ck} columns"

    def tile(rows):
        g = _Pairs(pole, X[rows], Y, what, nn if nn is None else nn[rows], planes)
        if order and g.z.any():  # coincident pairs read the kernels' exact r = 0 limits
            for kernel in kernels:
                if defect := _origin_defect(kernel, order):
                    raise KernelSmoothnessError(f"{what} at coincident points: {defect}")
            np.copyto(g.r, 0.0, where=g.z)
        fs = derivs_upto_many(kernels, g.r, order)
        tx = nx if nx is None else nx[rows]
        if outs is None:
            return [formula(op, g, f, tx, ny) for f in fs]
        for out, f in zip(outs, fs):
            out[rows] = formula(op, g, f, tx, ny)

    if outs is None:
        return tile(slice(None))
    # a pole is refused in the first tile that holds it, so the caller builds a singular
    # kernel's block alone, tile by tile in order, and so a block of under two tiles per
    # thread; the others are shared round-robin by k threads taking tiles of 2 TILE / k
    # elements, two serial tiles' memory in flight whatever CORES is
    k = min(CORES, -(-len(X) // step) // 2, MAX_THREADS)
    if pole.singular_at_origin or k < 2:
        return _build(tile, range(0, len(X), step), step)
    step = max(1, 2 * TILE // (k * len(Y)))
    starts = range(0, len(X), step)
    share([partial(_build, tile, starts[w::k], step) for w in range(k)])


def _build(tile, starts, step):
    for i in starts:
        tile(slice(i, i + step))


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
    return collocation_matrices(op, [kernel], rows, cols)[0]


def collocation_matrices(op: OperatorSpec | None, kernels, rows, cols) -> list:
    """`[collocation_matrix(op, kernel, rows, cols) for kernel in kernels]`, bit
    for bit, from one pairwise geometry and one derivative pass per block tile,
    each block written straight into its place in the stacked matrices."""
    rows = [_group(g, ROW_KINDS) for g in rows]
    cols = [_group(g, COLUMN_KINDS) for g in cols]
    pole = next((kern for kern in kernels if kern.singular_at_origin), kernels[0])
    r0 = list(accumulate((len(X) for _, X, _ in rows), initial=0))
    c0 = list(accumulate((len(Y) for _, Y, _ in cols), initial=0))
    if len(rows) == len(cols) == 1 and 0 < r0[-1] * c0[-1] <= TILE:
        return _block(op, kernels, pole, rows[0], cols[0], None)  # no copy into fresh pages
    outs = [np.empty((r0[-1], c0[-1])) for _ in kernels]
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            views = [out[r0[i] : r0[i + 1], c0[j] : c0[j + 1]] for out in outs]
            _block(op, kernels, pole, row, col, views)
    return outs


class Term(NamedTuple):
    """One kernel expansion: coefficients over the column groups `columns`."""

    op: OperatorSpec | None
    kernel: RadialKernel
    columns: list
    coefficients: np.ndarray


@dataclass
class Expansion:
    """A solved field: the sum of its terms' kernel expansions.

    `cond_est` is the condition estimate of the solve that produced the
    coefficients.
    """

    terms: list
    cond_est: float

    def traces(self, rows) -> np.ndarray:
        """The field under the collocation row groups `rows`, summed term by term;
        consecutive terms on one `op` and one `columns` object share one pass.
        Terms whose coefficients are all zero add nothing and are skipped (one
        is kept when all are, for the shape of the result)."""
        terms = [t for t in self.terms if np.any(t.coefficients)] or self.terms[:1]
        total = 0
        for _, run in groupby(terms, key=lambda t: (t.op, id(t.columns))):
            run = list(run)
            mats = collocation_matrices(run[0].op, [t.kernel for t in run], rows, run[0].columns)
            total = sum((a @ t.coefficients for a, t in zip(mats, run)), total)
        return total

    def evaluate(self, points) -> np.ndarray:
        return self.traces([("value", points)])

    def normal_derivative(self, points, normals) -> np.ndarray:
        return self.traces([("normal", points, normals)])


def kernel_value_matrix(kernel: RadialKernel, X, Y) -> np.ndarray:
    """phi(|x_i - y_j|)."""
    return collocation_matrix(None, kernel, [("value", X)], [("value", Y)])


def mixed_normal_matrix(kernel: RadialKernel, X, Y, normals_X, normals_Y) -> np.ndarray:
    """Field-normal derivative of the source-normal derivative."""
    return collocation_matrix(
        None, kernel, [("normal", X, normals_X)], [("normal", Y, normals_Y)]
    )


def operator_image_matrix(op: OperatorSpec, kernel: RadialKernel, X, Y) -> np.ndarray:
    """L applied in the field variable."""
    return collocation_matrix(op, kernel, [("op", X)], [("value", Y)])


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


@lru_cache(maxsize=256)
def _origin_defect(kernel: RadialKernel, order: int) -> str:
    """Why a block reading derivatives up to `order` cannot patch coincident pairs with
    `kernel`'s r = 0 values ('' if it can): one is not finite, or phi'(0) is not 0.
    Cached per kernel and order: a kernel's equality covers its generator, so no
    kernel reads another's verdict."""
    with np.errstate(all="ignore"):  # MQ with c = 0 is phi = r, whose phi'(0) is 0/0
        limits = kernel.derivs_upto(0.0, order)
    if all(map(math.isfinite, limits)) and abs(limits[1]) <= 1e-12:
        return ""
    shown = ", ".join(f"{v:g}" for v in limits)
    return f"kernel {kernel.name} is not smooth at the origin (phi, phi', ... at r = 0: {shown})"


#: where `homogeneous_residual` samples: radii 0.5, 1 and 2 along both axes,
#: so that a velocity along either axis shows in L{phi}
_RESIDUAL_POINTS = np.array(
    [(0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]
)


def homogeneous_residual(op: OperatorSpec, kernel: RadialKernel) -> float:
    """Max |L{phi}| over the sample points, each normalized by max(1, |phi|).

    phi is the kernel centred at the origin and L the full operator, its
    convection term included; a homogeneous solution of L leaves roundoff.
    """
    rows = [("op", _RESIDUAL_POINTS), ("value", _RESIDUAL_POINTS)]
    image, phi = collocation_matrix(op, kernel, rows, [("value", np.zeros((1, 2)))]).reshape(2, -1)
    return float(np.max(np.abs(image) / np.maximum(1.0, np.abs(phi))))
