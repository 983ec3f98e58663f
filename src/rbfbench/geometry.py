"""Deterministic node generation on benchmark domains.

Boundary points are equispaced in a normalized boundary parameter
t in [0, 1); interior points come from a seeded scrambled Halton
sequence rejected against a small safety margin from the boundary.
Everything is reproducible bit-for-bit from (domain, counts, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import qmc

from .errors import GeometryError, InvalidDomainError, PartitionError

#: rejection margin keeping interior points strictly inside the domain
INTERIOR_MARGIN = 1e-9

#: fraction of the domain diameter that counts as "adjacent to the boundary"
BOUNDARY_BAND_FRACTION = 0.1


@dataclass(frozen=True)
class DomainSpec:
    """Benchmark domain: the unit disk or an axis-aligned rectangle.

    The rectangle spans [0, width] x [0, height]; the disk is centered
    at the origin with radius 1. All lengths are dimensionless.
    """

    shape: str  # "unit_disk" | "rectangle"
    width: float = 1.0
    height: float = 1.0

    def __post_init__(self):
        if self.shape not in ("unit_disk", "rectangle"):
            raise InvalidDomainError(f"unknown domain shape {self.shape!r}")
        if self.shape == "rectangle" and (self.width <= 0 or self.height <= 0):
            raise InvalidDomainError(
                f"rectangle({self.width}, {self.height}) has no area"
            )

    @property
    def diameter(self) -> float:
        if self.shape == "unit_disk":
            return 2.0
        return float(np.hypot(self.width, self.height))

    @property
    def bounding_box(self) -> tuple[tuple[float, float], tuple[float, float]]:
        if self.shape == "unit_disk":
            return ((-1.0, 1.0), (-1.0, 1.0))
        return ((0.0, self.width), (0.0, self.height))


@dataclass(frozen=True)
class NodeSet:
    """Collocation nodes: interior points plus boundary points with normals.

    Boundary indices are split into a Dirichlet part and a Neumann part;
    the two lists are disjoint and together cover every boundary point.
    `boundary_params` keeps the parameter t of each boundary point so the
    partition can be recomputed from interval rules.
    """

    domain: DomainSpec
    interior: np.ndarray  # (N, 2)
    boundary: np.ndarray  # (L, 2)
    normals: np.ndarray  # (L, 2), unit outward
    boundary_params: np.ndarray  # (L,)
    dirichlet_idx: np.ndarray  # (L_D,) int
    neumann_idx: np.ndarray  # (L_N,) int

    def __post_init__(self):
        L = len(self.boundary)
        if len(self.dirichlet_idx) + len(self.neumann_idx) != L:
            raise PartitionError("partition does not cover the boundary")
        if np.intersect1d(self.dirichlet_idx, self.neumann_idx).size:
            raise PartitionError("Dirichlet and Neumann index sets overlap")
        norms = np.linalg.norm(self.normals, axis=1)
        if L and np.max(np.abs(norms - 1.0)) > 1e-12:
            raise GeometryError("boundary normals are not unit length")

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)

    def all_points(self) -> np.ndarray:
        """Interior nodes followed by boundary nodes, shape (N+L, 2)."""
        return np.vstack([self.interior, self.boundary])

    @property
    def dirichlet_points(self) -> np.ndarray:
        return self.boundary[self.dirichlet_idx]

    @property
    def neumann_points(self) -> np.ndarray:
        return self.boundary[self.neumann_idx]

    @property
    def dirichlet_normals(self) -> np.ndarray:
        return self.normals[self.dirichlet_idx]

    @property
    def neumann_normals(self) -> np.ndarray:
        return self.normals[self.neumann_idx]


#: outward normals of the rectangle's edges, in boundary-parameter order
_EDGE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


def _boundary_point(domain: DomainSpec, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map parameters t in [0,1) to boundary points and outward normals."""
    t = np.asarray(t, dtype=float)
    if domain.shape == "unit_disk":
        theta = 2.0 * np.pi * t
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        return pts, pts.copy()

    # edges in parameter order: bottom left-to-right, right upward, top
    # right-to-left, left downward
    w, h = domain.width, domain.height
    s = t * (2.0 * (w + h))
    edge = np.searchsorted([w, w + h, 2 * w + h], s, side="right")
    x = np.choose(edge, [s, w, w - (s - w - h), 0.0])
    y = np.choose(edge, [0.0, s - w, h, h - (s - 2 * w - h)])
    return np.column_stack([x, y]), _EDGE_NORMALS[edge]


def _corner_params(domain: DomainSpec) -> np.ndarray:
    if domain.shape == "unit_disk":
        return np.empty(0)
    w, h = domain.width, domain.height
    perim = 2.0 * (w + h)
    return np.array([0.0, w, w + h, 2 * w + h]) / perim


def distance_to_boundary(domain: DomainSpec, points: np.ndarray) -> np.ndarray:
    """Signed-magnitude distance from points to the boundary (inside only)."""
    pts = np.atleast_2d(points)
    if domain.shape == "unit_disk":
        return 1.0 - np.linalg.norm(pts, axis=1)
    w, h = domain.width, domain.height
    x, y = pts[:, 0], pts[:, 1]
    return np.minimum.reduce([x, w - x, y, h - y])


def boundary_band_mask(domain: DomainSpec, points: np.ndarray) -> np.ndarray:
    """True for points within 10% of the domain diameter of the boundary."""
    band = BOUNDARY_BAND_FRACTION * domain.diameter
    return distance_to_boundary(domain, points) <= band


def generate_nodes(
    domain: DomainSpec, n_boundary: int, n_interior: int, seed: int
) -> NodeSet:
    """Generate a reproducible node set; all boundary points start Dirichlet.

    Boundary points are equispaced in the boundary parameter. On
    rectangles the parameters are offset by half a spacing so corners
    (where the normal is undefined) are never collocation points.
    Interior points are drawn from a scrambled Halton sequence with the
    given seed and rejected within INTERIOR_MARGIN of the boundary.
    """
    if n_boundary < 4:
        raise PartitionError(f"need at least 4 boundary nodes, got {n_boundary}")
    if n_interior < 0:
        raise ValueError("n_interior must be nonnegative")

    if domain.shape == "unit_disk":
        t = np.arange(n_boundary) / n_boundary
    else:
        t = (np.arange(n_boundary) + 0.5) / n_boundary
        corners = _corner_params(domain)
        for c in corners:
            hit = np.abs(t - c) < 1e-12
            t[hit] += 0.25 / n_boundary
    boundary, normals = _boundary_point(domain, t)

    interior = _halton_interior(domain, n_interior, seed)

    return NodeSet(
        domain=domain,
        interior=interior,
        boundary=boundary,
        normals=normals,
        boundary_params=t,
        dirichlet_idx=np.arange(n_boundary),
        neumann_idx=np.empty(0, dtype=int),
    )


def _halton_interior(domain: DomainSpec, n: int, seed: int) -> np.ndarray:
    if n == 0:
        return np.empty((0, 2))
    sampler = qmc.Halton(d=2, scramble=True, seed=seed)
    (xlo, xhi), (ylo, yhi) = domain.bounding_box
    accepted: list[np.ndarray] = []
    count = 0
    while count < n:
        u = sampler.random(max(32, 2 * n))
        pts = np.column_stack(
            [xlo + (xhi - xlo) * u[:, 0], ylo + (yhi - ylo) * u[:, 1]]
        )
        keep = distance_to_boundary(domain, pts) > INTERIOR_MARGIN
        pts = pts[keep]
        accepted.append(pts)
        count += len(pts)
    return np.vstack(accepted)[:n]


def outward_normal(domain: DomainSpec, point) -> np.ndarray:
    """Unit outward normal at a boundary point (within 1e-9 of the boundary)."""
    p = np.asarray(point, dtype=float)
    if domain.shape == "unit_disk":
        rad = np.linalg.norm(p)
        if abs(rad - 1.0) > 1e-9:
            raise GeometryError(f"point {p} is not on the unit circle")
        return p / rad

    w, h = domain.width, domain.height
    x, y = p
    if not (-1e-9 <= x <= w + 1e-9 and -1e-9 <= y <= h + 1e-9):
        raise GeometryError(f"point {p} is outside the rectangle")
    hits = []
    if abs(x) <= 1e-9:
        hits.append((-1.0, 0.0))
    if abs(x - w) <= 1e-9:
        hits.append((1.0, 0.0))
    if abs(y) <= 1e-9:
        hits.append((0.0, -1.0))
    if abs(y - h) <= 1e-9:
        hits.append((0.0, 1.0))
    if not hits:
        raise GeometryError(f"point {p} is not on the rectangle boundary")
    if len(hits) > 1:
        raise GeometryError(f"normal undefined at corner {p}")
    return np.array(hits[0])


def partition_boundary(nodes: NodeSet, dirichlet_intervals) -> NodeSet:
    """Assign boundary points to Dirichlet/Neumann from parameter intervals.

    `dirichlet_intervals` is a list of (a, b) half-open intervals in the
    boundary parameter t in [0, 1]; points with a <= t < b become
    Dirichlet, the complement becomes Neumann. An empty Dirichlet set is
    rejected (pure-Neumann problems are out of scope).
    """
    intervals = [(float(a), float(b)) for a, b in dirichlet_intervals]
    for a, b in intervals:
        if not (0.0 <= a < b <= 1.0):
            raise PartitionError(f"interval ({a}, {b}) outside parameter range [0, 1]")
    t = nodes.boundary_params
    is_d = np.zeros(len(t), dtype=bool)
    for a, b in intervals:
        is_d |= (t >= a) & (t < b)
    d_idx = np.flatnonzero(is_d)
    n_idx = np.flatnonzero(~is_d)
    if len(d_idx) == 0:
        raise PartitionError("Dirichlet set is empty; problem would be ill-posed")
    return replace(nodes, dirichlet_idx=d_idx, neumann_idx=n_idx)


def mean_nearest_neighbor_spacing(points: np.ndarray) -> float:
    """Mean distance from each point to its nearest distinct neighbor."""
    pts = np.atleast_2d(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    dist, _ = cKDTree(pts).query(pts, k=2)
    return float(np.mean(dist[:, 1]))
