"""Manufactured benchmark problems.

Each problem fixes a domain, an operator, an analytic exact solution,
and the source term derived from it, so every solver run has an exact
error. A finite-difference consistency check (fourth-order stencils)
guards against typos in the hand-derived data: the operator applied to
the exact solution must reproduce the source term at random probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .geometry import DomainSpec, distance_to_boundary
from .operators import OperatorSpec, helmholtz, laplace

#: stencil step for the manufactured-solution consistency check
_FD_H = 5e-3

CONSISTENCY_TOL = 1e-8
CONSISTENCY_PROBES = 100


@dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    domain: DomainSpec
    operator: Optional[OperatorSpec]
    exact: Callable  # (P,2) -> (P,)
    exact_grad: Optional[Callable]  # (P,2) -> (P,2)
    f: Callable  # (P,2) -> (P,): L{exact}, zero when homogeneous; exact itself for a fit
    bc_rule: tuple  # Dirichlet parameter intervals
    methods: frozenset
    f_chain: Optional[tuple] = None
    f_grad_chain: Optional[tuple] = None

    @property
    def kind(self) -> str:  # derived from the operator: "fit" when it is None
        return "fit" if self.operator is None else "pde"

    def f_samples(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.f(points), dtype=float)


def _fd_operator_image(op: OperatorSpec, fn: Callable, pts: np.ndarray) -> np.ndarray:
    """Fourth-order finite-difference image of L{fn} at pts."""
    h = _FD_H
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])

    def lap1(e):
        return (
            -fn(pts + 2 * e)
            + 16.0 * fn(pts + e)
            - 30.0 * fn(pts)
            + 16.0 * fn(pts - e)
            - fn(pts - 2 * e)
        ) / (12.0 * h * h)

    out = op.diff_coeff * (lap1(ex) + lap1(ey)) + op.reaction * fn(pts)
    v = op.velocity_vec
    if np.any(v):
        for vi, e in zip(v, (ex, ey)):
            if vi:
                out -= vi * (
                    -fn(pts + 2 * e) + 8.0 * fn(pts + e) - 8.0 * fn(pts - e) + fn(pts - 2 * e)
                ) / (12.0 * h)
    return out


@lru_cache(maxsize=64)  # the problem is frozen and hashes by its fields, callables by identity
def consistency_residual(problem: BenchmarkProblem) -> float:
    """Max |L{exact} - f| over seeded random probes inside the domain."""
    if problem.kind != "pde":
        return 0.0
    rng = np.random.default_rng(20231118)
    (xlo, xhi), (ylo, yhi) = problem.domain.bounding_box
    probes = []
    while len(probes) < CONSISTENCY_PROBES:
        cand = rng.uniform((xlo, ylo), (xhi, yhi), size=(4 * CONSISTENCY_PROBES, 2))
        cand = cand[distance_to_boundary(problem.domain, cand) > 0.05]
        probes.extend(cand.tolist())
    pts = np.array(probes[:CONSISTENCY_PROBES])
    image = _fd_operator_image(problem.operator, problem.exact, pts)
    return float(np.max(np.abs(image - problem.f(pts))))


def check_consistency(problem: BenchmarkProblem):
    res = consistency_residual(problem)
    if res > CONSISTENCY_TOL:
        raise ConfigError(
            f"problem {problem.name!r} is inconsistent: |L{{u}} - f| = {res:.3e}"
        )


# ---------------------------------------------------------------------------
# the default suite
# ---------------------------------------------------------------------------


def _helmholtz_disk() -> BenchmarkProblem:
    k = 2.0

    def exact(p):
        return np.sin(k * p[:, 0])

    def grad(p):
        return np.column_stack([k * np.cos(k * p[:, 0]), np.zeros(len(p))])

    return BenchmarkProblem(
        name="helmholtz_disk",
        domain=DomainSpec("unit_disk"),
        operator=helmholtz(k),
        exact=exact,
        exact_grad=grad,
        f=_const_fn(0.0),
        bc_rule=((0.0, 0.5),),
        methods=frozenset({"bkm", "bkm_direct", "bpm", "mkm", "kansa", "lsq"}),
        f_chain=tuple(_const_fn(0.0) for _ in range(4)),
        f_grad_chain=tuple(_zero_grad for _ in range(4)),
    )


def _const_fn(value: float) -> Callable:
    def fn(p):
        return np.full(len(np.atleast_2d(p)), value)

    return fn


def _zero_grad(p):
    return np.zeros_like(np.atleast_2d(p))


def _helmholtz_disk_inhom() -> BenchmarkProblem:
    # exact u = sin(x) + 1/k^2 with k = 1; source term is the constant 1,
    # whose operator powers stay constant: L^j{1} = k^(2j). Dirichlet data
    # everywhere: the reciprocity recursion's intermediate boundary-value
    # problems are smooth only when no Dirichlet/Neumann junction exists.
    k = 1.0

    def exact(p):
        return np.sin(p[:, 0]) + 1.0

    def grad(p):
        return np.column_stack([np.cos(p[:, 0]), np.zeros(len(p))])

    chain = tuple(_const_fn(k ** (2 * j)) for j in range(4))  # L^j{f}, f = 1

    return BenchmarkProblem(
        name="helmholtz_disk_inhom",
        domain=DomainSpec("unit_disk"),
        operator=helmholtz(k),
        exact=exact,
        exact_grad=grad,
        f=_const_fn(1.0),
        bc_rule=((0.0, 1.0),),
        methods=frozenset({"bkm", "bkm_direct", "bpm", "mkm", "kansa", "lsq"}),
        f_chain=chain,
        f_grad_chain=tuple(_zero_grad for _ in range(4)),
    )


def _poisson_square() -> BenchmarkProblem:
    def exact(p):
        return np.exp(p[:, 0]) * np.sin(p[:, 1])

    def grad(p):
        ex = np.exp(p[:, 0])
        return np.column_stack([ex * np.sin(p[:, 1]), ex * np.cos(p[:, 1])])

    return BenchmarkProblem(
        name="poisson_square",
        domain=DomainSpec("rectangle", 1.0, 1.0),
        operator=laplace(),
        exact=exact,
        exact_grad=grad,
        f=_const_fn(0.0),
        bc_rule=((0.0, 0.75),),
        methods=frozenset({"mkm", "kansa", "lsq"}),
    )


def _poisson_square_inhom() -> BenchmarkProblem:
    def exact(p):
        return p[:, 0] ** 2 * p[:, 1]

    def grad(p):
        return np.column_stack([2.0 * p[:, 0] * p[:, 1], p[:, 0] ** 2])

    def f(p):
        return 2.0 * p[:, 1]

    return BenchmarkProblem(
        name="poisson_square_inhom",
        domain=DomainSpec("rectangle", 1.0, 1.0),
        operator=laplace(),
        exact=exact,
        exact_grad=grad,
        f=f,
        bc_rule=((0.0, 0.75),),
        methods=frozenset({"mkm", "kansa", "lsq"}),
    )


def _step_fit() -> BenchmarkProblem:
    # data-fitting stress case: a jump along the first coordinate; global
    # interpolation overshoots near the jump, least squares is tamer
    def target(p):
        return np.where(p[:, 0] >= 0.5, 1.0, 0.0)

    return BenchmarkProblem(
        name="step_fit",
        domain=DomainSpec("rectangle", 1.0, 1.0),
        operator=None,
        exact=target,
        exact_grad=None,
        f=target,
        bc_rule=((0.0, 1.0),),
        methods=frozenset({"lsq"}),
    )


_FACTORIES = {
    "helmholtz_disk": _helmholtz_disk,
    "helmholtz_disk_inhom": _helmholtz_disk_inhom,
    "poisson_square": _poisson_square,
    "poisson_square_inhom": _poisson_square_inhom,
    "step_fit": _step_fit,
}

PROBLEM_NAMES = tuple(_FACTORIES)


@lru_cache(maxsize=len(_FACTORIES))  # one instance per name, so memos keyed by it hit
def get_problem(name: str) -> BenchmarkProblem:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(f"unknown problem {name!r}; known: {', '.join(PROBLEM_NAMES)}")
    return factory()
