"""Traced replay of harness rows through the library's public functions.

The replay walks the same path as one harness row
(``generate_nodes`` -> ``partition_boundary`` -> ``BoundaryData.from_callables``
-> assemble/solve -> ``evaluate`` -> ``compute_errors``) and records a span
around every public call it makes. Public functions that the row path only
reaches from inside another library function (operator builders, kernel
derivatives, the BKM particular fit and symmetric assembly) are timed
standalone on the same node sets and kernels, outside the row span.

Spans are kept in memory as (name, start, end, parent) and turned into
per-layer self times when the pass ends. Nothing here is imported by the
library.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from rbfbench import bkm, bpm, lsq, mkm
from rbfbench.bench import compute_errors, probe_grid
from rbfbench.geometry import boundary_band_mask, generate_nodes, partition_boundary
from rbfbench.kernels import build_kernel, default_shape_parameter, higher_order_solution
from rbfbench.operators import (
    kernel_value_matrix,
    ll_star_matrix,
    mixed_normal_matrix,
    operator_image_matrix,
)
from rbfbench.problems import check_consistency, get_problem
from workloads import BOUNDARY_METHODS

ROW = "bench.row"

#: layer of the solution object whose `evaluate` a method's row calls
EVALUATE_SPAN = {
    "bkm": "bkm.evaluate",
    "bpm": "bpm.evaluate",
    "mkm": "mkm.evaluate",
    "kansa": "mkm.evaluate",
    "lsq": "lsq.evaluate",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    """In-memory span recorder; one per traced pass."""

    spans: list = field(default_factory=list)
    _open: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        rec = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_s += rec.end - rec.start

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_ms(self) -> dict:
        """Total self time per span name, in ms."""
        out: dict = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_s * 1e3
        return out

    def row_s(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == ROW)


@dataclass
class ReplayResult:
    l2_rel_err: float
    cond_est: float
    mkm_n: int = 0
    lsq_shape: tuple = (0, 0)
    lsq_rank_deficient: bool = False
    bpm_order: int = 0


def _resolve_kernel(tr, spec: dict, nodes):
    """The harness's kernel: shape parameter defaults to twice the mean
    nearest-neighbour spacing. `tr` None resolves without a span."""
    spec = dict(spec)
    family = spec.pop("family")
    if family not in ("mq", "imq", "gaussian"):
        raise ValueError(f"replay supports mq/imq/gaussian kernels, got {family!r}")
    if "c" not in spec:
        pts = nodes.all_points()
        spec["c"] = (
            default_shape_parameter(pts)
            if tr is None
            else tr.call("kernels.default_shape_parameter", default_shape_parameter, pts)
        )
    return build_kernel(family, **spec)


def _general_solution(op):
    if op.kind != "helmholtz_2d":
        raise ValueError(f"replay has no general solution for {op.kind}")
    return build_kernel("helmholtz_gs_2d", k=op.k)


def replay_case(tr: Tracer, cfg: dict) -> ReplayResult:
    """Run one harness config's row with spans; returns its accuracy."""
    method = cfg["methods"][0]
    spec = cfg["kernels"][0]
    nb, ni, seed = cfg["n_boundary"], cfg["n_interior"], cfg["seed"]
    with tr.span(ROW):
        problem = get_problem(cfg["problems"][0])
        tr.call("problems.check_consistency", check_consistency, problem)
        nodes = tr.call("geometry.generate_nodes", generate_nodes, problem.domain, nb, ni, seed)
        nodes = tr.call("geometry.partition_boundary", partition_boundary, nodes, problem.bc_rule)
        if problem.kind == "pde":
            bc = tr.call(
                "bkm.boundary_data",
                bkm.BoundaryData.from_callables,
                nodes,
                problem.exact,
                problem.exact_grad,
            )
        else:
            bc = bkm.BoundaryData(
                np.asarray(problem.exact(nodes.dirichlet_points), dtype=float), np.empty(0)
            )
        out, evaluator = _solve(tr, problem, method, spec, nodes, bc, cfg)
        if evaluator is not None:
            probes = tr.call("bench.probe_grid", probe_grid, problem.domain)
            band = boundary_band_mask(problem.domain, probes)
            metrics = tr.call(
                "bench.compute_errors",
                compute_errors,
                lambda p: tr.call(EVALUATE_SPAN[method], evaluator, p),
                problem.exact,
                probes,
                band,
            )
            out.l2_rel_err = metrics.l2_rel_err
    _standalone(tr, problem, method, spec, nodes, cfg)
    return out


def _solve(tr, problem, method, spec, nodes, bc, cfg):
    """Assemble and solve as the harness does; returns (result, evaluator)."""
    op = problem.operator
    pts = nodes.all_points()
    fs = problem.f_samples(pts)
    fz = np.zeros(len(pts)) if fs is None else fs

    if method == "bkm":
        phi = _resolve_kernel(tr, spec, nodes)
        sol = tr.call(
            "bkm.solve_indirect", bkm.solve_indirect, nodes, op, bc, fs, phi, _general_solution(op)
        )
        return ReplayResult(np.nan, sol.cond_est), sol.evaluate

    if method == "bkm_direct":
        phi = _resolve_kernel(tr, spec, nodes)
        rec = tr.call(
            "bkm.solve_direct", bkm.solve_direct, nodes, op, bc, fs, phi, _general_solution(op)
        )
        # the harness scores bkm_direct on the recovered complementary traces
        exact_nu = np.einsum(
            "ij,ij->i",
            np.asarray(problem.exact_grad(nodes.dirichlet_points), dtype=float),
            nodes.dirichlet_normals,
        )
        exact_dg = np.asarray(problem.exact(nodes.neumann_points), dtype=float)
        got = np.concatenate([rec.neumann_at_dirichlet, rec.dirichlet_at_neumann])
        want = np.concatenate([exact_nu, exact_dg])
        denom = np.linalg.norm(want) or 1.0
        return ReplayResult(float(np.linalg.norm(got - want) / denom), rec.cond_est), None

    if method == "bpm":
        M = cfg["bpm_order"]
        chain = [
            tr.call("kernels.higher_order_solution", higher_order_solution, op, m)
            for m in range(M + 1)
        ]
        prob = bpm.MrmProblem(
            operator=op,
            bc=bc,
            f_chain=problem.f_chain,
            order=M,
            f_grad_chain=problem.f_grad_chain,
        )
        q = tr.call("bpm.assemble_Q", bpm.assemble_Q, nodes, op, chain[0])
        sol = tr.call("bpm.solve_bpm", bpm.solve_bpm, nodes, prob, chain, q)
        return ReplayResult(np.nan, sol.cond_est, bpm_order=sol.order), sol.evaluate

    if method == "mkm":
        phi = _resolve_kernel(tr, spec, nodes)
        system = tr.call("mkm.assemble_mkm", mkm.assemble_mkm, nodes, op, bc, fz, phi)
        sol = tr.call("mkm.solve_mkm", mkm.solve_mkm, system)
        return ReplayResult(np.nan, sol.cond_est, mkm_n=system.size), sol.evaluate

    if method == "kansa":
        phi = _resolve_kernel(tr, spec, nodes)
        sol = tr.call(
            "mkm.solve_kansa_baseline", mkm.solve_kansa_baseline, nodes, op, bc, fz, phi
        )
        return ReplayResult(np.nan, sol.cond_est), sol.evaluate

    if method == "lsq":
        phi = _resolve_kernel(tr, spec, nodes)
        field_nodes = tr.call(
            "geometry.generate_nodes",
            generate_nodes,
            problem.domain,
            2 * nodes.n_boundary,
            2 * nodes.n_interior,
            cfg["seed"] + 1,
        )
        field_nodes = tr.call(
            "geometry.partition_boundary", partition_boundary, field_nodes, problem.bc_rule
        )
        src = nodes.all_points()
        if problem.kind == "fit":
            targets = np.asarray(problem.exact(field_nodes.all_points()), dtype=float)
            G = tr.call(
                "operators.kernel_value_matrix",
                kernel_value_matrix,
                phi,
                field_nodes.all_points(),
                src,
            )
            system = lsq.OverdeterminedSystem(G=G, b=targets)
        else:
            field_bc = tr.call(
                "bkm.boundary_data",
                bkm.BoundaryData.from_callables,
                field_nodes,
                problem.exact,
                problem.exact_grad,
            )
            fcall = problem.f if problem.f is not None else lambda p: np.zeros(len(p))
            system = tr.call(
                "lsq.assemble_overdetermined",
                lsq.assemble_overdetermined,
                src,
                field_nodes,
                op,
                field_bc,
                fcall,
                phi,
            )
        result = tr.call(
            "lsq.solve_least_squares", lsq.solve_least_squares, system, method="orthogonal"
        )

        def evaluate(p):
            return kernel_value_matrix(phi, p, src) @ result.beta

        out = ReplayResult(
            np.nan,
            result.cond_est,
            lsq_shape=system.G.shape,
            lsq_rank_deficient=result.rank_deficient,
        )
        return out, evaluate

    raise ValueError(f"unknown method {method!r}")


def _pairwise_r(P):
    d = P[:, None, :] - P[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", d, d))


def _standalone(tr, problem, method, spec, nodes, cfg):
    """Time the library's inner public calls on this row's nodes and kernels.

    The kernels are the ones the row collocates with: the general solution
    (BKM) or the chain kernels (BPM) on the boundary nodes, the resolved
    trial kernel on all nodes otherwise.
    """
    op = problem.operator
    centers = nodes.all_points()
    xd, xn, nn = nodes.dirichlet_points, nodes.neumann_points, nodes.neumann_normals
    phi = None if method == "bpm" else _resolve_kernel(None, spec, nodes)
    if method == "bpm":
        kernels = [higher_order_solution(op, m) for m in range(cfg["bpm_order"] + 1)]
    elif method in BOUNDARY_METHODS:
        kernels = [_general_solution(op)]
    else:
        kernels = [phi]
    coll = nodes.boundary if method in BOUNDARY_METHODS else centers

    r = _pairwise_r(coll)
    for kern in kernels:
        for order, fn in enumerate(kern.derivs):
            if fn is not None:
                tr.call("kernels.deriv", kern.deriv, r, order)
        # kansa and lsq build no normal-normal block
        if len(xn) and method not in ("kansa", "lsq"):
            tr.call("operators.mixed_normal_matrix", mixed_normal_matrix, kern, xn, xn, nn, nn)
    if method != "bkm_direct":
        probes = probe_grid(problem.domain)
        src = xd if method in BOUNDARY_METHODS else centers
        tr.call("operators.kernel_value_matrix", kernel_value_matrix, kernels[0], probes, src)

    if method == "mkm":
        tr.call("operators.ll_star_matrix", ll_star_matrix, op, phi, centers, centers)
    if method in ("mkm", "kansa"):
        tr.call("operators.operator_image_matrix", operator_image_matrix, op, phi, centers, centers)
    if method in ("bkm", "bkm_direct"):
        fs = problem.f_samples(centers)
        if fs is not None and np.any(fs):
            tr.call("operators.operator_image_matrix", operator_image_matrix, op, phi, centers, centers)
            tr.call("bkm.fit_particular", bkm.fit_particular, nodes, fs, op, phi)
        tr.call("bkm.assemble_symmetric_system", bkm.assemble_symmetric_system, nodes, op, kernels[0])
