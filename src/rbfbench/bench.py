"""Configuration-driven benchmark harness.

Runs every (problem x method x kernel x node-count) combination from a
JSON config, measures errors against the manufactured exact solutions
on a fixed probe grid, and emits CSV rows in deterministic config
order. Wall-clock timing is off by default so identical configs produce
byte-identical CSV files; set "timing": true to record solve times.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bkm, bpm, lsq, mkm
from .errors import ConfigError, ParameterError, RbfError
from .geometry import (
    DomainSpec,
    NodeSet,
    boundary_band_mask,
    distance_to_boundary,
    generate_nodes,
    partition_boundary,
)
from .kernels import (
    CATALOG,
    FAMILY_PARAMETERS,
    RadialKernel,
    build_kernel,
    check_parameter,
    default_shape_parameter,
    higher_order_solution,
)
from .operators import OperatorSpec, kernel_value_matrix
from .problems import PROBLEM_NAMES, BenchmarkProblem, check_consistency, get_problem

CSV_HEADER = (
    "method,kernel,operator,domain,n_boundary,n_interior,shape_param,"
    "wavenumber,M_order,l2_rel_err,max_err,boundary_band_err,cond_est,"
    "runtime_ms,seed"
)

METHOD_NAMES = ("bkm", "bkm_direct", "bpm", "mkm", "kansa", "lsq")

PROBE_GRID_SIZE = 21


@dataclass
class ErrorMetrics:
    l2_rel_err: float
    max_err: float
    boundary_band_err: float
    used_absolute_norm: bool = False


def probe_grid(domain: DomainSpec, n: int = PROBE_GRID_SIZE) -> np.ndarray:
    """Tensor grid over the bounding box, clipped strictly inside the domain."""
    (xlo, xhi), (ylo, yhi) = domain.bounding_box
    xs = np.linspace(xlo, xhi, n)
    ys = np.linspace(ylo, yhi, n)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts[distance_to_boundary(domain, pts) > 1e-9]


def compute_errors(
    evaluator: Callable,
    exact: Callable,
    probes: np.ndarray,
    band_mask: Optional[np.ndarray] = None,
) -> ErrorMetrics:
    """Relative L2, max, and boundary-band max errors over the probes."""
    if len(probes) == 0:
        raise ValueError("probe grid is empty")
    diff = np.asarray(evaluator(probes), dtype=float) - np.asarray(
        exact(probes), dtype=float
    )
    denom = float(np.linalg.norm(exact(probes)))
    used_abs = denom == 0.0
    l2 = float(np.linalg.norm(diff)) / (1.0 if used_abs else denom)
    max_err = float(np.max(np.abs(diff)))
    if band_mask is None or not np.any(band_mask):
        band_err = max_err
    else:
        band_err = float(np.max(np.abs(diff[band_mask])))
    return ErrorMetrics(l2, max_err, band_err, used_abs)


@dataclass
class ResultRow:
    method: str
    kernel: str
    operator: str
    domain: str
    n_boundary: int
    n_interior: int
    shape_param: Optional[float]
    wavenumber: Optional[float]
    M_order: Optional[int]
    l2_rel_err: float
    max_err: float
    boundary_band_err: float
    cond_est: float
    runtime_ms: float
    seed: int
    ladder_idx: Optional[int] = None

    def to_csv(self, with_ladder: bool = False) -> str:
        def num(x):
            if x is None:
                return ""
            if isinstance(x, (int, np.integer)):
                return str(int(x))
            return repr(float(x))

        fields = [
            self.method,
            self.kernel,
            self.operator,
            self.domain,
            str(self.n_boundary),
            str(self.n_interior),
            num(self.shape_param),
            num(self.wavenumber),
            "" if self.M_order is None else str(self.M_order),
            num(self.l2_rel_err),
            num(self.max_err),
            num(self.boundary_band_err),
            num(self.cond_est),
            num(self.runtime_ms),
            str(self.seed),
        ]
        if with_ladder:
            fields.append("" if self.ladder_idx is None else str(self.ladder_idx))
        return ",".join(fields)


@dataclass
class BenchConfig:
    problems: list
    methods: list
    kernels: list  # list of {"family": name, ...params}
    n_boundary: list  # one or more counts
    n_interior: int
    seed: int
    bpm_order: int
    timing: bool

    @staticmethod
    def from_dict(raw: dict) -> "BenchConfig":
        known = {
            "problems",
            "methods",
            "kernels",
            "n_boundary",
            "n_interior",
            "seed",
            "bpm_order",
            "timing",
        }
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        problems = _names(
            "problem", raw.get("problems", ["helmholtz_disk", "poisson_square"]), PROBLEM_NAMES
        )
        methods = _names("method", raw.get("methods", list(METHOD_NAMES)), METHOD_NAMES)
        kernels = _list("kernels", raw.get("kernels", [{"family": "mq"}]))
        for spec in kernels:
            _check_kernel_spec(spec)
        nb = raw.get("n_boundary", 32)
        n_boundary = [_count("n_boundary", n, 4) for n in (nb if isinstance(nb, list) else [nb])]
        timing = raw.get("timing", False)
        if not isinstance(timing, bool):
            raise ConfigError(f"timing must be true or false, got {timing!r}")
        return BenchConfig(
            problems=problems,
            methods=methods,
            kernels=kernels,
            n_boundary=n_boundary,
            n_interior=_count("n_interior", raw.get("n_interior", 60), 0),
            seed=_count("seed", raw.get("seed", 7), 0),
            bpm_order=_count("bpm_order", raw.get("bpm_order", 3), 1),
            timing=timing,
        )

    @staticmethod
    def load(path) -> "BenchConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}")
        return BenchConfig.from_dict(raw)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(key: str, value) -> int:
    # integers are taken as they are: a huge one has no float form
    if not (_is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _count(key: str, value, least: int) -> int:
    n = _integer(key, value)
    if n < least:
        raise ConfigError(f"{key} must be at least {least}, got {n}")
    return n


def _list(key: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _names(kind: str, value, known) -> list:
    names = _list(f"{kind}s", value)
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown {kind} {name!r}; known: {', '.join(known)}")
    return names


def _check_kernel_spec(spec) -> None:
    """Family known; parameters named for that family, real and in range."""
    params = dict(spec) if isinstance(spec, dict) else {"family": spec}
    family = params.pop("family", None)
    if family not in CATALOG:
        raise ConfigError(f"unknown kernel {family!r}; known: {', '.join(CATALOG)}")
    allowed = FAMILY_PARAMETERS[family]
    for name, value in params.items():
        if name not in allowed:
            raise ConfigError(
                f"kernel {family!r} takes no parameter {name!r}; "
                f"allowed: {', '.join(allowed) or 'none'}"
            )
        if not _is_real(value):
            raise ConfigError(
                f"kernel {family!r} parameter {name} must be a finite number, got {value!r}"
            )
        try:
            check_parameter(family, name, value)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from None


def _resolve_kernel(spec, op: Optional[OperatorSpec], nodes: NodeSet) -> RadialKernel:
    spec = dict(spec) if isinstance(spec, dict) else {"family": spec}
    family = spec.pop("family")
    takes = FAMILY_PARAMETERS[family]
    if "c" in takes and "c" not in spec:
        spec["c"] = default_shape_parameter(nodes.all_points())
    if "k" in takes and "k" not in spec:
        if op is not None and op.k > 0:
            spec["k"] = op.k
        else:
            raise ConfigError(f"kernel {family!r} needs a wavenumber k")
    if "omega" in takes and "omega" not in spec:
        spec["omega"] = 1.0
    return build_kernel(family, **spec)


def _general_solution_for(op: OperatorSpec) -> RadialKernel:
    if op.kind == "helmholtz_2d":
        return build_kernel("helmholtz_gs_2d", k=op.k)
    if op.kind == "mod_helmholtz_2d":
        return build_kernel("mod_helmholtz_gs_2d", k=op.k)
    raise ConfigError(f"no nonsingular general solution available for {op.kind}")


@dataclass
class RunOutcome:
    evaluator: Optional[Callable]
    cond_est: float
    kernel_name: str
    shape_param: Optional[float]
    M_order: Optional[int] = None
    trace_errors: Optional[ErrorMetrics] = None


def _run_method(
    problem: BenchmarkProblem,
    method: str,
    kernel_spec,
    nodes: NodeSet,
    bc: bkm.BoundaryData,
    cfg: BenchConfig,
) -> RunOutcome:
    op = problem.operator
    pts = nodes.all_points()
    fs = problem.f_samples(pts)

    if method == "bkm":
        phi = _resolve_kernel(kernel_spec, op, nodes)
        sol = bkm.solve_indirect(nodes, op, bc, fs, phi, _general_solution_for(op))
        return RunOutcome(sol.evaluate, sol.cond_est, phi.name, phi.c or None)

    if method == "bkm_direct":
        phi = _resolve_kernel(kernel_spec, op, nodes)
        rec = bkm.solve_direct(nodes, op, bc, fs, phi, _general_solution_for(op))
        exact_nu = np.einsum(
            "ij,ij->i",
            np.asarray(problem.exact_grad(nodes.dirichlet_points), dtype=float),
            nodes.dirichlet_normals,
        )
        exact_dg = np.asarray(problem.exact(nodes.neumann_points), dtype=float)
        got = np.concatenate([rec.neumann_at_dirichlet, rec.dirichlet_at_neumann])
        want = np.concatenate([exact_nu, exact_dg])
        diff = got - want
        denom = np.linalg.norm(want) or 1.0
        metrics = ErrorMetrics(
            float(np.linalg.norm(diff) / denom),
            float(np.max(np.abs(diff))),
            float(np.max(np.abs(diff))),
        )
        return RunOutcome(None, rec.cond_est, phi.name, phi.c or None, trace_errors=metrics)

    if method == "bpm":
        if problem.f_chain is None:
            raise ConfigError(f"problem {problem.name!r} provides no source-term chain")
        M = cfg.bpm_order
        chain = [higher_order_solution(op, m) for m in range(M + 1)]
        prob = bpm.MrmProblem(
            operator=op,
            bc=bc,
            f_chain=problem.f_chain,
            order=M,
            f_grad_chain=problem.f_grad_chain,
        )
        sol = bpm.solve_bpm(nodes, prob, chain)
        return RunOutcome(sol.evaluate, sol.cond_est, chain[0].name, None, M_order=M)

    if method == "mkm":
        phi = _resolve_kernel(kernel_spec, op, nodes)
        system = mkm.assemble_mkm(nodes, op, bc, _zeros_if_none(fs, len(pts)), phi)
        sol = mkm.solve_mkm(system)
        return RunOutcome(sol.evaluate, sol.cond_est, phi.name, phi.c or None)

    if method == "kansa":
        phi = _resolve_kernel(kernel_spec, op, nodes)
        sol = mkm.solve_kansa_baseline(nodes, op, bc, _zeros_if_none(fs, len(pts)), phi)
        return RunOutcome(sol.evaluate, sol.cond_est, phi.name, phi.c or None)

    if method == "lsq":
        phi = _resolve_kernel(kernel_spec, problem.operator, nodes)
        field_nodes = partition_boundary(
            generate_nodes(
                problem.domain, 2 * nodes.n_boundary, 2 * nodes.n_interior, cfg.seed + 1
            ),
            problem.bc_rule,
        )
        src = nodes.all_points()
        if problem.kind == "fit":
            targets = np.asarray(problem.exact(field_nodes.all_points()), dtype=float)
            G = kernel_value_matrix(phi, field_nodes.all_points(), src)
            system = lsq.OverdeterminedSystem(G=G, b=targets)
        else:
            field_bc = bkm.BoundaryData.from_callables(
                field_nodes, problem.exact, problem.exact_grad
            )
            fcall = problem.f if problem.f is not None else lambda p: np.zeros(len(p))
            system = lsq.assemble_overdetermined(
                src, field_nodes, problem.operator, field_bc, fcall, phi
            )
        result = lsq.solve_least_squares(system, method="orthogonal")

        def evaluate(p):
            return kernel_value_matrix(phi, p, src) @ result.beta

        return RunOutcome(evaluate, result.cond_est, phi.name, phi.c or None)

    raise ConfigError(f"unknown method {method!r}")


def _zeros_if_none(fs, n):
    return np.zeros(n) if fs is None else fs


def _domain_label(domain: DomainSpec) -> str:
    if domain.shape == "unit_disk":
        return "unit_disk"
    return f"rectangle({domain.width:g}x{domain.height:g})"


@dataclass
class BenchReport:
    rows: list
    errors: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    with_ladder: bool = False

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def to_csv(self) -> str:
        header = CSV_HEADER + (",ladder_idx" if self.with_ladder else "")
        lines = [header] + [r.to_csv(self.with_ladder) for r in self.rows]
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())


def _single_run(
    problem: BenchmarkProblem,
    method: str,
    kernel_spec,
    n_boundary: int,
    cfg: BenchConfig,
) -> ResultRow:
    nodes = partition_boundary(
        generate_nodes(problem.domain, n_boundary, cfg.n_interior, cfg.seed),
        problem.bc_rule,
    )
    if problem.kind == "pde":
        bc = bkm.BoundaryData.from_callables(nodes, problem.exact, problem.exact_grad)
    else:
        bc = bkm.BoundaryData(
            np.asarray(problem.exact(nodes.dirichlet_points), dtype=float), np.empty(0)
        )

    start = time.perf_counter() if cfg.timing else None
    outcome = _run_method(problem, method, kernel_spec, nodes, bc, cfg)
    runtime_ms = (time.perf_counter() - start) * 1e3 if cfg.timing else 0.0

    if outcome.trace_errors is not None:
        metrics = outcome.trace_errors
    else:
        probes = probe_grid(problem.domain)
        band = boundary_band_mask(problem.domain, probes)
        metrics = compute_errors(outcome.evaluator, problem.exact, probes, band)

    op = problem.operator
    return ResultRow(
        method=method,
        kernel=outcome.kernel_name,
        operator=op.kind if op is not None else "fit",
        domain=_domain_label(problem.domain),
        n_boundary=n_boundary,
        n_interior=cfg.n_interior,
        shape_param=outcome.shape_param,
        wavenumber=(op.k if op is not None and op.k > 0 else None),
        M_order=outcome.M_order,
        l2_rel_err=metrics.l2_rel_err,
        max_err=metrics.max_err,
        boundary_band_err=metrics.boundary_band_err,
        cond_est=outcome.cond_est,
        runtime_ms=runtime_ms,
        seed=cfg.seed,
    )


def _sweep(config, counts=None):
    """Run every configured combination over the boundary-node counts.

    Coerces `config` (a BenchConfig, a dict or a JSON path) and resolves
    every problem name before the first solve, then yields one
    (label, rows, errors) per problem/method/kernel combination, running
    `counts` (default: the config's n_boundary list) in order. Methods a
    problem does not support are skipped; solver failures become error
    lines. Each row's ladder_idx is the index of its count.
    """
    if isinstance(config, BenchConfig):
        cfg = config
    elif isinstance(config, dict):
        cfg = BenchConfig.from_dict(config)
    else:
        cfg = BenchConfig.load(config)
    problems = [get_problem(name) for name in cfg.problems]
    for problem in problems:
        check_consistency(problem)

    for problem in problems:
        for method in cfg.methods:
            if method not in problem.methods:
                continue
            label = f"{problem.name}/{method}"
            for kernel_spec in cfg.kernels:
                rows, errors = [], []
                for idx, nb in enumerate(counts or cfg.n_boundary):
                    try:
                        row = _single_run(problem, method, kernel_spec, nb, cfg)
                    except (RbfError, np.linalg.LinAlgError) as exc:
                        errors.append(f"{label}/nb={nb}: {type(exc).__name__}: {exc}")
                        continue
                    row.ladder_idx = idx
                    rows.append(row)
                yield label, rows, errors


def run_benchmark(config, out_path=None) -> BenchReport:
    """Run all configured combinations; unknown names fail before any solve.

    Methods a problem does not support (e.g. boundary-knot solvers on an
    operator without a usable general solution) are skipped. Solver
    failures are collected per combination and reflected in exit_code.
    """
    report = BenchReport(rows=[])
    for _, rows, errors in _sweep(config):
        report.rows += rows
        report.errors += errors
    if out_path is not None:
        report.write_csv(out_path)
    return report


def convergence_study(config, node_ladder, out_path=None) -> BenchReport:
    """Re-run the configured suite over an increasing boundary-node ladder.

    Rows carry the ladder index; a per-combination summary flags whether
    the error at the largest count is strictly below the smallest.
    """
    ladder = [_count("ladder count", n, 4) for n in node_ladder]
    if len(ladder) < 3:
        raise ConfigError(f"ladder needs at least 3 counts, got {ladder}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"ladder must be strictly increasing, got {ladder}")

    report = BenchReport(rows=[], with_ladder=True)
    for label, rows, errors in _sweep(config, ladder):
        report.rows += rows
        report.errors += errors
        if len(rows) == len(ladder):
            first, last = rows[0].l2_rel_err, rows[-1].l2_rel_err
            report.summaries.append(
                f"{label}: l2_rel_err {first:.3e} -> {last:.3e} "
                f"({'improved' if last < first else 'NOT improved'})"
            )
    if out_path is not None:
        report.write_csv(out_path)
    return report
