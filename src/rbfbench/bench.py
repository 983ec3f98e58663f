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
from dataclasses import dataclass, field, fields, replace
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
    FAMILY_PARAMETERS,
    MAX_CHAIN_ORDER,
    RadialKernel,
    build_kernel,
    check_parameters,
    default_shape_parameter,
    higher_order_solution,
)
from .operators import Expansion, OperatorSpec, Term, kernel_value_matrix
from .problems import PROBLEM_NAMES, BenchmarkProblem, check_consistency, get_problem

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
    want = np.asarray(exact(probes), dtype=float)
    diff = np.asarray(evaluator(probes), dtype=float) - want
    denom = float(np.linalg.norm(want))
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
        cells = [getattr(self, f.name) for f in fields(self)]
        return ",".join(_cell(x) for x in (cells if with_ladder else cells[:-1]))


def _cell(x) -> str:
    """Empty for None, text as it is, integers in decimal, floats in repr form."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


CSV_HEADER = ",".join(f.name for f in fields(ResultRow)[:-1])


@dataclass
class BenchConfig:
    problems: list
    methods: list
    kernels: list  # (family, parameters) pairs
    n_boundary: list  # one or more counts
    n_interior: int
    seed: int
    bpm_order: int
    timing: bool

    @staticmethod
    def from_dict(raw: dict) -> "BenchConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(BenchConfig)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        problems = _names(
            "problem", raw.get("problems", ["helmholtz_disk", "poisson_square"]), PROBLEM_NAMES
        )
        methods = _names("method", raw.get("methods", list(METHOD_NAMES)), METHOD_NAMES)
        kernels = _list("kernels", raw.get("kernels", [{"family": "mq"}]))
        nb = raw.get("n_boundary", 32)
        nb = _list("n_boundary", nb) if isinstance(nb, list) else [nb]
        timing = raw.get("timing", False)
        if not isinstance(timing, bool):
            raise ConfigError(f"timing must be true or false, got {timing!r}")
        return BenchConfig(
            problems=problems,
            methods=methods,
            kernels=[_kernel_spec(spec) for spec in kernels],
            n_boundary=[_count("n_boundary", n, 4) for n in nb],
            n_interior=_count("n_interior", raw.get("n_interior", 60), 0),
            seed=_count("seed", raw.get("seed", 7), 0),
            bpm_order=_count("bpm_order", raw.get("bpm_order", 3), 1, MAX_CHAIN_ORDER),
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


def _integer(key: str, value) -> int:
    # integers are taken as they are: a huge one has no float form
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _count(key: str, value, least: int, most: Optional[int] = None) -> int:
    n = _integer(key, value)
    if n < least:
        raise ConfigError(f"{key} must be at least {least}, got {n}")
    if most is not None and n > most:
        raise ConfigError(f"{key} must be at most {most}, got {n}")
    return n


def _list(key: str, value) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a non-empty list, got {value!r}")
    return value


def _names(kind: str, value, known) -> list:
    names = _list(f"{kind}s", value)
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown {kind} {name!r}; known: {', '.join(known)}")
    return names


def _kernel_spec(spec) -> tuple:
    """(family, parameters) of a config kernel entry, checked by
    `kernels.check_parameters`; its ParameterError becomes a ConfigError."""
    params = dict(spec) if isinstance(spec, dict) else {"family": spec}
    family = params.pop("family", None)
    try:
        check_parameters(family, params)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None
    return family, params


def _with_wavenumber(spec: tuple, op: Optional[OperatorSpec]) -> tuple:
    """The spec with the operator's wavenumber where the family takes one the
    spec does not give; a ConfigError when the operator has none."""
    family, params = spec
    if "k" in FAMILY_PARAMETERS[family] and "k" not in params:
        if op is None or op.k <= 0:
            raise ConfigError(f"kernel {family!r} needs a wavenumber k")
        params = {**params, "k": op.k}
    return family, params


def _resolve_kernel(spec: tuple, nodes: NodeSet) -> RadialKernel:
    """The kernel of a spec, with the node-dependent defaults of c and omega."""
    family, params = spec
    takes = FAMILY_PARAMETERS[family]
    defaults = {}
    if "c" in takes and "c" not in params:
        defaults["c"] = default_shape_parameter(nodes.all_points())
    if "omega" in takes and "omega" not in params:
        defaults["omega"] = 1.0
    return build_kernel(family, **params, **defaults)


def _solve(
    problem: BenchmarkProblem,
    method: str,
    spec: tuple,
    nodes: NodeSet,
    bc: Optional[bkm.BoundaryData],
    cfg: BenchConfig,
) -> tuple:
    """(kernel, solution) of one run: an Expansion, or RecoveredTraces for bkm_direct."""
    op = problem.operator
    if method == "bpm":
        if problem.f_chain is None:
            raise ConfigError(f"problem {problem.name!r} provides no source-term chain")
        chain = [higher_order_solution(op, m) for m in range(cfg.bpm_order + 1)]
        mrm = bpm.MrmProblem(op, bc, problem.f_chain, cfg.bpm_order, problem.f_grad_chain)
        return chain[0], bpm.solve_bpm(nodes, mrm, chain)

    phi = _resolve_kernel(spec, nodes)
    src = nodes.all_points()
    fs = problem.f_samples(src)
    if method == "bkm":
        return phi, bkm.solve_indirect(nodes, op, bc, fs, phi, higher_order_solution(op, 0))
    if method == "bkm_direct":
        return phi, bkm.solve_direct(nodes, op, bc, fs, phi, higher_order_solution(op, 0))
    if method == "mkm":
        return phi, mkm.solve_mkm(mkm.assemble_mkm(nodes, op, bc, fs, phi))
    if method == "kansa":
        return phi, mkm.solve_kansa_baseline(nodes, op, bc, fs, phi)
    # lsq: collocate on a second, denser node set
    field_nodes = partition_boundary(
        generate_nodes(problem.domain, 2 * nodes.n_boundary, 2 * nodes.n_interior, cfg.seed + 1),
        problem.bc_rule,
    )
    if problem.kind == "fit":
        targets = np.asarray(problem.exact(field_nodes.all_points()), dtype=float)
        G = kernel_value_matrix(phi, field_nodes.all_points(), src)
        system = lsq.OverdeterminedSystem(G=G, b=targets)
    else:
        field_bc = bkm.BoundaryData.from_callables(field_nodes, problem.exact, problem.exact_grad)
        system = lsq.assemble_overdetermined(src, field_nodes, op, field_bc, problem.f, phi)
    result = lsq.solve_least_squares(system, method="orthogonal")
    return phi, Expansion([Term(op, phi, [("value", src)], result.beta)], result.cond_est)


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
    spec: tuple,
    n_boundary: int,
    cfg: BenchConfig,
) -> ResultRow:
    nodes = partition_boundary(
        generate_nodes(problem.domain, n_boundary, cfg.n_interior, cfg.seed),
        problem.bc_rule,
    )
    bc = None
    if problem.kind == "pde":
        bc = bkm.BoundaryData.from_callables(nodes, problem.exact, problem.exact_grad)

    start = time.perf_counter() if cfg.timing else None
    kernel, solution = _solve(problem, method, spec, nodes, bc, cfg)
    runtime_ms = (time.perf_counter() - start) * 1e3 if cfg.timing else 0.0

    if isinstance(solution, bkm.RecoveredTraces):
        # complementary boundary traces against the exact ones, no band
        got = np.concatenate([solution.neumann_at_dirichlet, solution.dirichlet_at_neumann])
        swapped = replace(nodes, dirichlet_idx=nodes.neumann_idx, neumann_idx=nodes.dirichlet_idx)
        exact = bkm.BoundaryData.from_callables(swapped, problem.exact, problem.exact_grad)
        want = np.concatenate([exact.neumann_values, exact.dirichlet_values])
        metrics = compute_errors(lambda _: got, lambda _: want, nodes.boundary)
    else:
        probes = probe_grid(problem.domain)
        band = boundary_band_mask(problem.domain, probes)
        metrics = compute_errors(solution.evaluate, problem.exact, probes, band)

    op = problem.operator
    return ResultRow(
        method=method,
        kernel=kernel.name,
        operator=op.kind if op is not None else "fit",
        domain=_domain_label(problem.domain),
        n_boundary=n_boundary,
        n_interior=cfg.n_interior,
        shape_param=kernel.c or None,
        wavenumber=(op.k if op is not None and op.k > 0 else None),
        M_order=solution.order if isinstance(solution, bpm.BpmSolution) else None,
        l2_rel_err=metrics.l2_rel_err,
        max_err=metrics.max_err,
        boundary_band_err=metrics.boundary_band_err,
        cond_est=solution.cond_est,
        runtime_ms=runtime_ms,
        seed=cfg.seed,
    )


def _sweep(config, counts=None):
    """Run every configured combination over the boundary-node counts.

    Coerces `config` (a BenchConfig, a dict or a JSON path), resolves
    every problem name and fills in each problem's wavenumber in the
    kernel specs that need one, all before the first solve; then yields one
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
    specs = []
    for problem in problems:
        check_consistency(problem)
        # every method but bpm (which uses its own kernel chain) resolves the kernels
        if any(m in problem.methods for m in cfg.methods if m != "bpm"):
            specs.append([_with_wavenumber(spec, problem.operator) for spec in cfg.kernels])
        else:
            specs.append(cfg.kernels)

    for problem, problem_specs in zip(problems, specs):
        for method in cfg.methods:
            if method not in problem.methods:
                continue
            label = f"{problem.name}/{method}"
            for spec in problem_specs:
                rows, errors = [], []
                for idx, nb in enumerate(counts or cfg.n_boundary):
                    try:
                        row = _single_run(problem, method, spec, nb, cfg)
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
