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
import os
import time
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import bkm, bpm, lsq, mkm
from .errors import ConfigError, ParameterError, RbfError
from .geometry import (
    DomainSpec,
    boundary_band_mask,
    distance_to_boundary,
    generate_nodes,
    partition_boundary,
)
from .kernels import (
    FAMILY_PARAMETERS,
    MAX_CHAIN_ORDER,
    build_kernel,
    check_parameters,
    default_shape_parameter,
    higher_order_solution,
)
from .operators import Expansion, OperatorSpec, Term
from .problems import PROBLEM_NAMES, BenchmarkProblem, check_consistency, get_problem

METHOD_NAMES = ("bkm", "bkm_direct", "bpm", "mkm", "kansa", "lsq")

PROBE_GRID_SIZE = 21

#: entries of the largest dense matrix a config may imply (128 MiB of float64):
#: MKM's (ni + 2 nb)^2 system or LSQ's (2 ni + 2 nb) x (ni + nb) one
MAX_DENSE_ENTRIES = 2**24


@dataclass
class ErrorMetrics:
    l2_rel_err: float
    max_err: float
    boundary_band_err: float
    used_absolute_norm: bool = False


def probe_grid(domain: DomainSpec) -> np.ndarray:
    """Tensor grid over the bounding box, clipped strictly inside the domain
    (computed once per domain and process, read-only)."""
    return _probe_set(domain)[0]


@lru_cache(maxsize=16)  # a pure function of the frozen domain; every row on it reads it
def _probe_set(domain: DomainSpec) -> tuple:
    """The probe grid and its boundary-band mask, both read-only."""
    (xlo, xhi), (ylo, yhi) = domain.bounding_box
    xs = np.linspace(xlo, xhi, PROBE_GRID_SIZE)
    ys = np.linspace(ylo, yhi, PROBE_GRID_SIZE)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[distance_to_boundary(domain, pts) > 1e-9]
    band = boundary_band_mask(domain, pts)
    pts.setflags(write=False)
    band.setflags(write=False)
    return pts, band


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
        nb = [_count("n_boundary", n, 4) for n in nb]
        ni = _count("n_interior", raw.get("n_interior", 60), 0)
        _check_size(nb, ni)
        return BenchConfig(
            problems=problems,
            methods=methods,
            kernels=[_kernel_spec(spec) for spec in kernels],
            n_boundary=nb,
            n_interior=ni,
            seed=_count("seed", raw.get("seed", 7), 0),
            bpm_order=_count("bpm_order", raw.get("bpm_order", 3), 1, MAX_CHAIN_ORDER),
            timing=timing,
        )

    @staticmethod
    def load(path) -> "BenchConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


def _check_size(n_boundary: list, n_interior: int):
    """A ConfigError when the counts imply a dense matrix over MAX_DENSE_ENTRIES."""
    nb = max(n_boundary)
    entries = max((n_interior + 2 * nb) ** 2, 2 * (n_interior + nb) ** 2)
    if entries > MAX_DENSE_ENTRIES:
        raise ConfigError(
            f"n_boundary {nb} with n_interior {n_interior} implies a dense matrix of "
            f"{entries} entries, over MAX_DENSE_ENTRIES = {MAX_DENSE_ENTRIES}"
        )


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


def _with_defaults(spec: tuple, op: Optional[OperatorSpec]) -> tuple:
    """The spec with each default that does not read the nodes, where the family
    takes the parameter and the spec gives none: omega = 1, and k = the
    operator's wavenumber (a ConfigError when the operator has none)."""
    family, params = spec
    takes = FAMILY_PARAMETERS[family]
    if "k" in takes and "k" not in params:
        if op is None or op.k <= 0:
            raise ConfigError(f"kernel {family!r} needs a wavenumber k")
        params = {**params, "k": op.k}
    if "omega" in takes:
        params = {"omega": 1.0, **params}
    return family, params


@lru_cache(maxsize=64)  # keyed by the frozen problem value; every row on these nodes reads it
def _row_inputs(problem: BenchmarkProblem, n_boundary: int, n_interior: int, seed: int) -> tuple:
    """The problem's partitioned node set, its exact boundary data and the
    default shape parameter of its points, all read-only: every row on these
    nodes shares them, the LSQ field set (2 nb, 2 ni, seed + 1) included."""
    nodes = generate_nodes(problem.domain, n_boundary, n_interior, seed)
    nodes = partition_boundary(nodes, problem.bc_rule)
    bc = bkm.BoundaryData.from_callables(nodes, problem.exact, problem.exact_grad)
    for array in (*list(vars(nodes).values())[1:], *vars(bc).values()):  # all but the domain
        array.setflags(write=False)
    return nodes, bc, default_shape_parameter(nodes.all_points())


def _solve(
    problem: BenchmarkProblem,
    method: str,
    spec: tuple,
    inputs: tuple,
    field_set: Optional[tuple],
    cfg: BenchConfig,
) -> tuple:
    """(kernel, solution) of one run on the row's `_row_inputs` (and LSQ's
    field set): an Expansion, or RecoveredTraces for bkm_direct."""
    nodes, bc, c = inputs
    op = problem.operator
    if method == "bpm":
        chain = [higher_order_solution(op, m) for m in range(cfg.bpm_order + 1)]
        mrm = bpm.MrmProblem(op, bc, problem.f_chain, cfg.bpm_order, problem.f_grad_chain)
        return chain[0], bpm.solve_bpm(nodes, mrm, chain)

    family, params = spec
    phi = build_kernel(family, **({"c": c} if "c" in FAMILY_PARAMETERS[family] else {}) | params)
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
    field_nodes, field_bc, _ = field_set
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
    inputs = _row_inputs(problem, n_boundary, cfg.n_interior, cfg.seed)
    nodes = inputs[0]
    # lsq collocates on a second, denser node set
    denser = (2 * n_boundary, 2 * cfg.n_interior, cfg.seed + 1)
    field_set = _row_inputs(problem, *denser) if method == "lsq" else None

    start = time.perf_counter() if cfg.timing else None
    kernel, solution = _solve(problem, method, spec, inputs, field_set, cfg)
    runtime_ms = (time.perf_counter() - start) * 1e3 if cfg.timing else 0.0

    if isinstance(solution, bkm.RecoveredTraces):
        # complementary boundary traces against the exact ones, no band
        got = np.concatenate([solution.neumann_at_dirichlet, solution.dirichlet_at_neumann])
        swapped = replace(nodes, dirichlet_idx=nodes.neumann_idx, neumann_idx=nodes.dirichlet_idx)
        exact = bkm.BoundaryData.from_callables(swapped, problem.exact, problem.exact_grad)
        want = np.concatenate([exact.neumann_values, exact.dirichlet_values])
        metrics = compute_errors(lambda _: got, lambda _: want, nodes.boundary)
    else:
        probes, band = _probe_set(problem.domain)
        metrics = compute_errors(solution.evaluate, problem.exact, probes, band)

    op = problem.operator
    return ResultRow(
        method=method,
        kernel=kernel.name,
        operator=op.kind if op is not None else "fit",
        domain=_domain_label(problem.domain),
        n_boundary=n_boundary,
        n_interior=cfg.n_interior,
        shape_param=kernel.c if "c" in FAMILY_PARAMETERS[kernel.family] else None,
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

    Coerces `config` (a BenchConfig, a dict or a JSON path), checks the
    counts against MAX_DENSE_ENTRIES, resolves every problem name, checks
    its consistency and fills in each problem's node-free kernel defaults
    (`_with_defaults`), all before the first solve; then yields one
    (label, rows, errors) per problem/method/kernel combination, running
    `counts` (default: the config's n_boundary list) in order. BPM reads no
    kernel spec: a run solves it once per problem, a ladder study (`counts`
    given) under every spec, one row per case of perfbench's suite_small.
    Methods a problem does not support are skipped; solver failures become
    error lines. Each row's ladder_idx is the index of its count.
    """
    if isinstance(config, BenchConfig):
        cfg = config
    elif isinstance(config, dict):
        cfg = BenchConfig.from_dict(config)
    else:
        cfg = BenchConfig.load(config)
    _check_size(counts or cfg.n_boundary, cfg.n_interior)
    problems = [get_problem(name) for name in cfg.problems]
    specs = []
    for problem in problems:
        check_consistency(problem)
        # every method but bpm (which uses its own kernel chain) builds the kernels
        if any(m in problem.methods for m in cfg.methods if m != "bpm"):
            specs.append([_with_defaults(spec, problem.operator) for spec in cfg.kernels])
        else:
            specs.append(cfg.kernels)

    for problem, problem_specs in zip(problems, specs):
        for method in cfg.methods:
            if method not in problem.methods:
                continue
            label = f"{problem.name}/{method}"
            for spec in problem_specs[:1] if method == "bpm" and not counts else problem_specs:
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


def _check_out_path(path):
    """A ConfigError when the CSV could not be written at `path` (None: none is
    written): its directory does not exist, or it names a directory."""
    if path is None:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ConfigError(f"output directory {folder} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")


def run_benchmark(config, out_path=None) -> BenchReport:
    """Run all configured combinations; unknown names and an output path that
    cannot be written fail before any solve.

    Methods a problem does not support (e.g. boundary-knot solvers on an
    operator without a usable general solution) are skipped. Solver
    failures are collected per combination and reflected in exit_code.
    """
    _check_out_path(out_path)
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
    _check_out_path(out_path)

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
