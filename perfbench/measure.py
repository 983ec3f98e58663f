"""Timed passes over a workload through the public harness, and the traced passes.

A pass issues the workload's cases in the order `workloads.pass_order`
gives, as one `rbfbench.bench.run_benchmark` call per row: a closed loop
with one client and one solve in flight. Each call is bracketed by
`speed.probe`, and the end-to-end timings are reported at the probe's
reference speed (see speed.py). Import this module only after the BLAS
thread count is fixed in the environment (run.py does that).
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy

import speed
from rbfbench import bench
from replay import ROW, Tracer, replay_case
from workloads import METHODS, cases, pass_order

#: condition estimates at or above this are saturated (meaningless)
SATURATED = 1.0 / np.finfo(float).eps

ROW_METRICS = {m: f"{m}_row_ms" for m in METHODS}

#: per-layer span totals reported as `<span>_ms`
LAYER_SPANS = (
    "geometry.generate_nodes",
    "geometry.partition_boundary",
    "kernels.default_shape_parameter",
    "kernels.higher_order_solution",
    "kernels.deriv",
    "problems.check_consistency",
    "operators.ll_star_matrix",
    "operators.operator_image_matrix",
    "operators.kernel_value_matrix",
    "operators.mixed_normal_matrix",
    "bkm.boundary_data",
    "bkm.fit_particular",
    "bkm.assemble_symmetric_system",
    "bkm.solve_indirect",
    "bkm.solve_direct",
    "bkm.evaluate",
    "bpm.assemble_Q",
    "bpm.solve_bpm",
    "bpm.evaluate",
    "mkm.assemble_mkm",
    "mkm.solve_mkm",
    "mkm.solve_kansa_baseline",
    "mkm.evaluate",
    "lsq.assemble_overdetermined",
    "lsq.solve_least_squares",
    "lsq.evaluate",
    "bench.probe_grid",
    "bench.compute_errors",
)

LAYER_COUNTS = {
    "mkm.matrix_n": "count",
    "mkm.matrix_mb_computed": "MB",
    "lsq.matrix_rows": "count",
    "lsq.matrix_cols": "count",
    "lsq.rank_deficient_ratio": "1",
    "bpm.order": "count",
    "bench.rows_attempted": "count",
    "bench.cond_saturated_ratio": "1",
    "bench.trace_overhead_ratio": "1",
}


@dataclass
class Pass:
    # (case index, ResultRow or None, wall seconds, seconds at the probe's
    # reference speed), in issue order
    calls: list
    errors: list  # harness error strings

    def first_rows(self, n_cases: int) -> list:
        """The row each case returned on its first call in this pass."""
        rows = [None] * n_cases
        for i, row, _, _ in reversed(self.calls):
            rows[i] = row
        return rows

    @property
    def wall_s(self) -> float:
        return sum(c[2] for c in self.calls)

    @property
    def scaled_s(self) -> float:
        return sum(c[3] for c in self.calls)


def harness_pass(case_list: list, order) -> Pass:
    """Issue the cases in `order`, one `run_benchmark` call per row, each
    between two speed probes."""
    calls, errors = [], []
    before = speed.probe()
    for i in order:
        start = time.perf_counter()
        report = bench.run_benchmark(case_list[i])
        dt = time.perf_counter() - start
        after = speed.probe()
        calls.append((i, report.rows[0] if len(report.rows) == 1 else None,
                      dt, speed.scale(dt, before, after)))
        errors.extend(report.errors)
        before = after
    return Pass(calls, errors)


def warm_up(workload: str, case_list: list) -> tuple:
    """Untimed warm-up; returns (reference rows or None, harness errors).

    suite_small issues its whole suite once through `convergence_study`;
    those rows must line up one to one with the cases and become the
    reference. The other workloads warm the code paths on their smoke-size
    cases and take the first timed pass as the reference.
    """
    if workload == "suite_small":
        cfg = {
            "problems": list(dict.fromkeys(c["problems"][0] for c in case_list)),
            "methods": list(METHODS),
            "kernels": list({c["kernels"][0]["family"]: c["kernels"][0] for c in case_list}.values()),
            "n_interior": case_list[0]["n_interior"],
            "seed": case_list[0]["seed"],
            "bpm_order": case_list[0]["bpm_order"],
        }
        report = bench.convergence_study(cfg, sorted({c["n_boundary"] for c in case_list}))
        rows = report.rows if len(report.rows) == len(case_list) else [None] * len(case_list)
        return rows, list(report.errors)
    small = cases(workload, smoke=True)
    return None, harness_pass(small, range(len(small))).errors


def row_ok(row, cfg: dict, ref=None) -> bool:
    """Finite errors and condition estimate, the case's own row, and (when a
    reference is given) exactly the reference's accuracy."""
    if row is None:
        return False
    if row.method != cfg["methods"][0] or row.n_boundary != cfg["n_boundary"]:
        return False
    vals = (row.l2_rel_err, row.max_err, row.boundary_band_err, row.cond_est)
    if not all(math.isfinite(v) for v in vals):
        return False
    return ref is None or row.l2_rel_err == ref.l2_rel_err


def _failed_calls(p: Pass, case_list: list, ref: list) -> int:
    return sum(not row_ok(row, case_list[i], ref[i]) for i, row, _, _ in p.calls)


def _passes(seconds: float):
    """Yield once per pass, at least once, and stop before a pass as long
    as the previous one would run past `seconds`."""
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        yield
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def untraced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    case_list = cases(workload, smoke)
    rng = random.Random(seed)
    ref, errors = warm_up(workload, case_list)

    passes = []
    for _ in _passes(seconds):
        passes.append(harness_pass(case_list, pass_order(workload, case_list, rng)))
        errors += passes[-1].errors
    ref = ref or passes[0].first_rows(len(case_list))
    ref_bad = sum(not row_ok(r, c) for r, c in zip(ref, case_list))
    failed = sum(_failed_calls(p, case_list, ref) for p in passes)
    attempted = sum(len(p.calls) for p in passes)

    # each case's median over its calls, averaged over the method's cases
    # (a method's cases differ in size, so their times are not pooled);
    # scaled to the probe's reference speed, and as wall time for the record
    per_case: dict = {}
    for p in passes:
        for i, _, dt, scaled in p.calls:
            per_case.setdefault(i, []).append((scaled * 1e3, dt * 1e3))
    per_method = {m: [] for m in METHODS}
    for i, times in sorted(per_case.items()):
        per_method[case_list[i]["methods"][0]].append(
            [statistics.median(t[k] for t in times) for k in (0, 1)])
    metrics = {"rows_per_s": (_median([len(p.calls) / p.scaled_s for p in passes]), "1/s")}
    for m, name in ROW_METRICS.items():
        metrics[name] = (statistics.fmean(t[0] for t in per_method[m]), "ms")
    wall = {"rows_per_s": _median([len(p.calls) / p.wall_s for p in passes])}
    for m, name in ROW_METRICS.items():
        wall[name] = statistics.fmean(t[1] for t in per_method[m])
    l2 = [r.l2_rel_err for r in ref if r is not None]
    metrics["l2_rel_err_gmean"] = (statistics.geometric_mean(l2) if l2 else float("nan"), "1")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    record = {
        "passes": len(passes),
        "wall_time_metrics": wall,
        # median probe time around the timed calls (REF_MS is the reference)
        "speed_probe_ms": _median([speed.REF_MS * (c[2] / c[3]) ** (1 / speed.SENSITIVITY)
                                   for p in passes for c in p.calls]),
        "row_samples": {
            m: sum(len(t) for i, t in per_case.items() if case_list[i]["methods"][0] == m)
            for m in METHODS
        },
        "fail_ratio": failed / attempted,
        "reference_failures": ref_bad,
        "harness_errors": sorted(set(errors)),
        "l2_rel_err_gmean_by_method": _accuracy(case_list, ref),
    }
    correct = ref_bad == 0 and not errors and failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def traced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Alternate an untraced harness pass with a traced replay of the same
    calls in the same order, for as many passes as fit in `seconds`."""
    case_list = cases(workload, smoke)
    rng = random.Random(seed)
    ref, errors = warm_up(workload, case_list)

    untraced_s, tracers = [], []
    failed = mismatched = attempted = 0
    for _ in _passes(seconds):
        order = pass_order(workload, case_list, rng)
        p = harness_pass(case_list, order)
        errors += p.errors
        ref = ref or p.first_rows(len(case_list))
        failed += _failed_calls(p, case_list, ref)
        untraced_s.append(p.wall_s)

        tr = Tracer()
        replays = [None] * len(case_list)
        for i in order:
            replays[i] = replay_case(tr, case_list[i])
            ref_l2 = ref[i].l2_rel_err if ref[i] is not None else None
            mismatched += replays[i].l2_rel_err != ref_l2
        tracers.append(tr)
        attempted += 2 * len(order)
    ref_bad = sum(not row_ok(r, c) for r, c in zip(ref, case_list))

    totals = [tr.self_ms() for tr in tracers]
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}_ms"] = (_median([t.get(name, 0.0) for t in totals]), "ms")
    metrics["bench.self_ms"] = (_median([t.get(ROW, 0.0) for t in totals]), "ms")

    mkm_n = [r.mkm_n for r in replays if r.mkm_n]
    lsq_rows = [r for c, r in zip(case_list, replays) if c["methods"][0] == "lsq"]
    largest_lsq = max(lsq_rows, key=lambda r: r.lsq_shape[0] * r.lsq_shape[1])
    counts = {
        "mkm.matrix_n": max(mkm_n),
        "mkm.matrix_mb_computed": sum(n * n * 8 for n in mkm_n) / 1e6,
        "lsq.matrix_rows": largest_lsq.lsq_shape[0],
        "lsq.matrix_cols": largest_lsq.lsq_shape[1],
        "lsq.rank_deficient_ratio": sum(r.lsq_rank_deficient for r in lsq_rows) / len(lsq_rows),
        "bpm.order": max(r.bpm_order for r in replays),
        "bench.rows_attempted": len(order),
        "bench.cond_saturated_ratio": (
            sum(r is not None and r.cond_est >= SATURATED for r in ref) / len(ref)
        ),
        "bench.trace_overhead_ratio": _median([tr.row_s() for tr in tracers]) / _median(untraced_s),
    }
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (counts[name], unit)

    record = {
        "traced_passes": len(tracers),
        "replay_mismatches": mismatched,
        "fail_ratio": (failed + mismatched) / attempted,
        "reference_failures": ref_bad,
        "harness_errors": sorted(set(errors)),
    }
    correct = ref_bad == 0 and not errors and failed == 0 and mismatched == 0
    return {"correct": correct, "attempted": attempted, "failed": failed + mismatched,
            "metrics": metrics, "record": record}


def _accuracy(case_list, rows) -> dict:
    """Geometric-mean l2_rel_err per problem/method over its rows."""
    groups: dict = {}
    for cfg, row in zip(case_list, rows):
        if row is not None:
            key = f"{cfg['problems'][0]}/{cfg['methods'][0]}"
            groups.setdefault(key, []).append(row.l2_rel_err)
    return {k: statistics.geometric_mean(v) for k, v in groups.items()}


def _openblas() -> list:
    """Version string and live thread count of every OpenBLAS this process loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas_", "openblas_"):
                cfg = getattr(lib, f"{prefix}get_config{suffix}", None)
                nth = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if cfg is not None and nth is not None:
                    cfg.restype = ctypes.c_char_p
                    info["config"] = cfg().decode()
                    info["threads"] = nth()
                    break
            if "config" in info:
                break
        found.append(info)
    return found


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas": _openblas(),
    }
