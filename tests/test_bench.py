import dataclasses

import numpy as np
import pytest
from pathlib import Path
from hypothesis import given, settings
import hypothesis.strategies as st

from rbfbench import lsq
from rbfbench.bench import (
    CSV_HEADER,
    BenchConfig,
    compute_errors,
    convergence_study,
    probe_grid,
    run_benchmark,
)
from rbfbench.errors import ConfigError, ParameterError
from rbfbench.geometry import DomainSpec, boundary_band_mask, distance_to_boundary
from rbfbench.kernels import build_kernel
from rbfbench.problems import (
    CONSISTENCY_TOL,
    _fd_operator_image,
    check_consistency,
    consistency_residual,
    get_problem,
    PROBLEM_NAMES,
)

REPO = Path(__file__).resolve().parent.parent
DISK = DomainSpec("unit_disk")

SMALL = {
    "problems": ["helmholtz_disk"],
    "methods": ["bkm"],
    "kernels": [{"family": "mq", "c": 0.8}],
    "n_boundary": 16,
    "n_interior": 0,
    "seed": 7,
}


def test_probe_grid_strictly_inside():
    probes = probe_grid(DISK)
    assert len(probes) > 200
    assert np.all(distance_to_boundary(DISK, probes) > 0)


def test_compute_errors_exact_evaluator():
    probes = probe_grid(DISK)
    exact = lambda p: np.cos(p[:, 0])
    m = compute_errors(exact, exact, probes, boundary_band_mask(DISK, probes))
    assert m.l2_rel_err == 0.0
    assert m.max_err == 0.0
    assert m.boundary_band_err == 0.0


def test_compute_errors_unit_offset():
    probes = probe_grid(DISK)
    exact = lambda p: np.ones(len(p))
    off = lambda p: np.full(len(p), 2.0)
    m = compute_errors(off, exact, probes)
    assert m.l2_rel_err == pytest.approx(1.0)
    assert m.max_err == pytest.approx(1.0)


def test_compute_errors_band_picks_single_perturbation():
    probes = probe_grid(DISK)
    band = boundary_band_mask(DISK, probes)
    idx = int(np.flatnonzero(band)[0])
    exact = lambda p: np.zeros(len(p))

    def bumped(p):
        out = np.zeros(len(p))
        out[idx] = 0.125
        return out

    m = compute_errors(bumped, exact, probes, band)
    assert m.boundary_band_err == pytest.approx(0.125)
    assert m.used_absolute_norm


def test_zero_exact_uses_absolute_norm_with_flag():
    probes = probe_grid(DISK)
    m = compute_errors(
        lambda p: np.full(len(p), 0.5), lambda p: np.zeros(len(p)), probes
    )
    assert m.used_absolute_norm
    assert m.l2_rel_err == pytest.approx(0.5 * np.sqrt(len(probes)))


def test_manufactured_problems_are_consistent():
    for name in PROBLEM_NAMES:
        problem = get_problem(name)
        check_consistency(problem)
        assert consistency_residual(problem) < 1e-8


CHAIN_PROBLEMS = [name for name in PROBLEM_NAMES if get_problem(name).f_chain is not None]


def chain_defects(problem) -> list:
    """Entries of the source-term chain that disagree with L^j{f} or with their gradients."""
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, (20, 2))
    chain, grads = problem.f_chain, problem.f_grad_chain
    f = problem.f(pts) if problem.f is not None else 0.0
    defects = [] if np.allclose(chain[0](pts), f, rtol=0, atol=CONSISTENCY_TOL) else ["f_chain[0]"]
    for j in range(1, len(chain)):
        image = _fd_operator_image(problem.operator, chain[j - 1], pts)
        if not np.allclose(chain[j](pts), image, rtol=0, atol=CONSISTENCY_TOL):
            defects.append(f"f_chain[{j}]")
    h = 1e-6
    for j, grad in enumerate(grads):
        fd = np.column_stack(
            [(chain[j](pts + e) - chain[j](pts - e)) / (2 * h) for e in ([h, 0.0], [0.0, h])]
        )
        if not np.allclose(grad(pts), fd, rtol=0, atol=1e-6):
            defects.append(f"f_grad_chain[{j}]")
    return defects


@pytest.mark.parametrize("name", CHAIN_PROBLEMS)
def test_source_term_chains_are_operator_powers(name):
    # f_chain[j] = L^j{f} and f_grad_chain[j] its gradient, as MrmProblem reads them
    assert chain_defects(get_problem(name)) == []


def test_chain_check_catches_a_wrong_entry():
    problem = get_problem("helmholtz_disk_inhom")
    chain = list(problem.f_chain)
    chain[1] = lambda p: np.full(len(p), 1.5)
    broken = dataclasses.replace(problem, f_chain=tuple(chain))
    assert chain_defects(broken) == ["f_chain[1]", "f_chain[2]"]


def test_lsq_rows_never_reach_the_svd(monkeypatch):
    # every harness LSQ system is well conditioned: the QR path solves it
    def no_svd(*args, **kwargs):
        raise AssertionError("least-squares solve took the SVD fallback")

    monkeypatch.setattr(lsq, "lstsq", no_svd)
    report = run_benchmark({**SMALL, "methods": ["lsq"], "problems": list(PROBLEM_NAMES)})
    assert report.exit_code == 0
    assert len(report.rows) == len(PROBLEM_NAMES)


def test_single_combo_yields_header_plus_one_row():
    report = run_benchmark(SMALL)
    assert report.exit_code == 0
    lines = report.to_csv().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_csv_ends_with_lf_and_fields_roundtrip(tmp_path):
    out = tmp_path / "rows.csv"
    report = run_benchmark(SMALL, out_path=out)
    raw = out.read_bytes()
    assert raw.endswith(b"\n")
    assert b"\r" not in raw
    row = report.rows[0]
    fields = report.to_csv().splitlines()[1].split(",")
    assert float(fields[9]) == row.l2_rel_err  # shortest-roundtrip decimal form
    assert float(fields[12]) == row.cond_est


def test_unknown_kernel_name_rejected():
    with pytest.raises(ConfigError, match="mqq"):
        BenchConfig.from_dict({**SMALL, "kernels": [{"family": "mqq"}]})


def test_unknown_method_rejected():
    with pytest.raises(ConfigError, match="bem"):
        BenchConfig.from_dict({**SMALL, "methods": ["bem"]})


def test_unknown_problem_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        run_benchmark({**SMALL, "problems": ["mystery"]})


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="n_bounary"):
        BenchConfig.from_dict({"n_bounary": 3})


def test_unknown_kernel_parameter_rejected():
    with pytest.raises(ConfigError, match="cc"):
        BenchConfig.from_dict({**SMALL, "kernels": [{"family": "mq", "cc": 1}]})


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param({"family": "mq", "c": float("nan")}, id="nan"),
        pytest.param({"family": "mq", "c": float("inf")}, id="inf"),
        pytest.param({"family": "mq", "c": "0.8"}, id="0.8"),
        pytest.param({"family": "mq", "c": True}, id="mq-c=true"),
        pytest.param({"family": "mq", "c": -1}, id="mq-c=-1"),
        pytest.param({"family": "imq", "c": 0}, id="imq-c=0"),
        pytest.param({"family": "gaussian", "c": 0}, id="gaussian-c=0"),
        pytest.param({"family": "exp_decay", "omega": -2}, id="exp_decay-omega=-2"),
        pytest.param({"family": "helmholtz_gs_2d", "k": 0}, id="helmholtz_gs_2d-k=0"),
    ],
)
def test_malformed_kernel_parameter_rejected(monkeypatch, spec):
    from rbfbench import bench

    cfg = {**SMALL, "kernels": [spec]}
    with pytest.raises(ConfigError, match="finite number"):
        BenchConfig.from_dict(cfg)
    calls = []
    monkeypatch.setattr(bench, "_single_run", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="finite number"):
        run_benchmark(cfg)
    assert calls == []


def test_non_finite_lsq_system_is_a_row_error(monkeypatch):
    # overflowing kernel columns make the least-squares matrix non-finite;
    # like the square solvers, the least-squares row records a
    # ConditioningError instead of raising
    collocate = lsq.collocation_matrix

    def overflowing(*args, **kwargs):
        return np.full_like(collocate(*args, **kwargs), np.inf)

    monkeypatch.setattr(lsq, "collocation_matrix", overflowing)
    cfg = {
        "problems": ["helmholtz_disk_inhom"],
        "methods": ["lsq"],
        "n_boundary": 16,
        "n_interior": 20,
    }
    report = run_benchmark(cfg)
    assert report.rows == []
    assert len(report.errors) == 1
    assert "lsq/nb=16: ConditioningError" in report.errors[0]


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param({"family": "mq", "c": 1e300}, id="mq-c=1e300"),
        pytest.param({"family": "mq", "c": 1e150}, id="mq-c=1e150"),
        pytest.param({"family": "imq", "c": 1e-60}, id="imq-c=1e-60"),
        pytest.param({"family": "gaussian", "c": 5e-39}, id="gaussian-c=5e-39"),
        pytest.param({"family": "gaussian", "c": 1e-40}, id="gaussian-c=1e-40"),
        pytest.param({"family": "gaussian", "c": 1e-170}, id="gaussian-c=1e-170"),
    ],
)
def test_shape_parameter_with_non_finite_derivatives_rejected(tmp_path, capsys, spec):
    # finite, in range, but the family's own derivatives overflow: refused
    # at config time, before any row, without a numpy warning
    import json
    import warnings

    from rbfbench.cli import main

    cfg = {**SMALL, "problems": ["helmholtz_disk_inhom"], "methods": ["lsq"], "kernels": [spec]}
    path, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="not finite"):
            BenchConfig.from_dict(cfg)
        with pytest.raises(ParameterError, match="not finite"):
            build_kernel(**spec)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert caught == []
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param({"family": "helmholtz_gs_2d", "k": 1e200}, id="helmholtz_gs_2d-k=1e200"),
        pytest.param({"family": "exp_decay", "omega": 1e200}, id="exp_decay-omega=1e200"),
        pytest.param({"family": "mod_helmholtz_gs_2d", "k": 400.0}, id="mod_helmholtz-k=400"),
    ],
)
def test_wavenumber_or_decay_rate_with_non_finite_derivatives_rejected(spec):
    # a finite, in-range k or omega whose derivatives overflow is a
    # ConfigError before the first solve, with no numpy warning on the way
    import warnings

    cfg = {"problems": ["poisson_square"], "methods": ["mkm"], "kernels": [spec],
           "n_boundary": 8, "n_interior": 4}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="not finite"):
            run_benchmark(cfg)
        with pytest.raises(ParameterError, match="not finite"):
            build_kernel(**spec)
    assert caught == []


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_timing_accepts_only_booleans(flag):
    with pytest.raises(ConfigError, match="timing"):
        BenchConfig.from_dict({**SMALL, "timing": flag})


@pytest.mark.parametrize(
    "key, bad",
    [
        ("n_boundary", "abc"),
        ("n_boundary", [16, "x"]),
        ("n_interior", 6.5),
        ("seed", True),
        ("bpm_order", None),
        ("n_interior", -1),
        ("n_boundary", 3),
        ("n_boundary", [16, 2]),
        ("bpm_order", 0),
        ("bpm_order", 5),
        ("seed", -3),
        ("n_boundary", []),
    ],
)
def test_non_integer_counts_rejected(key, bad):
    with pytest.raises(ConfigError, match=key):
        BenchConfig.from_dict({**SMALL, key: bad})


@pytest.mark.parametrize(
    "key, bad",
    [
        ("problems", 5),
        ("methods", "bkm"),
        ("kernels", 3),
        ("problems", [["x"]]),
        ("problems", []),
        ("methods", []),
        ("kernels", []),
    ],
    ids=[
        "problems-int",
        "methods-str",
        "kernels-int",
        "problems-nested",
        "problems-empty",
        "methods-empty",
        "kernels-empty",
    ],
)
def test_config_lists_rejected(key, bad):
    with pytest.raises(ConfigError, match=key[:-1]):
        BenchConfig.from_dict({**SMALL, key: bad})


_KNOWN_KEYS = (
    "problems", "methods", "kernels", "n_boundary", "n_interior", "seed", "bpm_order", "timing"
)
_NAMES = (
    "family", "c", "k", "omega", "mq", "gaussian", "helmholtz_gs_2d", "helmholtz_disk", "bkm"
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(_NAMES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(_NAMES), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_KNOWN_KEYS), _JSON))
def test_config_parses_or_raises_config_error(raw):
    # any JSON-like value under the known keys is a config or a ConfigError
    try:
        cfg = BenchConfig.from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, BenchConfig)


@pytest.mark.parametrize(
    "entry",
    [
        lambda cfg: run_benchmark(cfg),
        lambda cfg: convergence_study(cfg, [16, 32, 64]),
    ],
    ids=["run_benchmark", "convergence_study"],
)
def test_unknown_problem_fails_before_any_solve(monkeypatch, entry):
    from rbfbench import bench

    calls = []
    monkeypatch.setattr(bench, "_single_run", lambda *args: calls.append(args))
    cfg = {**SMALL, "problems": ["helmholtz_disk", "mystery"]}
    with pytest.raises(ConfigError, match="mystery"):
        entry(cfg)
    assert calls == []


# helmholtz_disk's operator supplies k, so only the second problem lacks one
NO_WAVENUMBER = {
    **SMALL,
    "problems": ["helmholtz_disk", "poisson_square"],
    "methods": ["kansa"],
    "kernels": [{"family": "helmholtz_gs_2d"}],
}


@pytest.mark.parametrize(
    "entry",
    [
        lambda cfg: run_benchmark(cfg),
        lambda cfg: convergence_study(cfg, [16, 32, 64]),
    ],
    ids=["run_benchmark", "convergence_study"],
)
def test_missing_wavenumber_fails_before_any_solve(monkeypatch, entry):
    from rbfbench import bench

    calls = []
    monkeypatch.setattr(bench, "_single_run", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="needs a wavenumber"):
        entry(NO_WAVENUMBER)
    assert calls == []


def test_cli_missing_wavenumber_is_config_error(tmp_path, capsys):
    import json

    from rbfbench.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(NO_WAVENUMBER))
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "needs a wavenumber" in capsys.readouterr().err
    assert not out.exists()


def test_default_suite_covers_every_method():
    import time

    start = time.perf_counter()
    report = run_benchmark(str(REPO / "configs" / "default.json"))
    elapsed = time.perf_counter() - start
    assert report.exit_code == 0
    methods = {row.method for row in report.rows}
    assert methods == {"bkm", "bkm_direct", "bpm", "mkm", "kansa", "lsq"}
    assert all(row.cond_est >= 1.0 for row in report.rows)
    assert elapsed < 60.0  # pilot: under 2 s
    fixture = REPO / "tests" / "fixtures" / "default_suite.csv"
    assert report.to_csv().encode() == fixture.read_bytes()


def test_every_method_is_scored_by_compute_errors(monkeypatch):
    from rbfbench import bench

    calls = []

    def counted(*args):
        calls.append(args)
        return compute_errors(*args)

    monkeypatch.setattr(bench, "compute_errors", counted)
    report = run_benchmark({**SMALL, "methods": list(bench.METHOD_NAMES)})
    assert report.exit_code == 0
    assert {row.method for row in report.rows} == set(bench.METHOD_NAMES)
    assert len(calls) == len(report.rows)


def test_small_config_deterministic():
    a = run_benchmark(SMALL).to_csv()
    b = run_benchmark(SMALL).to_csv()
    assert a == b


def test_solver_failure_sets_exit_code():
    bad = {
        "problems": ["poisson_square"],
        "methods": ["mkm"],
        "kernels": [{"family": "tps"}],
        "n_boundary": 8,
        "n_interior": 5,
        "seed": 1,
    }
    report = run_benchmark(bad)
    assert report.exit_code == 1
    assert len(report.rows) == 0
    assert "KernelSmoothnessError" in report.errors[0]


def test_timing_flag_records_wall_clock():
    report = run_benchmark({**SMALL, "timing": True})
    assert report.rows[0].runtime_ms > 0.0


def test_step_fit_problem_runs_via_lsq():
    cfg = {
        "problems": ["step_fit"],
        "methods": ["lsq"],
        "kernels": [{"family": "mq", "c": 0.2}],
        "n_boundary": 16,
        "n_interior": 48,
        "seed": 3,
    }
    report = run_benchmark(cfg)
    assert report.exit_code == 0
    assert report.rows[0].operator == "fit"
    assert report.rows[0].max_err > 0.0  # the jump cannot be matched


def test_convergence_ladder_rows_and_summary():
    report = convergence_study(SMALL, [16, 32, 64])
    assert [r.ladder_idx for r in report.rows] == [0, 1, 2]
    assert [r.n_boundary for r in report.rows] == [16, 32, 64]
    assert report.rows[-1].l2_rel_err < report.rows[0].l2_rel_err
    assert len(report.summaries) == 1
    assert "improved" in report.summaries[0]
    header = report.to_csv().splitlines()[0]
    assert header == CSV_HEADER + ",ladder_idx"


def test_short_ladder_rejected():
    with pytest.raises(ConfigError):
        convergence_study(SMALL, [16])
    with pytest.raises(ConfigError):
        convergence_study(SMALL, [16, 16, 32])


def test_cli_kernels_list(capsys):
    from rbfbench.cli import main
    from rbfbench.kernels import CATALOG

    assert main(["kernels", "list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == list(CATALOG)


def test_cli_run_and_converge(tmp_path, capsys):
    from rbfbench.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"problems": ["helmholtz_disk"], "methods": ["bkm"], '
        '"kernels": [{"family": "mq", "c": 0.8}], "n_boundary": 16, '
        '"n_interior": 0, "seed": 7}\n'
    )
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == CSV_HEADER

    conv = tmp_path / "conv.csv"
    assert main(["converge", "--config", str(cfg), "--ladder", "16,32,64", "--out", str(conv)]) == 0
    assert "improved" in capsys.readouterr().out


def test_cli_bad_ladder_is_config_error(tmp_path, capsys):
    from rbfbench.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"problems": ["helmholtz_disk"], "methods": ["bkm"]}\n')
    out = tmp_path / "conv.csv"
    assert main(["converge", "--config", str(cfg), "--ladder", "16,x,32", "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_config_exit_code(tmp_path):
    from rbfbench.cli import main

    cfg = tmp_path / "bad.json"
    cfg.write_text('{"kernels": [{"family": "mqq"}]}\n')
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
