import dataclasses
import tracemalloc

import numpy as np
import pytest
from pathlib import Path
from hypothesis import given, settings
import hypothesis.strategies as st

from rbfbench import lsq
from rbfbench.bench import (
    CSV_HEADER,
    MAX_DENSE_ENTRIES,
    BenchConfig,
    compute_errors,
    convergence_study,
    probe_grid,
    run_benchmark,
)
from rbfbench.errors import ConfigError, ParameterError
from rbfbench.geometry import DomainSpec, boundary_band_mask, distance_to_boundary
from rbfbench.kernels import build_kernel, default_shape_parameter
from rbfbench.operators import convection_diffusion
from rbfbench.problems import (
    CONSISTENCY_TOL,
    BenchmarkProblem,
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


def test_probe_grid_and_band_are_memoized_and_read_only():
    from rbfbench.bench import _probe_set

    for domain in (DISK, DomainSpec("rectangle", 1.0, 1.0)):
        probes, band = _probe_set(domain)
        assert probe_grid(domain) is probes
        assert np.array_equal(band, boundary_band_mask(domain, probes))
        for array in (probes, band):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_row_inputs_are_memoized_and_read_only():
    from rbfbench.bench import _row_inputs

    problem = get_problem("helmholtz_disk")  # mixed boundary: both value arrays are filled
    nodes, bc, c = _row_inputs(problem, 16, 10, 7)
    assert _row_inputs(problem, 16, 10, 7)[0] is nodes
    assert c == default_shape_parameter(nodes.all_points())
    arrays = [getattr(nodes, f.name) for f in dataclasses.fields(nodes)[1:]]
    for array in arrays + [bc.dirichlet_values, bc.neumann_values]:
        assert len(array)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_a_replaced_problem_gets_its_own_partition():
    # the row-input memo is keyed by the problem's value, not its name
    from rbfbench.bench import _row_inputs

    assert run_benchmark({**SMALL, "n_interior": 10}).exit_code == 0
    problem = get_problem("helmholtz_disk")
    assert len(_row_inputs(problem, 16, 10, 7)[0].neumann_idx) == 8
    dirichlet = dataclasses.replace(problem, bc_rule=((0.0, 1.0),))
    nodes, bc, _ = _row_inputs(dirichlet, 16, 10, 7)
    assert np.array_equal(nodes.dirichlet_idx, np.arange(16))
    assert len(nodes.neumann_idx) == len(bc.neumann_values) == 0
    assert np.array_equal(bc.dirichlet_values, problem.exact(nodes.boundary))


def test_node_set_up_has_one_owner():
    # a row's nodes, partition and default c are built only in _row_inputs
    import ast

    tree = ast.parse((REPO / "src" / "rbfbench" / "bench.py").read_text())
    owned = {"generate_nodes", "partition_boundary", "default_shape_parameter"}
    sites = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in owned:
                        sites.append((fn.name, name))
    assert sorted(sites) == sorted(("_row_inputs", name) for name in owned), sites


def test_exp_decay_defaults_to_unit_omega():
    implicit = run_benchmark({**SMALL, "kernels": [{"family": "exp_decay"}]})
    explicit = run_benchmark({**SMALL, "kernels": [{"family": "exp_decay", "omega": 1.0}]})
    assert implicit.exit_code == explicit.exit_code == 0
    assert implicit.to_csv() == explicit.to_csv()
    assert implicit.to_csv().splitlines()[1].split(",")[6] == ""  # the shape_param cell


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


def test_compute_errors_refuses_an_empty_probe_set():
    same = lambda p: p[:, 0]
    with pytest.raises(ValueError, match="probe grid is empty"):
        compute_errors(same, same, np.empty((0, 2)))


def test_manufactured_problems_are_consistent():
    for name in PROBLEM_NAMES:
        problem = get_problem(name)
        check_consistency(problem)
        assert consistency_residual(problem) < 1e-8


def test_a_replaced_problem_is_checked_on_its_own_value():
    # the consistency memo is keyed by the problem's value, not its name
    problem = get_problem("poisson_square_inhom")
    check_consistency(problem)
    assert get_problem("poisson_square_inhom") is problem
    wrong = dataclasses.replace(problem, f=lambda p: 3.0 * p[:, 1])
    for _ in range(2):
        with pytest.raises(ConfigError, match="poisson_square_inhom.*inconsistent"):
            check_consistency(wrong)
    check_consistency(problem)


def test_problem_kind_is_derived_from_the_operator():
    # a stored kind could disagree with the operator: "pde" without one failed the
    # consistency check with an AttributeError, "fit" with one skipped it
    for name in PROBLEM_NAMES:
        problem = get_problem(name)
        assert (problem.kind == "fit") == (problem.operator is None), name
    assert get_problem("step_fit").kind == "fit"
    for name, kind in (("step_fit", "pde"), ("poisson_square", "fit")):
        with pytest.raises(TypeError):
            dataclasses.replace(get_problem(name), kind=kind)


def test_consistency_check_reads_the_velocity_terms():
    # L u = D Lap u - v . grad u with D = 1, v = (2, 1) and u = e^x sin y, so f = -v . grad u
    def exact(p):
        return np.exp(p[:, 0]) * np.sin(p[:, 1])

    def f(p):
        return -np.exp(p[:, 0]) * (2.0 * np.sin(p[:, 1]) + np.cos(p[:, 1]))

    problem = BenchmarkProblem(
        name="convdiff_square",
        domain=DomainSpec("rectangle", 1.0, 1.0),
        operator=convection_diffusion(1.0, (2.0, 1.0)),
        exact=exact,
        exact_grad=None,
        f=f,
        bc_rule=((0.0, 1.0),),
        methods=frozenset({"kansa"}),
    )
    check_consistency(problem)
    assert consistency_residual(problem) < 1e-9
    flipped = dataclasses.replace(problem, f=lambda p: -f(p))
    with pytest.raises(ConfigError, match="convdiff_square.*inconsistent"):
        check_consistency(flipped)


CHAIN_PROBLEMS = [name for name in PROBLEM_NAMES if get_problem(name).f_chain is not None]


def chain_defects(problem) -> list:
    """Entries of the source-term chain that disagree with L^j{f} or with their gradients."""
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, (20, 2))
    chain, grads = problem.f_chain, problem.f_grad_chain
    f = problem.f(pts)
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


def test_bpm_runs_once_per_problem_whatever_the_kernels():
    # BPM reads its own kernel chain, not the configured kernels
    kernels = [{"family": "mq"}, {"family": "gaussian"}, {"family": "imq"}]
    config = {"problems": ["helmholtz_disk_inhom"], "methods": ["bpm"], "kernels": kernels,
              "n_boundary": [16, 32], "n_interior": 10}
    report = run_benchmark(config)
    assert report.exit_code == 0
    assert [(r.method, r.n_boundary) for r in report.rows] == [("bpm", 16), ("bpm", 32)]


@pytest.mark.parametrize(
    "kernel, cell",
    [
        ({"family": "mq", "c": 0}, "0.0"),
        ({"family": "mq", "c": 0.8}, "0.8"),
        ({"family": "gaussian", "c": 0.5}, "0.5"),
        ({"family": "helmholtz_gs_2d"}, ""),
    ],
)
def test_shape_param_cell_is_empty_only_for_families_without_c(kernel, cell):
    report = run_benchmark({**SMALL, "kernels": [kernel]})
    assert report.exit_code == 0
    assert report.to_csv().splitlines()[1].split(",")[6] == cell  # the shape_param cell


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
    with pytest.raises(ConfigError, match="unknown problem 'nope'; known: helmholtz_disk"):
        get_problem("nope")


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
        pytest.param({"family": "mq", "c": 1e50}, id="mq-c=1e50"),
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


def test_size_budget_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="MAX_DENSE_ENTRIES"):
            BenchConfig.from_dict({**SMALL, "n_interior": 10**5})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_size_budget_is_the_largest_dense_matrix():
    # boundary nodes only: MKM's (2 nb)^2 system is the largest
    BenchConfig.from_dict({**SMALL, "n_boundary": [16, 2048], "n_interior": 0})
    with pytest.raises(ConfigError, match="n_boundary 2049 with n_interior 0"):
        BenchConfig.from_dict({**SMALL, "n_boundary": [16, 2049], "n_interior": 0})
    # interior-heavy: LSQ's (2 ni + 2 nb) x (ni + nb) system is
    assert 2 * (2892 + 4) ** 2 <= MAX_DENSE_ENTRIES < 2 * (2893 + 4) ** 2
    BenchConfig.from_dict({**SMALL, "n_boundary": 4, "n_interior": 2892})
    with pytest.raises(ConfigError, match="MAX_DENSE_ENTRIES"):
        BenchConfig.from_dict({**SMALL, "n_boundary": 4, "n_interior": 2893})
    # a ladder is held to the same budget before its first solve
    with pytest.raises(ConfigError, match="n_boundary 2049"):
        convergence_study(SMALL, [16, 32, 2049])


def test_size_budget_admits_every_benchmark_case(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    for w in workloads.WORKLOADS:
        for case in workloads.cases(w):
            BenchConfig.from_dict(case)
    BenchConfig.load(REPO / "configs" / "default.json")


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


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]\n", "must be a JSON object, got list"), ('{"seed": 7,}\n', "is not valid JSON")],
    ids=["not-an-object", "invalid-json"],
)
def test_config_file_must_be_a_json_object(tmp_path, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        BenchConfig.load(path)


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


def test_run_benchmark_takes_a_bench_config():
    report = run_benchmark(BenchConfig.from_dict(SMALL))
    assert report.exit_code == 0
    assert report.to_csv() == run_benchmark(SMALL).to_csv()


def test_small_config_deterministic():
    a = run_benchmark(SMALL).to_csv()
    b = run_benchmark(SMALL).to_csv()
    assert a == b


def test_default_suite_twice_in_one_process_is_byte_identical(tmp_path):
    # the second run reads every per-process memo the first one filled
    config = REPO / "configs" / "default.json"
    run_benchmark(str(config), tmp_path / "a.csv")
    run_benchmark(str(config), tmp_path / "b.csv")
    first = (tmp_path / "a.csv").read_bytes()
    assert first == (tmp_path / "b.csv").read_bytes()
    assert first == (REPO / "tests" / "fixtures" / "default_suite.csv").read_bytes()


def test_bounded_kernel_memos_stay_sound_under_eviction(monkeypatch, tmp_path):
    # every memo that builds kernels, and the coincident-point check keyed by them, holds
    # one entry, so each build evicts the last: a kernel held past its eviction is unequal
    # to its rebuilt twin, and is checked and evaluated on its own
    from functools import lru_cache

    from rbfbench import kernels, operators
    from rbfbench.errors import KernelSmoothnessError

    memos = [(operators, "_origin_defect")] + [
        (kernels, name)
        for name in ("_catalog_kernel", "_substituted", "_augmented")
        + ("_helmholtz_chain_kernel", "_laplace_chain_kernel")
    ]
    for module, name in memos:
        monkeypatch.setattr(module, name, lru_cache(maxsize=1)(getattr(module, name).__wrapped__))
    run_benchmark(str(REPO / "configs" / "default.json"), tmp_path / "default.csv")
    fixture = REPO / "tests" / "fixtures" / "default_suite.csv"
    assert (tmp_path / "default.csv").read_bytes() == fixture.read_bytes()

    X = np.array([[0.0, 0.0], [0.5, 0.0]])

    def laplacian(kernel):
        rows, cols = [("op", X)], [("value", X)]
        return operators.collocation_matrix(operators.laplace(), kernel, rows, cols)

    smooth = build_kernel("mq", c=0.5)
    cone = build_kernel("mq", c=0)  # phi = r, evicting the smooth kernel
    twin = build_kernel("mq", c=0.5)
    assert twin is not smooth and smooth != twin and smooth != cone and cone != twin
    for _ in range(2):
        assert np.isfinite(laplacian(smooth)).all()
        with pytest.raises(KernelSmoothnessError, match="not smooth at the origin"):
            laplacian(cone)
    assert np.array_equal(laplacian(twin), laplacian(smooth))

    # the held chain kernel runs its own generator beside the chain that evicted it
    held, evicting, rebuilt = (
        kernels.higher_order_solution(operators.helmholtz(2.0), m) for m in (2, 3, 2)
    )
    assert rebuilt is not held and held != rebuilt and held != evicting
    r = np.linspace(0.0, 3.0, 31)
    chain = [held, evicting, rebuilt]
    for kern, got in zip(chain, kernels.derivs_upto_many(chain, r, 2)):
        own = kern.radial(r)
        assert all(np.array_equal(a, next(own)) for a in got), kern.name


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


def test_rough_kernels_are_refused_where_points_coincide():
    # a block that reads radial derivatives patches coincident pairs with the kernel's
    # r = 0 values, which must be finite limits with phi'(0) = 0; before the check these
    # rows returned wrong errors silently or after numpy warnings (errors under tier-1)
    exp2 = {"family": "exp_decay", "omega": 2.0}
    refused = [
        ("poisson_square_inhom", "kansa", {"family": "tps"}, 32, "op"),
        ("poisson_square_inhom", "kansa", exp2, 32, "op"),
        ("helmholtz_disk_inhom", "bkm", exp2, 32, "op"),
        ("poisson_square_inhom", "kansa", {"family": "mq", "c": 0}, 32, "op"),
        ("helmholtz_disk", "lsq", {"family": "mq", "c": 0}, 16, "normal"),
        ("poisson_square_inhom", "kansa", {"family": "laplace_fs_1d"}, 32, "op"),
    ]
    for problem, method, kernel, nb, rows in refused:
        cfg = {"problems": [problem], "methods": [method], "kernels": [kernel], "n_boundary": nb}
        report = run_benchmark(cfg)
        assert report.rows == [] and len(report.errors) == 1
        block, family = f"{rows} rows x value columns", kernel["family"]
        assert f"Error: {block} at coincident points: kernel {family} " in report.errors[0]
        assert "KernelSmoothnessError" in report.errors[0]
    assert build_kernel("tps").derivs_upto(0.0, 2) == (0.0, 0.0, -np.inf)
    # the LSQ field nodes on the square meet no source node, so these rows still solve
    for kernel, l2 in (
        ({"family": "tps"}, 0.3675192924428705),
        (exp2, 0.5878741687893884),
        ({"family": "laplace_fs_1d"}, 0.4344282700324102),
    ):
        cfg = {"problems": ["poisson_square_inhom"], "methods": ["lsq"], "kernels": [kernel]}
        report = run_benchmark(cfg)
        assert report.exit_code == 0
        assert report.rows[0].l2_rel_err == pytest.approx(l2, rel=1e-9)


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


def test_cli_reports_a_failed_solve_and_writes_the_other_rows(tmp_path, capsys):
    # TPS is refused where MKM's points coincide; LSQ's field and source nodes do not meet
    from rbfbench.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"problems": ["poisson_square"], "methods": ["mkm", "lsq"], '
        '"kernels": [{"family": "tps"}], "n_boundary": 16, "n_interior": 10}\n'
    )
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solve failed: poisson_square/mkm/nb=16: KernelSmoothnessError: ")
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[:2] for line in lines[1:]] == [["lsq", "tps"]]


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


@pytest.mark.parametrize("command", [["run"], ["converge", "--ladder", "16,32,64"]])
def test_cli_unreadable_config_is_config_error(tmp_path, capsys, command):
    from rbfbench.cli import main

    out = tmp_path / "x.csv"
    for cfg in (tmp_path / "missing.json", tmp_path):
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: cannot read config {cfg}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["converge", "--ladder", "16,32,64"]])
def test_cli_unwritable_out_path_is_refused_before_the_first_solve(
    tmp_path, capsys, monkeypatch, command
):
    from rbfbench import bench
    from rbfbench.cli import main

    def no_solve(*args):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(bench, "_single_run", no_solve)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"problems": ["helmholtz_disk"], "methods": ["bkm"], "n_boundary": 16}\n')
    for out, why in ((tmp_path / "no" / "x.csv", "does not exist"), (tmp_path, "is a directory")):
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert why in capsys.readouterr().err
    assert not (tmp_path / "no").exists()


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every fenced `rbfbench ...` line of README.md, run in-process from the repo root
    import re
    import shlex

    from rbfbench.cli import main

    blocks = re.findall(r"^```\n(.*?)^```", (REPO / "README.md").read_text(), re.M | re.S)
    commands = [line for b in blocks for line in b.splitlines() if line.startswith("rbfbench ")]
    assert {shlex.split(c)[1] for c in commands} == {"run", "converge", "kernels"}
    monkeypatch.chdir(REPO)
    for command in commands:
        args = shlex.split(command)[1:]
        if "--out" in args:
            at = args.index("--out") + 1
            args[at] = str(tmp_path / args[at])
        assert main(args) == 0, command
    assert "wrote" in capsys.readouterr().out


def test_readme_config_blocks_and_schema_match_bench_config():
    # every ```json block is a valid config; the schema table lists exactly the
    # BenchConfig fields, and each stated default gives the config of {}
    import json
    import re

    text = (REPO / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        BenchConfig.from_dict(json.loads(block))
    table = text.split("| key | type | default | range |\n|---|---|---|---|\n")[1].split("\n\n")[0]
    rows = [re.fullmatch(r"\| `(\w+)` \| [^|]+ \| `([^`]+)` \| [^|]+ \|", line) for line in table.splitlines()]
    assert all(rows), table
    assert [m[1] for m in rows] == [f.name for f in dataclasses.fields(BenchConfig)]
    for key, default in (m.groups() for m in rows):
        assert BenchConfig.from_dict({key: json.loads(default)}) == BenchConfig.from_dict({}), key
