"""Smoke tests: the example scripts and the benchmark replay run to completion in-process."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"


def _run_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main()


@pytest.mark.parametrize(
    "name, headers, n_lines",
    [
        (
            "gibbs_stress_demo",
            ["sources: 64, field rows: 128 (2x)", "max overshoot, interpolation", "max overshoot, least squares"],
            4,
        ),
        ("shape_parameter_sweep", ["    c |    mkm l2  mkm band"], 8),  # header + 7 values of c
    ],
)
def test_script_main_runs(name, headers, n_lines, capsys):
    assert _run_main(name) is None
    lines = capsys.readouterr().out.splitlines()
    for header in headers:
        assert any(line.startswith(header) for line in lines), header
    assert len(lines) == n_lines


def test_gibbs_demo_least_squares_overshoots_less(capsys):
    # the overshoot is the excursion outside the step's range [0, 1], not
    # the error at the jump, which is about 0.5 for any smooth fit
    _run_main("gibbs_stress_demo")
    overshoot = {
        label.strip(): float(value)
        for label, value in (
            line.split(":") for line in capsys.readouterr().out.splitlines()
            if line.startswith("max overshoot")
        )
    }
    assert 0.0 < overshoot["max overshoot, least squares"] < overshoot["max overshoot, interpolation"]


def test_perfbench_replay_runs_every_problem_method_pair(monkeypatch):
    # the traced replay imports library functions by name; a removed or
    # renamed one fails here, not only in the separate perfbench suite
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import replay
    import workloads

    cases = {}
    for w in workloads.WORKLOADS:
        for case in workloads.cases(w, smoke=True):
            cases.setdefault((case["problems"][0], case["methods"][0]), case)
    assert len(cases) == 19
    for pair, case in cases.items():
        result = replay.replay_case(replay.Tracer(), case)
        assert np.isfinite(result.l2_rel_err), pair
