"""Smoke tests: the example scripts run to completion in-process.

`run_default_suite.py` is left out because it writes `results.csv` into
the working directory.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
