"""One set-up sample: import the library, build the workload's problems, check them.

Run as ``python3 perfbench/setup_probe.py <workload>`` from the repository
root. Prints ``ready`` once set-up is done; the parent measures the wall
time from starting this process to reading that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import problems  # noqa: E402

from rbfbench.problems import check_consistency, get_problem  # noqa: E402

for name in problems(sys.argv[1]):
    check_consistency(get_problem(name))
print("ready", flush=True)
