"""rbfbench benchmark: one closed-loop client driving the public harness.

Usage, from the repository root:

    python3 perfbench/run.py --workload square_dense --seed 7 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a JSON record of the environment, sample counts,
failure ratio and accuracy per problem/method. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

#: OpenBLAS threads. One: on two shared cores a second BLAS thread makes the
#: small-matrix rows of suite_small over twice as slow and far noisier.
BLAS_THREADS = 1

#: set-up samples per run; setup_s is their median
SETUP_SAMPLES = 5

#: a set-up sample that takes longer than this is a failed run
SETUP_TIMEOUT_S = 60


def setup_sample(workload: str) -> float:
    """Seconds from starting a fresh interpreter to its set-up being done.

    Wall time, not scaled by the speed probe: a probe taken right after a
    child interpreter exits read up to 40% slower than the probes of the
    timed passes that follow, so scaling made the samples noisier."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest node counts, one set-up sample")
    args = ap.parse_args(argv)

    if not (SRC / "rbfbench" / "__init__.py").is_file():
        print(f"rbfbench sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import measure  # imports numpy, so only after the thread count is fixed

    if args.trace:
        result = measure.traced(args.workload, args.seed, args.seconds, args.smoke)
    else:
        # the imports above left compiled modules behind, so every set-up
        # sample sees the same warm byte-code cache
        samples = [setup_sample(args.workload) for _ in range(1 if args.smoke else SETUP_SAMPLES)]
        result = measure.untraced(args.workload, args.seed, args.seconds, args.smoke)
        result["metrics"]["setup_s"] = (statistics.median(samples), "s")
        result["record"]["setup_samples_s"] = samples

    record = dict(result["record"], workload=args.workload, seed=args.seed,
                  environment=measure.environment())
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
