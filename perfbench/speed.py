"""Machine-speed probe: a fixed dense LU factorisation timed between timed calls.

On a shared host the CPU's speed drifts: the same pass over `suite_small`
took anywhere from 1.1 s to 1.9 s within one minute, in process CPU time
as much as in wall time, and pure-Python loops, small BLAS solves and
small harness rows slowed down together. A median over a half-minute run
cannot average that out: over ten runs of the same code, the middle half
of a timing spread by up to a third of its median.

The benchmark therefore times this probe right before and right after
every call it reports and scales the call's wall time towards the speed
at which the probe takes `REF_MS`:

    scaled = wall * (REF_MS / mean(probe before, probe after)) ** SENSITIVITY

The probe factorises the same 300 x 300 matrix with scipy's LAPACK on the
one BLAS thread the benchmark allows. It touches nothing of the library,
so no change to the program can move it; only the machine can. Among the
probes tried (a pure-Python loop, a 256 x 256 matrix product, LUs of
300 to 1000 rows, streaming arithmetic over 16 MB arrays), this one left
the smallest run-to-run spread over the three workloads. Import this
module only after the BLAS thread count is fixed in the environment.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

#: probe time, in ms, that defines the reference speed of every scaled
#: timing (about the probe's median on a shared 2.1 GHz x86_64 core)
REF_MS = 1.3

#: How much of the probe's slowdown a call is taken to share. Small rows
#: (Python-bound, small matrices) slow down as much as the probe; the large
#: dense factorisations and SVDs (n ~ 1100-1280) only about 0.4 as much,
#: so a full correction over-corrects them. Recomputed from the per-call
#: timings of earlier runs and then measured on ten fresh runs per
#: workload, 0.7 kept every workload's worst metric at a run-to-run spread
#: of at most 11%, against up to 20% at 1 and up to 27% unscaled.
SENSITIVITY = 0.7

#: probe timings per probe; the median drops one interrupted timing
_REPEATS = 3

_N = 300
_MATRIX = np.random.default_rng(0).random((_N, _N)) + _N * np.eye(_N)


def probe() -> float:
    """Median wall time of the fixed LU over a few back-to-back timings, in ms."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        scipy.linalg.lu_factor(_MATRIX)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def scale(seconds: float, before_ms: float, after_ms: float) -> float:
    """`seconds` of wall time, rescaled towards the reference speed."""
    return seconds * (2.0 * REF_MS / (before_ms + after_ms)) ** SENSITIVITY
