"""Workload definitions: each workload is a fixed list of one-row harness configs.

Every case is a config dict that `rbfbench.bench.run_benchmark` accepts
and that yields exactly one CSV row; the library sees nothing else of the
benchmark. All cases use the harness's default node seed, so a workload's
node sets, and therefore its accuracy, are fixed. The benchmark's own
``--seed`` sets the order in which a pass issues the cases (`pass_order`).
Why each workload exists is written up in README.md.

Every workload carries all six methods so that each end-to-end metric
is measured on every workload.
"""

from __future__ import annotations

WORKLOADS = ("square_dense", "disk_boundary", "suite_small")

DOMAIN_METHODS = ("mkm", "kansa", "lsq")
BOUNDARY_METHODS = ("bkm", "bkm_direct", "bpm")
METHODS = BOUNDARY_METHODS + DOMAIN_METHODS

BPM_ORDER = 3

#: node seed of every case (the harness default)
NODE_SEED = 7

# Methods each problem supports in the harness. Kept here rather than read
# from the library so that a library change which drops a combination shows
# up as a row-count mismatch instead of silently shrinking the workload.
PROBLEM_METHODS = {
    "helmholtz_disk": METHODS,
    "helmholtz_disk_inhom": METHODS,
    "poisson_square": DOMAIN_METHODS,
    "poisson_square_inhom": DOMAIN_METHODS,
    "step_fit": ("lsq",),
}

#: times each case of a method is issued per pass (default once)
REPEAT = {
    "square_dense": {"bpm": 8},
    "disk_boundary": {"bkm": 3, "bkm_direct": 3, "kansa": 6},
}

SUITE_KERNELS = ("mq", "gaussian", "imq")
SUITE_LADDER = (16, 32, 64)
SMOKE_LADDER = (8, 12, 16)


def _case(problem, method, kernel, nb, ni):
    return {
        "problems": [problem],
        "methods": [method],
        "kernels": [{"family": kernel}],
        "n_boundary": nb,
        "n_interior": ni,
        "seed": NODE_SEED,
        "bpm_order": BPM_ORDER,
    }


def cases(workload: str, smoke: bool = False) -> list:
    """The workload's one-row configs, in canonical order.

    `smoke` shrinks every node count to the smallest sizes the smoke test
    uses; the case structure (problems, methods, kernels) is unchanged.
    """
    if workload == "square_dense":
        # MQ at the harness default shape parameter. The boundary methods
        # have no general solution for the Laplacian, so they run on the
        # disk problem at the same (nb, ni).
        nb, ni = (16, 16) if smoke else (128, 1024)
        return [
            _case("poisson_square_inhom", m, "mq", nb, ni) for m in DOMAIN_METHODS
        ] + [
            _case("helmholtz_disk_inhom", m, "mq", nb, ni) for m in BOUNDARY_METHODS
        ]
    if workload == "disk_boundary":
        nb, ni = (16, 8) if smoke else (512, 60)
        return [
            _case(p, m, "mq", nb, ni)
            for p in ("helmholtz_disk", "helmholtz_disk_inhom")
            for m in BOUNDARY_METHODS
        ] + [_case("helmholtz_disk_inhom", m, "mq", nb, ni) for m in DOMAIN_METHODS]
    if workload == "suite_small":
        ladder = SMOKE_LADDER if smoke else SUITE_LADDER
        return [
            _case(p, m, k, nb, 60)
            for p, methods in PROBLEM_METHODS.items()
            for m in methods
            for k in SUITE_KERNELS
            for nb in ladder
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def problems(workload: str) -> list:
    """Problem names the workload touches, in first-use order."""
    return list(dict.fromkeys(c["problems"][0] for c in cases(workload, smoke=True)))


def pass_order(workload: str, case_list: list, rng) -> list:
    """Indices of the cases in the order one pass issues them.

    Cheap cases are issued several times per pass (`REPEAT`), so that the
    median time of a short row rests on more samples per run.
    """
    reps = REPEAT.get(workload, {})
    order = [i for i, c in enumerate(case_list) for _ in range(reps.get(c["methods"][0], 1))]
    rng.shuffle(order)
    return order
