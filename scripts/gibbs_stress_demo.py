#!/usr/bin/env python3
"""Interpolation vs least squares on a discontinuous target.

Fits a step function along the first coordinate with a global MQ
expansion, once by square interpolation and once with twice as many
field rows solved in the least-squares sense, then reports the maximum
overshoot on a line of probes crossing the jump: how far the fit rises
above the step's top value 1 or falls below its bottom value 0.
"""

import numpy as np

from rbfbench import lsq
from rbfbench.geometry import DomainSpec, generate_nodes
from rbfbench.kernels import build_kernel
from rbfbench.operators import kernel_value_matrix


def overshoot(u: np.ndarray) -> float:
    """Largest excursion of u outside the step's range [0, 1]."""
    return max(np.max(u) - 1.0, -np.min(u))


def main():
    square = DomainSpec("rectangle", 1.0, 1.0)
    sources = generate_nodes(square, 16, 48, seed=3).all_points()
    fields = generate_nodes(square, 32, 96, seed=4).all_points()
    target = lambda p: np.where(p[:, 0] >= 0.5, 1.0, 0.0)
    psi = build_kernel("mq", c=0.2)

    interp = np.linalg.solve(kernel_value_matrix(psi, sources, sources), target(sources))
    res = lsq.solve_least_squares(
        lsq.OverdeterminedSystem(G=kernel_value_matrix(psi, fields, sources), b=target(fields))
    )

    xs = np.linspace(0.05, 0.95, 181)
    probes = np.column_stack([xs, np.full_like(xs, 0.55)])
    basis = kernel_value_matrix(psi, probes, sources)
    u_interp, u_lsq = basis @ interp, basis @ res.beta

    print(f"sources: {len(sources)}, field rows: {len(fields)} (2x)")
    print(f"max overshoot, interpolation : {overshoot(u_interp):.4f}")
    print(f"max overshoot, least squares : {overshoot(u_lsq):.4f}")
    print(f"residual sum of squares      : {res.sigma:.4f}")


if __name__ == "__main__":
    main()
