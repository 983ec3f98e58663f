"""Boundary particle method: boundary-only solves via multiple reciprocity.

The particular solution is replaced by a truncated series of
higher-order homogeneous terms. Each order m is a Hermite expansion in
the order-m chain kernel (L{u_m} = u_(m-1)); because repeated operator
application collapses any order onto the base kernel, every order is
solved with one shared matrix Q, factored once. Orders are solved top
down: the truncation order first (its own tail set to zero), each lower
order subtracting the traces of the already-solved tail. The chain
kernels of all orders are evaluated together: each point-set pair gets
one pairwise geometry and one Bessel table for every order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bkm import BoundaryData, assemble_symmetric_system, boundary_groups
from .errors import ConfigError
from .geometry import NodeSet
from .kernels import RadialKernel
from .linalg import Factor, factor
from .operators import Expansion, OperatorSpec, Term, collocation_matrices

#: step for the fallback central-difference gradient of source-term chains
_FD_STEP = 1e-6


@dataclass(frozen=True)
class MrmProblem:
    """Inhomogeneous problem with an analytic operator-power chain.

    `f_chain[j]` evaluates the j-fold operator image of the source term
    (entry 0 is the source term itself); `f_grad_chain` optionally
    supplies the matching gradients for Neumann rows, otherwise central
    differences are used. The chain must reach the truncation order.
    """

    operator: OperatorSpec
    bc: BoundaryData
    f_chain: tuple
    order: int
    f_grad_chain: Optional[tuple] = None

    def __post_init__(self):
        if self.order < 1:
            raise ConfigError(f"truncation order must be >= 1, got {self.order}")
        if len(self.f_chain) < self.order:
            raise ConfigError(
                f"source-term chain has {len(self.f_chain)} entries; "
                f"order {self.order} needs at least {self.order}"
            )
        if self.f_grad_chain is not None and len(self.f_grad_chain) < self.order:
            raise ConfigError("gradient chain shorter than the truncation order")

    def chain_normal_derivative(self, j: int, points, normals) -> np.ndarray:
        pts = np.atleast_2d(points)
        nrm = np.atleast_2d(normals)
        if self.f_grad_chain is not None:
            g = np.asarray(self.f_grad_chain[j](pts), dtype=float)
            return np.einsum("ij,ij->i", g, nrm)
        f = self.f_chain[j]
        plus = np.asarray(f(pts + _FD_STEP * nrm), dtype=float)
        minus = np.asarray(f(pts - _FD_STEP * nrm), dtype=float)
        return (plus - minus) / (2.0 * _FD_STEP)


def assemble_Q(nodes: NodeSet, op: OperatorSpec, u_sharp_0: RadialKernel) -> Factor:
    """Assemble the shared matrix (identical to the BKM matrix) and factor it."""
    return factor(assemble_symmetric_system(nodes, op, u_sharp_0), "shared collocation")


class BpmSolution(Expansion):
    """One Hermite expansion per order m, in the order-m chain kernel."""

    @property
    def beta_by_order(self) -> list:
        return [t.coefficients for t in self.terms]

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    @property
    def tail_magnitude(self) -> float:
        """Max-norm of the top-order coefficients; small means the series settled."""
        return float(np.max(np.abs(self.terms[-1].coefficients)))


def solve_bpm(
    nodes: NodeSet,
    problem: MrmProblem,
    kernel_chain: Sequence[RadialKernel],
    q: Optional[Factor] = None,
) -> BpmSolution:
    """Reversal recursion over orders, reusing one factorization of Q.

    Order M is solved against the (M-1)-fold operator image of the
    source term with its particular tail truncated to zero; each lower
    order subtracts the boundary traces of the already-solved higher
    orders, shifted down the kernel chain by the operator powers applied
    to that row block. Order 0 carries the physical boundary data.
    """
    problem.bc.check_counts(nodes)
    M = problem.order
    if len(kernel_chain) < M + 1:
        raise ConfigError(
            f"kernel chain has {len(kernel_chain)} entries; order {M} needs {M + 1}"
        )
    for m, kern in enumerate(kernel_chain):
        if kern.order != m or kern.k != kernel_chain[0].k:
            raise ConfigError(
                f"kernel chain entry {m} is {kern.name} at k = {kern.k:g}; "
                f"it must have order {m} and entry 0's k = {kernel_chain[0].k:g}"
            )
    if q is None:
        q = assemble_Q(nodes, problem.operator, kernel_chain[0])

    # trace matrices of every chain kernel, in one pass; index m maps
    # coefficients of an order-(n+m) expansion to its traces after n powers
    cols = boundary_groups(nodes)
    trace = [q.matrix] + collocation_matrices(None, kernel_chain[1 : M + 1], cols, cols)

    xd, xn = nodes.dirichlet_points, nodes.neumann_points
    nn = nodes.neumann_normals

    betas: list = [None] * (M + 1)
    for n in range(M, 0, -1):
        rhs = np.concatenate(
            [
                np.asarray(problem.f_chain[n - 1](xd), dtype=float),
                problem.chain_normal_derivative(n - 1, xn, nn),
            ]
        )
        for m in range(n + 1, M + 1):
            rhs -= trace[m - n] @ betas[m]
        betas[n] = q.solve(rhs)

    rhs = np.concatenate([problem.bc.dirichlet_values, problem.bc.neumann_values])
    for m in range(1, M + 1):
        rhs = rhs - trace[m] @ betas[m]
    betas[0] = q.solve(rhs)

    terms = [Term(problem.operator, kern, cols, beta) for kern, beta in zip(kernel_chain, betas)]
    return BpmSolution(terms, q.cond_est)
