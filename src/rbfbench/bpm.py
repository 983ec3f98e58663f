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

The source is read only at the boundary nodes, so the series ends
exactly at the last order whose boundary data are not all zero: every
higher order has a zero right-hand side and, by induction from the top,
exactly zero coefficients. Those orders keep their (zero) terms but are
neither assembled, solved nor evaluated; a homogeneous problem solves
order 0 alone, and its `tail_magnitude` reads 0.0.
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


@dataclass(frozen=True)
class MrmProblem:
    """Inhomogeneous problem with an analytic operator-power chain.

    `f_chain[j]` evaluates the j-fold operator image of the source term
    (entry 0 is the source term itself) and `f_grad_chain[j]` its
    gradient, read on Neumann rows. Both chains must reach the truncation
    order.
    """

    operator: OperatorSpec
    bc: BoundaryData
    f_chain: tuple
    order: int
    f_grad_chain: tuple

    def __post_init__(self):
        if self.order < 1:
            raise ConfigError(f"truncation order must be >= 1, got {self.order}")
        if len(self.f_chain) < self.order:
            raise ConfigError(
                f"source-term chain has {len(self.f_chain)} entries; "
                f"order {self.order} needs at least {self.order}"
            )
        if self.f_grad_chain is None or len(self.f_grad_chain) < self.order:
            raise ConfigError("gradient chain missing or shorter than the truncation order")


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
    to that row block. Order 0 carries the physical boundary data. Orders
    above the last one with nonzero data get zero coefficients unsolved.
    """
    M = problem.order
    # the data of every order: the boundary values at order 0, the
    # (n-1)-fold source image at order n; `top` is the last nonzero one
    samples = [problem.bc] + [
        BoundaryData.from_callables(nodes, problem.f_chain[j], problem.f_grad_chain[j])
        for j in range(M)
    ]
    data = [s.stacked(nodes) for s in samples]
    top = max((n for n, d in enumerate(data) if np.any(d)), default=0)
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

    # trace matrices of the chain kernels up to `top`, in one pass; index m
    # maps coefficients of an order-(n+m) expansion to its traces after n powers
    cols = boundary_groups(nodes)
    trace = [q.matrix]
    if top:
        trace += collocation_matrices(None, kernel_chain[1 : top + 1], cols, cols)

    betas = [np.zeros(len(data[0])) for _ in range(M + 1)]
    for n in range(top, -1, -1):
        rhs = data[n]
        for m in range(n + 1, top + 1):
            rhs = rhs - trace[m - n] @ betas[m]
        betas[n] = q.solve(rhs)

    terms = [Term(problem.operator, kern, cols, beta) for kern, beta in zip(kernel_chain, betas)]
    return BpmSolution(terms, q.cond_est)
