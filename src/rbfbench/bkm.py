"""Symmetric boundary knot method, indirect and direct variants.

The field splits into a particular part (an RBF fit of the source term
over all nodes) and a homogeneous part expanded in a nonsingular
general solution of the operator. The homogeneous expansion is Hermite:
Dirichlet boundary nodes contribute plain kernel columns, Neumann nodes
contribute source-normal derivative columns with a sign that makes the
collocation matrix exactly symmetric. Interior nodes never enter the
boundary solve; the solution evaluates the expansion wherever asked.
That boundary trace matrix is factored in `assemble_Q` alone, which BPM
reuses for every order of its series and asks for its chain kernels' trace
matrices in the same pass.
The direct variant is the indirect solve followed by its own product
with the swapped (complementary) trace matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidKernelError
from .geometry import NodeSet
from .kernels import RadialKernel
from .linalg import CONDITION_LIMIT, Factor, factor
from .operators import (
    Expansion,
    OperatorSpec,
    Term,
    collocation_matrices,
    collocation_matrix,
    homogeneous_residual,
)

#: residual ceiling for accepting a kernel as a homogeneous solution
GENERAL_SOLUTION_TOL = 1e-4


@dataclass(frozen=True)
class BoundaryData:
    """Prescribed boundary values: R on the Dirichlet part, N on the Neumann part."""

    dirichlet_values: np.ndarray
    neumann_values: np.ndarray

    @staticmethod
    def from_callables(nodes: NodeSet, value: Callable, gradient: Callable) -> "BoundaryData":
        """Sample Dirichlet values and Neumann normal derivatives of a field."""
        xd, xn = nodes.dirichlet_points, nodes.neumann_points
        r = np.asarray(value(xd), dtype=float)
        if len(xn):
            g = np.asarray(gradient(xn), dtype=float)
            n = np.einsum("ij,ij->i", g, nodes.neumann_normals)
        else:
            n = np.empty(0)
        return BoundaryData(r, n)

    def stacked(self, nodes: NodeSet) -> np.ndarray:
        """A new [Dirichlet values | Neumann normal derivatives] vector, the
        `boundary_groups` order; a ValueError when a count does not match
        the partition of `nodes`."""
        if len(self.dirichlet_values) != len(nodes.dirichlet_idx):
            raise ValueError("Dirichlet value count does not match partition")
        if len(self.neumann_values) != len(nodes.neumann_idx):
            raise ValueError("Neumann value count does not match partition")
        return np.concatenate([self.dirichlet_values, self.neumann_values])


@dataclass(frozen=True)
class RecoveredTraces:
    """Complementary boundary traces from the direct solve.

    Normal derivatives at Dirichlet nodes and field values at Neumann
    nodes, in partition order.
    """

    neumann_at_dirichlet: np.ndarray
    dirichlet_at_neumann: np.ndarray
    cond_est: float


def boundary_groups(nodes: NodeSet) -> list:
    """Collocation groups of the Hermite boundary layout: values at
    Dirichlet nodes, then normal derivatives at Neumann nodes."""
    return [
        ("value", nodes.dirichlet_points),
        ("normal", nodes.neumann_points, nodes.neumann_normals),
    ]


def fit_particular(
    nodes: NodeSet, f_samples, op: OperatorSpec, phi: RadialKernel
) -> Expansion:
    """Fit coefficients so the kernel expansion satisfies L{u_p} = f at all nodes.

    The interpolation matrix carries L{phi} entries; the fitted expansion
    itself sums plain phi terms, so L applied to it reproduces f at the
    nodes by construction.
    """
    centers = nodes.all_points()
    f = np.asarray(f_samples, dtype=float)
    if len(f) != len(centers):
        raise ValueError(f"expected {len(centers)} source samples, got {len(f)}")
    fit = factor(
        collocation_matrix(op, phi, [("op", centers)], [("value", centers)]),
        "particular-solution fit",
        limit=CONDITION_LIMIT,
    )
    return Expansion([Term(op, phi, [("value", centers)], fit.solve(f))], fit.cond_est)


def assemble_symmetric_system(
    nodes: NodeSet, op: OperatorSpec, u_sharp: RadialKernel
) -> np.ndarray:
    """Validate the kernel against the operator, then build the boundary trace
    matrix (`boundary_groups` rows and columns: symmetric for any radial kernel)."""
    return _trace_matrices(nodes, op, [u_sharp])[0]


def _trace_matrices(nodes: NodeSet, op: OperatorSpec, kernels) -> list:
    # the trace matrices of `kernels` from one pass, once kernels[0] is checked
    u_sharp = kernels[0]
    res = homogeneous_residual(op, u_sharp)
    if res > GENERAL_SOLUTION_TOL:
        raise InvalidKernelError(
            f"kernel {u_sharp.name} is not a homogeneous solution of "
            f"{op.kind} (residual {res:.2e})"
        )
    groups = boundary_groups(nodes)
    return collocation_matrices(None, kernels, groups, groups)


def assemble_Q(
    nodes: NodeSet, op: OperatorSpec, u_sharp: RadialKernel, tail: Optional[Sequence] = None
) -> Factor | tuple[Factor, list]:
    """The factored boundary trace matrix of BKM and of every BPM order; ill-conditioning
    is reported, not refused (these matrices pass 1e16 while the field stays accurate).

    Given `tail`, kernels read in the same pass as `u_sharp` (BPM's chain kernels of
    orders 1, 2, ...), returns the factor and the tail's trace matrices, each tile
    of them one pairwise geometry and one derivative pass for every kernel.
    """
    q, *traces = _trace_matrices(nodes, op, [u_sharp, *(tail or ())])
    q = factor(q, "boundary knot")
    return q if tail is None else (q, traces)


def solve_indirect(
    nodes: NodeSet,
    op: OperatorSpec,
    bc: BoundaryData,
    f_samples,
    phi: Optional[RadialKernel],
    u_sharp: RadialKernel,
) -> Expansion:
    """The homogeneous boundary expansion, then the particular fit's terms.

    A homogeneous problem (no source samples, or all zero) skips the fit
    and needs no interior nodes.
    """
    rhs = bc.stacked(nodes)
    particular = None
    if f_samples is not None and np.any(np.asarray(f_samples, dtype=float)):
        if phi is None:
            raise ValueError("inhomogeneous problem needs a fitting kernel phi")
        particular = fit_particular(nodes, f_samples, op, phi)
    lu = assemble_Q(nodes, op, u_sharp)
    groups = boundary_groups(nodes)
    if particular is not None:
        rhs -= particular.traces(groups)
    homogeneous = Term(op, u_sharp, groups, lu.solve(rhs))
    terms = [homogeneous] + (particular.terms if particular is not None else [])
    return Expansion(terms, lu.cond_est)


def solve_direct(
    nodes: NodeSet,
    op: OperatorSpec,
    bc: BoundaryData,
    f_samples,
    phi: Optional[RadialKernel],
    u_sharp: RadialKernel,
) -> RecoveredTraces:
    """Recover the complementary boundary traces without exposing coefficients.

    Runs the indirect solve, then maps its homogeneous coefficients
    through the swapped trace matrix (normal derivatives at Dirichlet
    nodes, values at Neumann nodes), built here rather than read back
    through `Expansion.traces`; the particular terms of an inhomogeneous
    problem add their own swapped traces.
    """
    solved = solve_indirect(nodes, op, bc, f_samples, phi, u_sharp)
    homogeneous, particular = solved.terms[0], solved.terms[1:]
    rows = [
        ("normal", nodes.dirichlet_points, nodes.dirichlet_normals),
        ("value", nodes.neumann_points),
    ]
    B = collocation_matrix(None, u_sharp, rows, homogeneous.columns)
    traces = B @ homogeneous.coefficients
    if particular:
        traces += Expansion(particular, solved.cond_est).traces(rows)
    L_D = len(nodes.dirichlet_idx)
    return RecoveredTraces(traces[:L_D], traces[L_D:], solved.cond_est)
