"""Modified Kansa method and the classical unsymmetric Kansa baseline.

The modified scheme interpolates with two families of trial functions:
adjoint-operator images of the kernel centered at every node, and plain
kernel / source-normal columns centered at boundary nodes. The
governing equation is collocated at every node including boundary
nodes (each boundary node appears in one governing row and one
boundary-condition row), which is what removes the usual accuracy loss
next to the boundary. Block ordering makes the matrix literally
symmetric whenever the adjoint pairing is used, self-adjoint operator
or not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import NodeSet
from .kernels import RadialKernel
from .linalg import Factor, factor
from .operators import Expansion, OperatorSpec, Term, collocation_matrix
from .bkm import BoundaryData, boundary_groups


@dataclass
class SolutionField(Expansion):
    """Solved expansion with the max-norm residual of its system, relative to the data."""

    residual_inf: float


@dataclass
class MkmSystem:
    """Square Hermite system: unknowns [alpha (N+L) | beta (L)]."""

    matrix: np.ndarray
    rhs: np.ndarray
    nodes: NodeSet
    op: OperatorSpec
    kernel: RadialKernel
    columns: list  # collocation column groups of the trial functions

    @property
    def size(self) -> int:
        return len(self.matrix)

    def symmetry_defect(self) -> float:
        scale = np.max(np.abs(self.matrix))
        return float(np.max(np.abs(self.matrix - self.matrix.T)) / scale)


def assemble_mkm(
    nodes: NodeSet,
    op: OperatorSpec,
    bc: BoundaryData,
    f_samples,
    phi: RadialKernel,
) -> MkmSystem:
    """Build the symmetric collocation system.

    Rows: governing equation at all N+L nodes, then Dirichlet value rows,
    then Neumann normal-derivative rows. Columns: adjoint-image trial
    functions at all nodes, then kernel columns at Dirichlet nodes, then
    source-normal columns at Neumann nodes.
    """
    bc.check_counts(nodes)
    centers = nodes.all_points()
    f = np.asarray(f_samples, dtype=float)
    if len(f) != len(centers):
        raise ValueError(f"expected {len(centers)} source samples, got {len(f)}")

    rows = [("op", centers)] + boundary_groups(nodes)
    cols = [("adjoint", centers)] + boundary_groups(nodes)
    A = collocation_matrix(op, phi, rows, cols)
    rhs = np.concatenate([f, bc.dirichlet_values, bc.neumann_values])
    return MkmSystem(matrix=A, rhs=rhs, nodes=nodes, op=op, kernel=phi, columns=cols)


def _solved(A, rhs, lu: Factor, op, phi, columns) -> SolutionField:
    coeffs = lu.solve(rhs)
    scale = np.max(np.abs(rhs)) or 1.0
    residual = float(np.max(np.abs(A @ coeffs - rhs)) / scale)
    return SolutionField([Term(op, phi, columns, coeffs)], lu.cond_est, residual)


def solve_mkm(system: MkmSystem) -> SolutionField:
    """Solve the Hermite system; the field evaluates both trial families."""
    lu = factor(system.matrix, "Hermite collocation")
    return _solved(system.matrix, system.rhs, lu, system.op, system.kernel, system.columns)


def solve_kansa_baseline(
    nodes: NodeSet,
    op: OperatorSpec,
    bc: BoundaryData,
    f_samples,
    phi: RadialKernel,
) -> SolutionField:
    """Plain unsymmetric collocation: one kernel column per node.

    Governing rows at interior nodes only, boundary-condition rows at
    boundary nodes. Kept on identical nodes and kernel so comparisons
    against the modified scheme isolate the formulation.
    """
    bc.check_counts(nodes)
    centers = nodes.all_points()
    f = np.asarray(f_samples, dtype=float)
    if len(f) != len(centers):
        raise ValueError(f"expected {len(centers)} source samples, got {len(f)}")

    cols = [("value", centers)]
    A = collocation_matrix(op, phi, [("op", nodes.interior)] + boundary_groups(nodes), cols)
    rhs = np.concatenate([f[: nodes.n_interior], bc.dirichlet_values, bc.neumann_values])
    return _solved(A, rhs, factor(A, "collocation"), op, phi, cols)
