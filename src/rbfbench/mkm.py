"""Modified Kansa method and the classical unsymmetric Kansa baseline.

The modified scheme interpolates with two families of trial functions:
adjoint-operator images of the kernel centered at every node, and plain
kernel / source-normal columns centered at boundary nodes. The
governing equation is collocated at every node including boundary
nodes (each boundary node appears in one governing row and one
boundary-condition row), which is what removes the usual accuracy loss
next to the boundary. Block ordering makes the matrix symmetric
whenever the adjoint pairing is used, self-adjoint operator or not:
exactly so with Dirichlet data only, and to rounding with Neumann rows
or a velocity, whose three-factor block products round differently
under the pair swap (measured up to 0.32 eps of max|A|). `solve_mkm`
therefore factors it as symmetric (Bunch–Kaufman, `linalg.factor`).
The Kansa baseline comes from the same system builder, with governing
rows at interior nodes only and one kernel column per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import NodeSet
from .kernels import RadialKernel
from .linalg import factor, symmetry_defect
from .operators import Expansion, OperatorSpec, Term, collocation_matrix
from .bkm import BoundaryData, boundary_groups


@dataclass
class MkmSystem:
    """Square collocation system of the modified Kansa scheme, unknowns
    [alpha (N+L) | beta (L)]; the Kansa baseline builds one too."""

    matrix: np.ndarray
    rhs: np.ndarray
    op: OperatorSpec
    kernel: RadialKernel
    columns: list  # collocation column groups of the trial functions

    @property
    def size(self) -> int:
        return len(self.matrix)

    def symmetry_defect(self) -> float:
        return symmetry_defect(self.matrix)


def _domain_system(
    nodes: NodeSet, op: OperatorSpec, bc: BoundaryData, f_samples, phi: RadialKernel, hermite: bool
) -> MkmSystem:
    """The system of `assemble_mkm` (`hermite`) or of `solve_kansa_baseline`."""
    data = bc.stacked(nodes)
    centers = nodes.all_points()
    f = np.asarray(f_samples, dtype=float)
    if len(f) != len(centers):
        raise ValueError(f"expected {len(centers)} source samples, got {len(f)}")
    groups = boundary_groups(nodes)
    if hermite:
        governed, cols = centers, [("adjoint", centers)] + groups
    else:
        governed, cols = nodes.interior, [("value", centers)]
    A = collocation_matrix(op, phi, [("op", governed)] + groups, cols)
    rhs = np.concatenate([f[: len(governed)], data])
    return MkmSystem(matrix=A, rhs=rhs, op=op, kernel=phi, columns=cols)


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
    return _domain_system(nodes, op, bc, f_samples, phi, hermite=True)


def _solved(system: MkmSystem, what: str, symmetric: bool) -> Expansion:
    lu = factor(system.matrix, what, symmetric=symmetric)
    term = Term(system.op, system.kernel, system.columns, lu.solve(system.rhs))
    return Expansion([term], lu.cond_est)


def solve_mkm(system: MkmSystem) -> Expansion:
    """Solve the Hermite system; the field evaluates both trial families."""
    return _solved(system, "Hermite collocation", symmetric=True)


def solve_kansa_baseline(
    nodes: NodeSet,
    op: OperatorSpec,
    bc: BoundaryData,
    f_samples,
    phi: RadialKernel,
) -> Expansion:
    """Plain unsymmetric collocation: one kernel column per node.

    Governing rows at interior nodes only, boundary-condition rows at
    boundary nodes. Kept on identical nodes and kernel so comparisons
    against the modified scheme isolate the formulation.
    """
    system = _domain_system(nodes, op, bc, f_samples, phi, hermite=False)
    return _solved(system, "collocation", symmetric=False)
