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
from typing import Callable

import numpy as np

from .geometry import NodeSet
from .kernels import RadialKernel
from .linalg import factor
from .operators import (
    OperatorSpec,
    adjoint_image_matrix,
    adjoint_normal_image_matrix,
    field_normal_matrix,
    kernel_value_matrix,
    ll_star_matrix,
    mixed_normal_matrix,
    operator_image_matrix,
    operator_source_normal_matrix,
    source_normal_matrix,
)
from .bkm import BoundaryData


@dataclass
class SolutionField:
    """Solved expansion with a domain evaluator and solve diagnostics."""

    coefficients: np.ndarray
    cond_est: float
    residual_inf: float
    _evaluate: Callable

    def evaluate(self, points) -> np.ndarray:
        return self._evaluate(np.atleast_2d(np.asarray(points, dtype=float)))


@dataclass
class MkmSystem:
    """Square Hermite system: unknowns [alpha (N+L) | beta (L)]."""

    matrix: np.ndarray
    rhs: np.ndarray
    nodes: NodeSet
    op: OperatorSpec
    kernel: RadialKernel

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
    xd, xn = nodes.dirichlet_points, nodes.neumann_points
    nd, nn = nodes.dirichlet_normals, nodes.neumann_normals
    n_all, L_D, L_N = len(centers), len(xd), len(xn)

    f = np.asarray(f_samples, dtype=float)
    if len(f) != n_all:
        raise ValueError(f"expected {n_all} source samples, got {len(f)}")

    size = n_all + L_D + L_N
    A = np.empty((size, size))

    rows_g = slice(0, n_all)
    rows_d = slice(n_all, n_all + L_D)
    rows_n = slice(n_all + L_D, size)
    cols_a = slice(0, n_all)
    cols_d = slice(n_all, n_all + L_D)
    cols_n = slice(n_all + L_D, size)

    A[rows_g, cols_a] = ll_star_matrix(op, phi, centers, centers)
    A[rows_g, cols_d] = operator_image_matrix(op, phi, centers, xd)
    A[rows_d, cols_a] = adjoint_image_matrix(op, phi, xd, centers)
    A[rows_d, cols_d] = kernel_value_matrix(phi, xd, xd)
    if L_N:
        A[rows_g, cols_n] = operator_source_normal_matrix(op, phi, centers, xn, nn)
        A[rows_n, cols_a] = adjoint_normal_image_matrix(op, phi, xn, centers, nn)
        A[rows_d, cols_n] = source_normal_matrix(phi, xd, xn, nn)
        A[rows_n, cols_d] = field_normal_matrix(phi, xn, xd, nn)
        A[rows_n, cols_n] = mixed_normal_matrix(phi, xn, xn, nn, nn)

    rhs = np.concatenate([f, bc.dirichlet_values, bc.neumann_values])
    return MkmSystem(matrix=A, rhs=rhs, nodes=nodes, op=op, kernel=phi)


def solve_mkm(system: MkmSystem) -> SolutionField:
    """Solve the Hermite system and wrap the two-family evaluator."""
    A, rhs = system.matrix, system.rhs
    lu = factor(A, "Hermite collocation")
    coeffs = lu.solve(rhs)
    scale = np.max(np.abs(rhs)) or 1.0
    residual = float(np.max(np.abs(A @ coeffs - rhs)) / scale)

    nodes, op, phi = system.nodes, system.op, system.kernel
    centers = nodes.all_points()
    xd, xn = nodes.dirichlet_points, nodes.neumann_points
    nn = nodes.neumann_normals
    n_all, L_D = len(centers), len(xd)
    alpha = coeffs[:n_all]
    beta_d = coeffs[n_all : n_all + L_D]
    beta_n = coeffs[n_all + L_D :]

    def evaluate(pts: np.ndarray) -> np.ndarray:
        out = adjoint_image_matrix(op, phi, pts, centers) @ alpha
        out += kernel_value_matrix(phi, pts, xd) @ beta_d
        if len(beta_n):
            out += source_normal_matrix(phi, pts, xn, nn) @ beta_n
        return out

    return SolutionField(
        coefficients=coeffs, cond_est=lu.cond_est, residual_inf=residual, _evaluate=evaluate
    )


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
    xi = nodes.interior
    xd, xn = nodes.dirichlet_points, nodes.neumann_points
    nn = nodes.neumann_normals
    N = len(xi)

    f = np.asarray(f_samples, dtype=float)
    if len(f) != len(centers):
        raise ValueError(f"expected {len(centers)} source samples, got {len(f)}")

    blocks = []
    if N:
        blocks.append(operator_image_matrix(op, phi, xi, centers))
    blocks.append(kernel_value_matrix(phi, xd, centers))
    if len(xn):
        blocks.append(field_normal_matrix(phi, xn, centers, nn))
    A = np.vstack(blocks)
    rhs = np.concatenate([f[:N], bc.dirichlet_values, bc.neumann_values])
    lu = factor(A, "collocation")
    alpha = lu.solve(rhs)
    scale = np.max(np.abs(rhs)) or 1.0
    residual = float(np.max(np.abs(A @ alpha - rhs)) / scale)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        return kernel_value_matrix(phi, pts, centers) @ alpha

    return SolutionField(
        coefficients=alpha, cond_est=lu.cond_est, residual_inf=residual, _evaluate=evaluate
    )
