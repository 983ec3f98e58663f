import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rbfbench.errors import GeometryError, InvalidDomainError, PartitionError
from rbfbench.geometry import (
    DomainSpec,
    boundary_band_mask,
    distance_to_boundary,
    generate_nodes,
    mean_nearest_neighbor_spacing,
    outward_normal,
    partition_boundary,
)

DISK = DomainSpec("unit_disk")


def test_disk_four_nodes_at_quarter_angles():
    nodes = generate_nodes(DISK, 4, 0, seed=0)
    angles = np.mod(np.arctan2(nodes.boundary[:, 1], nodes.boundary[:, 0]), 2 * np.pi)
    assert np.allclose(sorted(angles), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)


def test_rectangle_counts_exact():
    nodes = generate_nodes(DomainSpec("rectangle", 1, 1), 8, 5, seed=1)
    assert nodes.n_interior == 5
    assert nodes.n_boundary == 8


def test_same_seed_bit_identical():
    a = generate_nodes(DISK, 32, 50, seed=7)
    b = generate_nodes(DISK, 32, 50, seed=7)
    assert np.array_equal(a.interior, b.interior)
    assert np.array_equal(a.boundary, b.boundary)
    assert np.array_equal(a.normals, b.normals)


def test_different_seed_changes_interior():
    a = generate_nodes(DISK, 16, 30, seed=1)
    b = generate_nodes(DISK, 16, 30, seed=2)
    assert not np.array_equal(a.interior, b.interior)


def test_zero_area_rectangle_rejected():
    with pytest.raises(InvalidDomainError):
        DomainSpec("rectangle", 0.0, 1.0)


def test_unknown_domain_shape_rejected():
    with pytest.raises(InvalidDomainError, match="unknown domain shape 'triangle'"):
        DomainSpec("triangle")


def test_too_few_boundary_nodes_rejected():
    with pytest.raises(PartitionError):
        generate_nodes(DISK, 3, 0, seed=0)


def test_negative_interior_count_rejected():
    with pytest.raises(ValueError, match="n_interior must be nonnegative"):
        generate_nodes(DISK, 8, -1, seed=0)


@settings(max_examples=20, deadline=None)
@given(
    n_boundary=st.integers(min_value=4, max_value=64),
    n_interior=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_disk_normals_equal_coordinates(n_boundary, n_interior, seed):
    nodes = generate_nodes(DISK, n_boundary, n_interior, seed)
    assert np.max(np.abs(nodes.normals - nodes.boundary)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    n_boundary=st.integers(min_value=4, max_value=48),
    seed=st.integers(min_value=0, max_value=10**6),
    cut=st.floats(min_value=0.1, max_value=0.9),
)
def test_partition_disjoint_and_exhaustive(n_boundary, seed, cut):
    nodes = generate_nodes(DISK, n_boundary, 0, seed)
    try:
        nodes = partition_boundary(nodes, [(0.0, cut)])
    except PartitionError:
        return  # empty Dirichlet set is legitimately refused
    assert len(nodes.dirichlet_idx) + len(nodes.neumann_idx) == n_boundary
    assert np.intersect1d(nodes.dirichlet_idx, nodes.neumann_idx).size == 0
    both = np.sort(np.concatenate([nodes.dirichlet_idx, nodes.neumann_idx]))
    assert np.array_equal(both, np.arange(n_boundary))


def test_interior_points_strictly_inside():
    for dom in (DISK, DomainSpec("rectangle", 2.0, 0.5)):
        nodes = generate_nodes(dom, 16, 80, seed=3)
        assert np.all(distance_to_boundary(dom, nodes.interior) > 1e-9)


def test_boundary_points_on_boundary():
    nodes = generate_nodes(DISK, 40, 0, seed=0)
    assert np.max(np.abs(np.linalg.norm(nodes.boundary, axis=1) - 1.0)) < 1e-12
    rect = DomainSpec("rectangle", 2.0, 1.0)
    rnodes = generate_nodes(rect, 20, 0, seed=0)
    assert np.max(np.abs(distance_to_boundary(rect, rnodes.boundary))) < 1e-12


def test_rectangle_corners_never_collocated():
    rect = DomainSpec("rectangle", 3.0, 1.0)
    for L in (4, 8, 16, 32):
        nodes = generate_nodes(rect, L, 0, seed=0)
        corners = np.array([[0, 0], [3, 0], [3, 1], [0, 1]], dtype=float)
        dmin = np.min(
            np.linalg.norm(nodes.boundary[:, None, :] - corners[None, :, :], axis=2)
        )
        assert dmin > 1e-6


@pytest.mark.parametrize("n_boundary", [4, 5, 16, 37, 100])
def test_rectangle_normals_match_outward_normal(n_boundary):
    rect = DomainSpec("rectangle", 2.0, 0.5)
    nodes = generate_nodes(rect, n_boundary, 0, seed=0)
    for point, normal in zip(nodes.boundary, nodes.normals):
        assert np.array_equal(normal, outward_normal(rect, point))


def test_full_range_rule_gives_all_dirichlet():
    nodes = generate_nodes(DISK, 12, 0, seed=0)
    nodes = partition_boundary(nodes, [(0.0, 1.0)])
    assert len(nodes.dirichlet_idx) == 12
    assert len(nodes.neumann_idx) == 0


def test_half_range_rule_splits_evenly():
    nodes = generate_nodes(DISK, 8, 0, seed=0)
    nodes = partition_boundary(nodes, [(0.0, 0.5)])
    assert len(nodes.dirichlet_idx) == 4
    assert len(nodes.neumann_idx) == 4


def test_empty_rule_rejected():
    nodes = generate_nodes(DISK, 8, 0, seed=0)
    with pytest.raises(PartitionError):
        partition_boundary(nodes, [])


def test_out_of_range_interval_rejected():
    nodes = generate_nodes(DISK, 8, 0, seed=0)
    with pytest.raises(PartitionError):
        partition_boundary(nodes, [(0.5, 1.2)])


def test_node_set_refuses_a_bad_partition_or_normals():
    import dataclasses

    nodes = generate_nodes(DISK, 8, 0, seed=0)
    for change, error, message in (
        (dict(dirichlet_idx=np.arange(7)), PartitionError, "does not cover"),
        (dict(dirichlet_idx=np.arange(7), neumann_idx=np.array([0])), PartitionError, "overlap"),
        (dict(normals=2.0 * nodes.normals), GeometryError, "not unit length"),
    ):
        with pytest.raises(error, match=message):
            dataclasses.replace(nodes, **change)


def test_outward_normal_disk():
    assert np.allclose(outward_normal(DISK, (1.0, 0.0)), (1.0, 0.0))
    assert np.allclose(outward_normal(DISK, (0.0, -1.0)), (0.0, -1.0))


def test_outward_normal_rectangle_face():
    rect = DomainSpec("rectangle", 2.0, 1.0)
    assert np.allclose(outward_normal(rect, (2.0, 0.5)), (1.0, 0.0))
    assert np.allclose(outward_normal(rect, (0.7, 0.0)), (0.0, -1.0))


def test_outward_normal_off_boundary_rejected():
    with pytest.raises(GeometryError):
        outward_normal(DISK, (0.5, 0.0))
    with pytest.raises(GeometryError):
        outward_normal(DomainSpec("rectangle", 1, 1), (0.5, 0.5))
    # on the line of the right edge, but above the rectangle
    with pytest.raises(GeometryError, match="outside the rectangle"):
        outward_normal(DomainSpec("rectangle", 1, 1), (1.0, 5.0))


def test_outward_normal_corner_rejected():
    with pytest.raises(GeometryError):
        outward_normal(DomainSpec("rectangle", 1, 1), (0.0, 0.0))


def test_boundary_band_uses_diameter_fraction():
    pts = np.array([[0.0, 0.0], [0.85, 0.0], [0.99, 0.0]])
    mask = boundary_band_mask(DISK, pts)
    assert list(mask) == [False, True, True]  # band is 10% of diameter 2


def test_mean_nn_spacing_on_grid():
    xs = np.linspace(0, 1, 5)
    pts = np.column_stack([np.repeat(xs, 5), np.tile(xs, 5)])
    assert mean_nearest_neighbor_spacing(pts) == pytest.approx(0.25)


def test_mean_nn_spacing_needs_two_points():
    with pytest.raises(ValueError, match="at least two points"):
        mean_nearest_neighbor_spacing(np.array([[0.5, 0.5]]))
