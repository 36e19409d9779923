import numpy as np
import pytest

from oscent import (
    box_region,
    build_box,
    inner_boundary,
    l1_distance,
    make_region,
)


def test_build_box_1d():
    lat = build_box(1, [4])
    assert lat.sites == ((0,), (1,), (2,), (3,))
    assert [lat.index_of(s) for s in lat.sites] == [0, 1, 2, 3]


def test_build_box_2d():
    lat = build_box(2, [2, 2])
    assert lat.sites == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert lat.size == 4


@pytest.mark.parametrize("dim,lengths", [(0, []), (-1, [2]), (2, [2]), (1, [0]), (2, [3, -1])])
def test_build_box_rejects_bad_arguments(dim, lengths):
    with pytest.raises(ValueError):
        build_box(dim, lengths)


def test_box_size_is_product_of_lengths():
    lat = build_box(3, [2, 3, 4])
    assert lat.size == 24
    assert len(set(lat.sites)) == lat.size


@pytest.mark.parametrize(
    "a,b,expected",
    [((0, 0), (1, 2), 3), ((5,), (5,), 0), ((1, 1, 1), (0, 0, 0), 3)],
)
def test_l1_distance_values(a, b, expected):
    assert l1_distance(a, b) == expected


def test_l1_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        l1_distance((0, 0), (1,))


def test_l1_is_a_metric_on_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c = (tuple(rng.integers(-8, 9, size=3)) for _ in range(3))
        assert l1_distance(a, b) == l1_distance(b, a)
        assert l1_distance(a, b) >= 0
        assert (l1_distance(a, b) == 0) == (a == b)
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c)


def test_inner_boundary_1d_interval():
    lat = build_box(1, [6])
    region = make_region(lat, [(0,), (1,), (2,)])
    # site 0 touches the outer wall only, which does not count
    assert inner_boundary(region) == {(2,)}


def test_inner_boundary_full_region_is_empty():
    lat = build_box(1, [5])
    region = make_region(lat, lat.sites)
    assert inner_boundary(region) == set()


def test_inner_boundary_2d_column():
    lat = build_box(2, [3, 3])
    column = [(0, j) for j in range(3)]
    region = make_region(lat, column)
    assert inner_boundary(region) == set(column)


def test_boundary_is_subset_of_region_and_bounded():
    rng = np.random.default_rng(11)
    lat = build_box(2, [5, 4])
    for _ in range(25):
        count = int(rng.integers(1, lat.size))
        picks = rng.choice(lat.size, size=count, replace=False)
        sites = [lat.sites[i] for i in picks]
        region = make_region(lat, sites)
        boundary = inner_boundary(region)
        assert boundary <= set(region.sites)
        assert len(boundary) <= region.size
        assert not boundary & set(region.complement)


def test_region_index_lists_are_consistent():
    lat = build_box(2, [3, 2])
    region = make_region(lat, [(2, 1), (0, 0)])
    assert region.sites == ((0, 0), (2, 1))  # parent-lattice order
    assert list(region.indices) == [lat.index_of(s) for s in region.sites]
    merged = sorted(list(region.indices) + list(region.complement_indices))
    assert merged == list(range(lat.size))


def test_region_rejects_foreign_sites():
    lat = build_box(1, [3])
    with pytest.raises(ValueError):
        make_region(lat, [(7,)])


def test_box_region_matches_explicit_sites():
    lat = build_box(2, [4, 4])
    region = box_region(lat, (1, 1), (2, 2))
    assert set(region.sites) == {(1, 1), (1, 2), (2, 1), (2, 2)}


GEOMETRY_BOXES = [[7], [3, 1, 4], [4, 4, 4]]


@pytest.mark.parametrize("lengths", GEOMETRY_BOXES)
def test_coords_list_the_sites_in_order(lengths):
    lat = build_box(len(lengths), lengths)
    assert [tuple(row) for row in lat.coords.tolist()] == list(lat.sites)
    assert not lat.coords.flags.writeable


@pytest.mark.parametrize("lengths", GEOMETRY_BOXES)
def test_distances_match_scalar_l1_distance(lengths):
    lat = build_box(len(lengths), lengths)
    dist = lat.distances
    assert dist.dtype == np.int32
    expected = [[l1_distance(a, b) for b in lat.sites] for a in lat.sites]
    assert dist.tolist() == expected
    assert lat.distances is dist
    assert not dist.flags.writeable
    with pytest.raises(ValueError):
        dist[0, 0] = 1
