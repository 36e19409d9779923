import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from oscent import (
    ExperimentConfig,
    RegionSpec,
    box_region,
    build_box,
    inner_boundary,
    l1_distance,
    make_region,
)
from oscent.lattice import Lattice, Region


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


def test_a_lattice_is_its_lengths_and_a_region_its_indices():
    assert [f.name for f in dataclasses.fields(Lattice)] == ["lengths"]
    assert [f.name for f in dataclasses.fields(Region)] == ["lattice", "indices"]
    lat = build_box(2, [3, 4])
    assert lat.dimension == 2
    assert lat.index_of((1, 2)) == 6
    for outside in [(3, 0), (0, -1), (1,), (1.5, 2)]:
        with pytest.raises(KeyError):
            lat.index_of(outside)


@pytest.mark.parametrize(
    "lengths,corner,window",
    [([100_000], [50_000], [64]), ([300, 300], [150, 150], [8, 8])],
    ids=["1e5-chain", "300x300-grid"],
)
def test_building_a_large_config_holds_no_per_site_objects(lengths, corner, window):
    # Traced bytes, not wall time: the lattice, a 64-site window and its inner boundary
    # build from the side lengths alone (23.5 and 20.2 MiB with a tuple and a dict entry per site)
    tracemalloc.start()
    try:
        config = ExperimentConfig(dimension=len(lengths), lengths=lengths, regions=(RegionSpec(corner=corner, lengths=window),))
        (region,) = config.lattice_regions
        boundary = inner_boundary(region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert region.size == 64
    assert len(boundary) == (2 if len(lengths) == 1 else 28)
    assert peak < 2 * 2**20


REFERENCE_BOXES = [[7], [3, 1, 4], [4, 4, 4], [5, 4]]


def _reference_regions(lengths, rng):
    """Site sets of random regions, regions on the outer wall and the whole lattice."""
    sites = list(itertools.product(*(range(n) for n in lengths)))
    regions = [set(sites), {sites[0]}, {sites[-1]}]
    regions += [{s for s in sites if s[axis] == edge} for axis in range(len(lengths)) for edge in (0, lengths[axis] - 1)]
    for _ in range(20):
        picks = rng.choice(len(sites), size=int(rng.integers(1, len(sites) + 1)), replace=False)
        regions.append({sites[i] for i in picks})
    return sites, regions


@pytest.mark.parametrize("lengths", REFERENCE_BOXES)
def test_regions_match_a_pair_loop_over_the_site_tuples(lengths):
    lat = build_box(len(lengths), lengths)
    sites, regions = _reference_regions(lengths, np.random.default_rng(len(lengths) * 100 + sum(lengths)))
    assert lat.sites == tuple(sites)
    for chosen in regions:
        inside = [s for s in sites if s in chosen]
        outside = [s for s in sites if s not in chosen]
        region = make_region(lat, list(chosen) + list(chosen)[:2])  # repeats are dropped
        assert region.indices.dtype == region.complement_indices.dtype == np.intp
        assert region.indices.tolist() == [sites.index(s) for s in inside]
        assert region.complement_indices.tolist() == [sites.index(s) for s in outside]
        assert (region.sites, region.complement) == (tuple(inside), tuple(outside))
        assert (region.size, region.complement_size) == (len(inside), len(outside))
        assert inner_boundary(region) == {a for a in inside if any(l1_distance(a, b) == 1 for b in outside)}


@pytest.mark.parametrize("lengths", REFERENCE_BOXES)
def test_box_regions_match_a_loop_over_the_site_tuples(lengths):
    lat = build_box(len(lengths), lengths)
    sites = list(itertools.product(*(range(n) for n in lengths)))
    rng = np.random.default_rng(sum(lengths))
    boxes = [([0] * len(lengths), list(lengths)), ([n - 1 for n in lengths], [1] * len(lengths))]
    for _ in range(20):
        corner = [int(rng.integers(0, n)) for n in lengths]
        boxes.append((corner, [int(rng.integers(1, n - c + 1)) for n, c in zip(lengths, corner)]))
    for corner, window in boxes:
        inside = [s for s in sites if all(c <= x < c + w for x, c, w in zip(s, corner, window))]
        outside = [s for s in sites if s not in inside]
        region = box_region(lat, corner, window)
        assert region.indices.tolist() == [sites.index(s) for s in inside]
        assert region.complement_indices.tolist() == [sites.index(s) for s in outside]
        assert inner_boundary(region) == {a for a in inside if any(l1_distance(a, b) == 1 for b in outside)}


@pytest.mark.parametrize(
    "sites,message",
    [
        ([(1.5, 0)], "sites not in lattice: [(1.5, 0)]"),
        ([(float("nan"), 0)], "sites not in lattice: [(nan, 0)]"),
        ([(-1, 0)], "sites not in lattice: [(-1, 0)]"),
        ([(0, 4)], "sites not in lattice: [(0, 4)]"),
        ([(1,)], "sites not in lattice: [(1,)]"),
        ([(1, 2, 3)], "sites not in lattice: [(1, 2, 3)]"),
        ([(0, 1), (0.5, 1), (-1, 0), (9, 9), (1, 1, 1)], "sites not in lattice: [(-1, 0), (0.5, 1), (1, 1, 1), (9, 9)]"),
        ([], "region must contain at least one site"),
    ],
    ids=["fractional", "nan", "negative", "past-the-end", "short", "long", "several", "empty"],
)
def test_make_region_rejects_sites_outside_the_box(sites, message):
    with pytest.raises(ValueError) as info:
        make_region(build_box(2, [3, 4]), sites)
    assert str(info.value) == message


def test_make_region_reads_integral_coordinates_of_any_numeric_type():
    lat = build_box(2, [3, 4])
    for site in [(1, 2), (1.0, 2.0), (True, np.int64(2)), (np.float64(1.0), np.int32(2))]:
        region = make_region(lat, [site])
        assert region.indices.tolist() == [6]
        assert region.sites == ((1, 2),)
