import io
import math

import numpy as np
import pytest

from oscent import (
    DisorderModel,
    area_law_constant,
    assemble_anderson,
    assemble_custom,
    build_box,
    correlator_table,
    decay_fit,
    eigensystem,
    ground_state_correlator_bound,
    ground_state_renyi,
    inner_boundary,
    l1_distance,
    make_region,
    partition_blocks,
    sample_springs,
    spd_sqrt,
    symplectic_spectrum,
)
from oscent.correlators import (
    CorrelatorTable,
    correlator_csv,
    distance_bins,
    ensemble_mean,
    lattice_exponential_sum,
    mean_moment_by_distance,
)


def test_table_identity_and_diagonal():
    lat = build_box(1, [3])
    table = correlator_table(assemble_custom(lat, np.eye(3)))
    np.testing.assert_allclose(table.values, np.eye(3), atol=1e-14)
    table = correlator_table(assemble_custom(lat, np.diag([4.0, 1.0, 9.0])))
    assert np.all(table.values[~np.eye(3, dtype=bool)] == 0.0)


def test_table_two_site_value():
    lat = build_box(1, [2])
    table = correlator_table(assemble_custom(lat, [[2.0, -1.0], [-1.0, 2.0]]))
    expected = (math.sqrt(3.0) - 1.0) / (2.0 * math.sqrt(3.0))
    assert table.values[0, 1] == pytest.approx(expected, abs=1e-12)
    assert table.hsqrt_norm == pytest.approx(math.sqrt(3.0), abs=1e-12)
    np.testing.assert_array_equal(table.values, table.values.T)
    assert np.all(table.values >= 0.0)


def test_bound_decoupled_is_zero():
    lat = build_box(1, [4])
    table = correlator_table(assemble_custom(lat, np.diag([1.0, 2.0, 3.0, 4.0])))
    region = make_region(lat, [(0,), (1,)])
    for p in (0.3, 0.5, 1.0):
        assert ground_state_correlator_bound(table, region, p, 2.0) == 0.0


def test_bound_two_site_value():
    lat = build_box(1, [2])
    table = correlator_table(assemble_custom(lat, [[2.0, -1.0], [-1.0, 2.0]]))
    region = make_region(lat, [(0,)])
    value = ground_state_correlator_bound(table, region, 1.0, math.sqrt(3.0))
    cross = (math.sqrt(3.0) - 1.0) / (2.0 * math.sqrt(3.0))
    assert value == pytest.approx(3.0**0.25 * math.sqrt(cross), abs=1e-12)
    assert value == pytest.approx(0.6050, abs=1e-4)


def test_bound_validates_arguments():
    lat = build_box(1, [2])
    table = correlator_table(assemble_custom(lat, [[2.0, -1.0], [-1.0, 2.0]]))
    region = make_region(lat, [(0,)])
    with pytest.raises(ValueError):
        ground_state_correlator_bound(table, region, 1.5, 2.0)
    with pytest.raises(ValueError):
        ground_state_correlator_bound(table, region, 0.5, 1.0)  # below ||h^{1/2}||


def test_bound_dominates_entropies_and_schatten_sum():
    lat = build_box(1, [12])
    model = DisorderModel(k_max=8.0, seed=101)
    region = make_region(lat, [(4,), (5,), (6,)])
    bound_cap = math.sqrt(4 * 1 + 8.0)
    for index in range(10):
        h = assemble_anderson(lat, sample_springs(model, lat, index))
        data = eigensystem(h)
        table = correlator_table(h)
        blocks = partition_blocks(spd_sqrt(data), region)
        spec = symplectic_spectrum(blocks)
        for p in (0.5, 1.0):
            value = ground_state_correlator_bound(table, region, p, bound_cap)
            schatten = float(np.sum((spec.mu**2 - 1.0) ** (p / 2.0))) / p
            assert schatten <= value + 1e-12
            for eps in (0.5, 0.75, 1.0):
                assert ground_state_renyi(spec, eps) <= value + 1e-12


def test_decay_fit_synthetic_exponential():
    lat = build_box(1, [12])
    dist = np.abs(np.subtract.outer(np.arange(12), np.arange(12)))
    table = CorrelatorTable(values=np.exp(-dist.astype(float)), lattice=lat, hsqrt_norm=1.0)
    fit = decay_fit([table], s=1.0)
    assert fit.eta == pytest.approx(1.0, abs=1e-6)
    assert fit.prefactor == pytest.approx(1.0, abs=1e-6)
    assert fit.residual < 1e-10


def test_decay_fit_refuses_diagonal_ensemble():
    lat = build_box(1, [6])
    tables = [correlator_table(assemble_custom(lat, np.diag(np.arange(1.0, 7.0))))]
    with pytest.raises(ValueError):
        decay_fit(tables, s=0.5)


def test_decay_fit_needs_three_distances():
    lat = build_box(1, [3])
    dist = np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
    table = CorrelatorTable(values=np.exp(-dist.astype(float)), lattice=lat, hsqrt_norm=1.0)
    with pytest.raises(ValueError):
        decay_fit([table], s=1.0)


def test_decay_fit_anderson_ensemble_localizes():
    lat = build_box(1, [30])
    model = DisorderModel(k_max=8.0, seed=303)
    tables = []
    for index in range(40):
        h = assemble_anderson(lat, sample_springs(model, lat, index))
        tables.append(correlator_table(h))
    fit = decay_fit(tables, s=0.5)
    assert fit.eta > 0.0
    assert math.isfinite(fit.residual)
    assert len(fit.distances) >= 3


def test_area_constant_examples():
    # one dimension, exp(-eta/2) = 1/3: two-sided geometric sum is 2
    eta = 2.0 * math.log(3.0)
    assert lattice_exponential_sum(eta, 1) == pytest.approx(2.0, abs=1e-14)
    assert lattice_exponential_sum(eta, 2) == pytest.approx(4.0, abs=1e-14)
    base = 2.0 ** (0.5 / 2.0) * 1.7 / 0.5
    assert area_law_constant(1.7, eta, 0.5, 2.0, 1) == pytest.approx(4.0 * base)
    assert area_law_constant(1.7, eta, 0.5, 2.0, 2) == pytest.approx(16.0 * base)
    with pytest.raises(ValueError):
        area_law_constant(1.0, 0.0, 0.5, 2.0, 1)


def test_area_constant_matches_truncated_sum():
    for dim in (1, 2):
        for eta in (0.8, 2.5):
            closed = lattice_exponential_sum(eta, dim)
            radius = 60
            axes = [np.arange(-radius, radius + 1)] * dim
            grid = np.meshgrid(*axes, indexing="ij")
            manhattan = np.sum(np.abs(np.stack(grid)), axis=0)
            brute = float(np.sum(np.exp(-0.5 * eta * manhattan)))
            assert brute == pytest.approx(closed, rel=1e-10)


def test_boundary_factorized_cross_sum():
    rng = np.random.default_rng(17)
    lat = build_box(2, [5, 5])
    eta = 1.3
    closed = lattice_exponential_sum(eta, 2)
    for _ in range(10):
        count = int(rng.integers(1, 12))
        picks = rng.choice(lat.size, size=count, replace=False)
        region = make_region(lat, [lat.sites[i] for i in picks])
        cross = sum(
            math.exp(-0.5 * eta * l1_distance(a, b))
            for a in region.sites
            for b in region.complement
        )
        assert cross <= closed**2 * max(len(inner_boundary(region)), 1) + 1e-9


def _loop_distances(lattice):
    n = lattice.size
    dist = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = l1_distance(lattice.sites[i], lattice.sites[j])
    return dist


GEOMETRY_BOXES = [[7], [3, 1, 4], [4, 4, 4]]


# [300] has 16-bit distance keys; [20, 20] has 8-bit keys over 160000 pairs.
@pytest.mark.parametrize("lengths", GEOMETRY_BOXES + [[300], [20, 20]])
def test_distance_bins_match_nonzero_order(lengths):
    lat = build_box(len(lengths), lengths)
    dist = _loop_distances(lat)
    bins = distance_bins(lat)
    assert list(bins) == [int(r) for r in np.unique(dist) if r >= 1]
    for r, idx in bins.items():
        rows, cols = np.nonzero(dist == r)
        assert np.array_equal(idx, np.ravel_multi_index((rows, cols), dist.shape))


@pytest.mark.parametrize("lengths", GEOMETRY_BOXES)
def test_mean_moment_by_distance_matches_pair_loop(lengths):
    lat = build_box(len(lengths), lengths)
    dist = _loop_distances(lat)
    moment = np.random.default_rng(3).random((lat.size, lat.size)) ** 5
    expected = {
        int(r): float(moment[np.nonzero(dist == r)].mean()) for r in np.unique(dist) if r >= 1
    }
    assert mean_moment_by_distance(moment, lat) == expected


def _csv_text(values, lattice) -> str:
    """What correlator_csv writes to a text handle."""
    handle = io.StringIO()
    correlator_csv(values, lattice, handle)
    return handle.getvalue()


def test_correlator_csv_matches_pair_loop():
    lat = build_box(2, [3, 4])
    values = np.random.default_rng(4).random((lat.size, lat.size)) ** 9
    lines = ["j,k,distance,value"]
    for i in range(lat.size):
        for j in range(lat.size):
            distance = l1_distance(lat.sites[i], lat.sites[j])
            lines.append(f"{i},{j},{distance},{values[i, j]:.15g}")
    assert _csv_text(values, lat) == "\n".join(lines) + "\n"


def test_table_is_exactly_symmetric_without_a_second_symmetrization():
    lat = build_box(2, [6, 6])
    for index in range(3):
        h = assemble_anderson(lat, sample_springs(DisorderModel(k_max=8.0, seed=17), lat, index))
        values = correlator_table(h).values
        assert np.array_equal(values, values.T)
        # the symmetrization the table no longer applies would change no bit
        assert np.array_equal(values, 0.5 * (values + values.T))



def _csv_per_entry(values, lattice):
    """The per-entry f-string rendering correlator_csv must reproduce byte for byte."""
    chunks = ["j,k,distance,value\n"]
    for i in range(lattice.size):
        row = zip(lattice.distances[i].tolist(), values[i].tolist())
        chunks.append("".join(f"{i},{j},{d},{v:.15g}\n" for j, (d, v) in enumerate(row)))
    return "".join(chunks)


def _with_mirror_differences(values, lattice):
    """A bit-symmetric matrix whose pairs (0,1), (0,2), (1,2) differ: -0.0, two NaNs, 1 ulp."""
    values = 0.5 * (values + values.T)
    n = values.shape[0]
    if n >= 3:
        values[0, 1], values[1, 0] = 0.0, -0.0
        values[0, 2], values[2, 0] = np.nan, -np.nan
        values[2, 1] = np.nextafter(values[1, 2], np.inf)
        bits = values.view(np.int64)
        assert bits[0, 1] != bits[1, 0] and bits[0, 2] != bits[2, 0] and bits[1, 2] != bits[2, 1]
    return values


def _ensemble_mean_moment(values, lattice):
    springs = (sample_springs(DisorderModel(k_max=8.0, seed=29), lattice, index) for index in range(3))
    return ensemble_mean(correlator_table(assemble_anderson(lattice, k)).values ** 0.5 for k in springs)


CSV_INPUTS = {
    "asymmetric": lambda v, lat: v,
    "symmetric": lambda v, lat: 0.5 * (v + v.T),
    "mirror-differences": _with_mirror_differences,
    "ensemble-mean": _ensemble_mean_moment,
    "float32": lambda v, lat: v.astype(np.float32),
    "int": lambda v, lat: np.random.default_rng(9).integers(-(2**62), 2**62, v.shape),
    "transposed-view": lambda v, lat: v.T,
}


@pytest.mark.parametrize(
    "lengths, kind",
    [
        pytest.param(lengths, kind, id=f"lengths{i}" + ("" if kind == "asymmetric" else f"-{kind}"))
        for i, lengths in enumerate([[1], [13], [4, 5]])
        for kind in CSV_INPUTS
    ],
)
def test_correlator_csv_is_byte_equal_to_the_per_entry_format(lengths, kind):
    lat = build_box(len(lengths), lengths)
    rng = np.random.default_rng(8)
    values = rng.random((lat.size, lat.size)) * 10.0 ** rng.integers(-320, 20, (lat.size, lat.size))
    special = [0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e17, 0.1, 1.0, 123456789012345.67]
    flat = values.ravel()
    flat[: min(len(special), flat.size)] = special[: flat.size]
    values = CSV_INPUTS[kind](values, lat)
    text = _csv_text(values, lat)
    assert text.encode() == _csv_per_entry(values, lat).encode()
    assert text.count("\n") == lat.size**2 + 1
