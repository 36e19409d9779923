import io
import math
import tracemalloc

import numpy as np
import pytest

import oscent.correlators
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
    UNDERFLOW_FLOOR,
    CorrelatorTable,
    MomentSum,
    correlator_csv,
    distance_bins,
    fit_decay_constant,
    lattice_exponential_sum,
    line_fit,
    mean_moment_by_distance,
)
from oscent.experiments import ExperimentConfig, RegionSpec, correlator_ensemble


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


def _ols_before_line_fit(x, y):
    """The scaling fits' own least-squares line before line_fit replaced it: (slope, slope se, rms residual)."""
    if np.ptp(x) == 0.0:
        spread = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
        return math.nan, math.nan, spread
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ssr = float(np.sum((y - fitted) ** 2))
    dof = len(x) - 2
    if dof > 0:
        gram_inv = np.linalg.inv(design.T @ design)
        slope_se = math.sqrt(max(ssr / dof, 0.0) * gram_inv[1, 1])
    else:
        slope_se = 0.0
    return float(coef[1]), slope_se, math.sqrt(ssr / len(x))


def _decay_line_before_line_fit(r, y):
    """The decay fit's own least-squares line before line_fit replaced it: (eta, prefactor, rms residual)."""
    design = np.stack([np.ones_like(r, dtype=float), r.astype(float)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return float(-coef[1]), float(np.exp(coef[0])), residual


def _binned_log_moments(mean_moment, lattice):
    by_distance = mean_moment_by_distance(mean_moment, lattice)
    r = np.array(sorted(d for d, v in by_distance.items() if v > UNDERFLOW_FLOOR))
    return r, np.log(np.array([by_distance[int(d)] for d in r]))


def _bulk_3d_mean_moment():
    """The mean moment of an 8x8x8 box over 4 realizations, the shape of the bulk-3d benchmark's decay fit."""
    config = ExperimentConfig(dimension=3, lengths=(8, 8, 8), regions=(RegionSpec(corner=(2, 2, 2), lengths=(4, 4, 4)),),
                              k_max=8.0, realizations=4, seed=2024, threads=1)
    return correlator_ensemble(config)[0], config.lattice


def _chain_exponential():
    lat = build_box(1, [12])
    return np.exp(-np.abs(np.subtract.outer(np.arange(12), np.arange(12))).astype(float)), lat


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_line_fit_of_a_constant_x_or_two_points_equals_the_lines_it_replaced_bit_for_bit():
    x, y = np.full(5, 3.0), np.array([0.1, 0.7, -0.2, 1.3, 0.4])
    intercept, *rest = line_fit(x, y)
    assert math.isnan(intercept)
    assert _bits(rest) == _bits(_ols_before_line_fit(x, y))  # nan slope and error, the spread as residual
    x, y = np.array([1.0, 2.0]), np.array([0.3, 1.7])
    intercept, slope, slope_se, residual = line_fit(x, y)
    assert slope_se == 0.0
    assert _bits([slope, slope_se, residual]) == _bits(_ols_before_line_fit(x, y))
    assert _bits([-slope, np.exp(intercept), residual]) == _bits(_decay_line_before_line_fit(x, y))


@pytest.mark.parametrize("source", [_chain_exponential, _bulk_3d_mean_moment], ids=["synthetic-exponential", "bulk-3d"])
def test_decay_fit_equals_both_lines_it_replaced_bit_for_bit(source):
    mean_moment, lattice = source()
    fit, _ = fit_decay_constant(mean_moment_by_distance(mean_moment, lattice), lattice, 0.5, 1.0)
    r, y = _binned_log_moments(mean_moment, lattice)
    assert fit.distances == tuple(r.tolist())
    assert _bits([fit.eta, fit.prefactor, fit.residual]) == _bits(_decay_line_before_line_fit(r, y))
    _, slope, slope_se, residual = line_fit(r.astype(float), y)
    assert _bits([slope, slope_se, residual]) == _bits(_ols_before_line_fit(r.astype(float), y))


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
    n, sites = lattice.size, lattice.sites  # sites built once: the property builds every tuple on each access
    dist = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = l1_distance(sites[i], sites[j])
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
    # The referee adds each bin's pairs one after the other in row-major order
    # and divides by the count once: the order of np.bincount, so the bits agree
    lat = build_box(len(lengths), lengths)
    dist = _loop_distances(lat)
    moment = np.random.default_rng(3).random((lat.size, lat.size)) ** 5
    sums, counts = {}, {}
    for j in range(lat.size):
        for k in range(lat.size):
            r = int(dist[j, k])
            if r >= 1:
                sums[r] = sums.get(r, 0.0) + float(moment[j, k])
                counts[r] = counts.get(r, 0) + 1
    expected = {r: sums[r] / counts[r] for r in sorted(sums)}
    assert mean_moment_by_distance(moment, lat) == expected


def _csv_text(values, lattice) -> str:
    """What correlator_csv writes to a binary handle, as text."""
    handle = io.BytesIO()
    correlator_csv(values, lattice, handle)
    return handle.getvalue().decode("ascii")


def test_correlator_csv_matches_pair_loop():
    lat = build_box(2, [3, 4])
    values = np.random.default_rng(4).random((lat.size, lat.size)) ** 9
    lines, sites = ["j,k,distance,value"], lat.sites
    for i in range(lat.size):
        for j in range(lat.size):
            distance = l1_distance(sites[i], sites[j])
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
    moments = MomentSum()
    for index in range(3):
        springs = sample_springs(DisorderModel(k_max=8.0, seed=29), lattice, index)
        moments.add(correlator_table(assemble_anderson(lattice, springs)).values ** 0.5)
    return moments.mean()


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
    # decade carries ("0.0001", "100000000000000", "1e+15"), signed zero, infinities and an exact tie
    special += [9.999999999999995e-05, 99999999999999.95, 999999999999999.5, -0.0, math.inf, -math.inf]
    special += [123456789012345.5]
    special += [float(np.nextafter(x, toward)) for x in (1e-5, 1e-4, 1e14, 1e15) for toward in (0.0, math.inf)]
    flat = values.ravel()
    flat[: min(len(special), flat.size)] = special[: flat.size]
    values = CSV_INPUTS[kind](values, lat)
    text = _csv_text(values, lat)
    assert text.encode() == _csv_per_entry(values, lat).encode()
    assert text.count("\n") == lat.size**2 + 1


def test_correlator_csv_formats_a_symmetric_matrix_about_once_per_pair(monkeypatch):
    # Only a block's own lower triangle is formatted on both sides of the diagonal
    lattice = build_box(1, [200])
    values = np.exp(-np.abs(np.subtract.outer(np.arange(200), np.arange(200))) / 7.0)
    formatted = []
    original = oscent.correlators._format_values

    def counted(flat, fields, kernel):
        formatted.append(flat.size)
        return original(flat, fields, kernel)

    monkeypatch.setattr(oscent.correlators, "_format_values", counted)
    assert _csv_text(values, lattice) == _csv_per_entry(values, lattice)
    step = 200 // 32
    assert sum(formatted) <= 200 * 201 // 2 + 200 * step // 2


def test_correlator_csv_writes_the_same_bytes_when_every_value_takes_the_fallback(monkeypatch):
    # what a platform whose long double is no wider than double runs
    lat = build_box(2, [4, 5])
    rng = np.random.default_rng(21)
    values = rng.random((lat.size, lat.size)) * 10.0 ** rng.integers(-300, 300, (lat.size, lat.size))
    values.ravel()[:6] = [0.0, -0.0, math.inf, math.nan, 5e-324, 999999999999999.5]
    expected = _csv_text(values, lat)
    monkeypatch.setattr(oscent.correlators, "_kernel", lambda: None)
    assert _csv_text(values, lat) == expected == _csv_per_entry(values, lat)


def _chain_mean_moment():
    """The mean moment of a 400-site chain over 4 realizations at s = 1/2, the shape of the single-shot-correlators benchmark."""
    config = ExperimentConfig(dimension=1, lengths=(400,), regions=(RegionSpec(corner=(192,), lengths=(16,)),),
                              k_max=8.0, realizations=4, s=0.5, seed=2024, threads=1)
    return correlator_ensemble(config)[0], config.lattice


def _value_mismatches(values, lattice):
    """(value, written, f"{value:.15g}") for every value correlator_csv writes otherwise."""
    written = [line.rsplit(",", 1)[1] for line in _csv_text(values, lattice).splitlines()[1:]]
    expected = [f"{v:.15g}" for v in np.asarray(values, dtype=float).ravel().tolist()]
    assert len(written) == len(expected)
    return [(v, w, e) for v, w, e in zip(values.ravel().tolist(), written, expected) if w != e]


def test_correlator_csv_formats_random_bit_patterns_like_python():
    # 448^2 > 2e5 uniform float64 bit patterns: every exponent, both signs, subnormals and NaN payloads
    lattice = build_box(1, [448])
    bits = np.random.default_rng(20).integers(0, 2**64, lattice.size**2, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64).reshape(lattice.size, lattice.size)
    assert np.isnan(values).sum() > 10 and np.signbit(values).any() and not np.signbit(values).all()
    assert _value_mismatches(values, lattice)[:5] == []


def test_correlator_csv_formats_the_benchmark_mean_moment_like_python():
    values, lattice = _chain_mean_moment()
    assert _value_mismatches(values, lattice)[:5] == []


class _NullHandle:
    def write(self, text):
        pass


@pytest.mark.parametrize("mean_moment", [_chain_mean_moment, _bulk_3d_mean_moment], ids=["chain-400", "box-8x8x8"])
def test_correlator_csv_holds_at_most_three_point_two_n_by_n_arrays(mean_moment):
    values, lattice = mean_moment()
    lattice.distances  # the lattice's own cached table, not the writer's
    tracemalloc.start()
    try:
        correlator_csv(values, lattice, _NullHandle())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * values.nbytes
