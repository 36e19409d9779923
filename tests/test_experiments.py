import dataclasses
import json
import math
import statistics
import tracemalloc
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oscent.entanglement
import oscent.experiments
from oscent import (
    AreaLawFit,
    ExperimentConfig,
    RegionSpec,
    area_law_fit,
    correlator_ensemble,
    run_scan,
    write_aggregates_json,
    write_records_csv,
    write_scaling_data,
)
from oscent.cli import main
from oscent.correlators import mean_moment_by_distance
from oscent.experiments import definite_realization, region_reports


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def box(corner, lengths) -> RegionSpec:
    return RegionSpec(corner=corner, lengths=lengths)


def small_config(**overrides):
    base = dict(
        dimension=1,
        lengths=(14,),
        regions=(box((5,), (4,)),),
        k_max=8.0,
        realizations=6,
        eps=(0.5, 0.75, 1.0),
        excitations="all",
        p=1.0,
        s=0.5,
        seed=2024,
        threads=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(realizations=0)
    with pytest.raises(ValueError):
        small_config(eps=(0.5, 1.2))
    with pytest.raises(ValueError):
        small_config(excitations=(3, 2))
    with pytest.raises(ValueError):
        small_config(coupling="next-nearest")
    with pytest.raises(ValueError):
        ExperimentConfig(dimension=1, lengths=(4,))
    for bad in (
        dict(p=2.0), dict(s=0.0), dict(threads=0), dict(bound=0.0), dict(realization_index=-1),
        dict(regions=(box((12,), (4,)),)), dict(regions=(box((5,), (0,)),)), dict(regions=(RegionSpec(sites=((14,),)),)),
        dict(regions=(box((5,), (4,)), box((0,), (14,)))), dict(regions=()), dict(regions=({"corner": [5], "lengths": [4]},)),
        dict(lengths=(14, 2)), dict(seed=-1),
        # eps values sharing a 15-digit label would share a records.csv row and an aggregate
        dict(eps=(0.5, 1.0, 0.5)), dict(eps=(0.5, 0.5000000000000001)), dict(eps=(1.0, 1.0 - 2**-53)),
    ):
        with pytest.raises(ValueError):
            small_config(**bad)
    # a region gives sites or a box, not both and not half a box
    for bad in (dict(corner=(5,)), dict(sites=((1,),), corner=(5,), lengths=(4,)), dict(sites=((1,),), lengths=(4,))):
        with pytest.raises(ValueError, match="region needs sites or corner"):
            RegionSpec(**bad)


def test_config_json_roundtrip():
    config = small_config(excitations=(2, 5), fit_decay=True, realization_index=3, bound=7.5)
    clone = ExperimentConfig.from_dict(config.to_dict())
    assert clone == config


@pytest.mark.parametrize(
    "bad, named",
    [
        (dict(fit_decay="no"), "fit_decay"),
        (dict(realizations=2.5), "realizations"),
        (dict(threads=True), "threads"),
        (dict(eps=(0.5, True)), "eps"),
        (dict(k_max=math.inf), "k_max"),
    ],
    ids=["string-fit-decay", "fractional-realizations", "bool-threads", "bool-eps", "infinite-k_max"],
)
def test_a_config_built_in_python_is_checked_like_a_json_one(bad, named):
    # the ValueError that the CLI turns into exit 2
    with pytest.raises(ValueError, match=named):
        small_config(**bad)


@pytest.mark.parametrize("name", sorted(path.name for path in DEMO_CONFIGS.glob("*.json")))
def test_every_demo_config_round_trips(name):
    config = ExperimentConfig.from_dict(json.loads((DEMO_CONFIGS / name).read_text()))
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_scan_decoupled_realization_has_zero_entropy():
    config = small_config(coupling="none", realizations=1, excitations="none")
    (result,) = run_scan(config)
    record = result.records[0]
    assert record.pd_ok
    for eps in config.eps:
        assert record.ground_renyi[eps] == 0.0
    assert record.log_negativity == 0.0


def test_scan_is_deterministic_across_thread_counts(tmp_path):
    config = small_config()
    texts = []
    for threads in (1, 8):
        result = run_scan(dataclasses.replace(config, threads=threads))
        texts.append(write_records_csv(result, tmp_path / f"t{threads}.csv"))
    assert texts[0] == texts[1]
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t8.csv").read_bytes()


def test_scan_records_and_aggregates_are_consistent():
    (result,) = run_scan(small_config())
    ok = [r for r in result.records if r.pd_ok]
    assert result.failed_pd == 0 and len(ok) == 6
    for eps in (0.5, 0.75, 1.0):
        values = [r.ground_renyi[eps] for r in ok]
        stats = result.aggregates[f"ground_renyi[{eps:g}]"]
        assert stats["mean"] == pytest.approx(np.mean(values), rel=1e-12)
    assert result.aggregates["log_negativity"]["mean"] == pytest.approx(
        np.mean([r.log_negativity for r in ok]), rel=1e-12
    )


def test_close_eps_values_keep_their_own_aggregates(tmp_path):
    eps_values = (0.5, 0.5000001, 1.0)
    results = run_scan(small_config(realizations=3, eps=eps_values))
    (result,) = results
    for eps in eps_values:
        stats = result.aggregates[f"ground_renyi[{eps:.15g}]"]
        assert stats["n"] == 3
        assert stats["mean"] == pytest.approx(statistics.fmean(r.ground_renyi[eps] for r in result.records), rel=1e-14)
    assert sorted(name for name in result.aggregates if name.startswith("ground_renyi")) == [
        "ground_renyi[0.5000001]", "ground_renyi[0.5]", "ground_renyi[1]"
    ]
    rows = write_records_csv(results, tmp_path / "records.csv").splitlines()[1:]
    assert len({tuple(row.split(",")[:5]) for row in rows}) == len(rows) == 9


def test_scan_bounds_hold_per_realization():
    (result,) = run_scan(small_config(realizations=10))
    for record in result.records:
        assert record.pd_ok
        for eps in (0.5, 0.75, 1.0):
            assert record.ground_renyi[eps] <= record.gs_correlator_bound + 1e-12
        assert record.excited_computed_bound <= record.excited_theorem_bound + 1e-12
        values = [record.ground_renyi[e] for e in (0.5, 0.75, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_scan_excitation_range_policy():
    config = small_config(excitations=(1, 3))
    (result,) = run_scan(config)
    assert all(1 <= r.excited_mode <= 3 for r in result.records)
    (none,) = run_scan(small_config(excitations="none"))
    assert all(r.excited_mode == -1 for r in none.records)
    assert "excited_computed_bound" not in none.aggregates


def test_scan_ensemble_bound_hypothesis_gate():
    # region 3^2 <= 14: bound present; region 4^2 > 14: absent
    (with_bound,) = run_scan(small_config(regions=(box((5,), (3,)),)))
    assert all(math.isfinite(r.ensemble_bound) for r in with_bound.records)
    (without,) = run_scan(small_config())
    assert all(math.isnan(r.ensemble_bound) for r in without.records)


@pytest.mark.parametrize("lengths", [(3,), (2, 2)])
@pytest.mark.parametrize("run", [lambda config: run_scan(dataclasses.replace(config, fit_decay=True)), correlator_ensemble], ids=["run_scan", "correlator_ensemble"])
def test_a_decay_fit_on_too_few_distances_fails_before_any_realization(run, lengths, monkeypatch):
    # largest l1 distance sum(L_i - 1) = 2: two distance bins, and the fit needs three
    calls = []
    monkeypatch.setattr(oscent.experiments, "checked_realization", lambda *args: calls.append(args))
    config = small_config(dimension=len(lengths), lengths=lengths, regions=(box((0,) * len(lengths), (1,) * len(lengths)),))
    with pytest.raises(ValueError, match="^need >= 3 distinct distances for a fit, the lattice has 2$"):
        run(config)
    assert calls == []


def test_scan_standard_error_shrinks_with_realizations():
    ses = []
    for count in (50, 200, 800):
        (result,) = run_scan(
            small_config(
                lengths=(10,),
                regions=(box((3,), (3,)),),
                realizations=count,
                excitations="none",
            )
        )
        ses.append(result.aggregates["ground_renyi[0.5]"]["se"])
    # 4x realizations should halve the standard error, within 20%
    assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.2)
    assert ses[1] / ses[2] == pytest.approx(2.0, rel=0.2)


def test_scan_decay_fit_is_deterministic():
    config = small_config(fit_decay=True, realizations=8)
    (first,) = run_scan(dataclasses.replace(config, threads=1))
    (second,) = run_scan(dataclasses.replace(config, threads=4))
    assert first.decay is not None
    assert first.decay == second.decay
    assert first.empirical_area_bound["note"] == "empirical"


BIN_BOXES = [((30,), (box((10,), (6,)),)), ((6, 6), (box((1, 1), (3, 3)),)), ((4, 4, 4), (box((1, 1, 1), (2, 2, 2)),))]


def _fitted_bin_means(config, monkeypatch) -> dict:
    """The distance-bin means run_scan hands to its decay fit."""
    seen = []
    original = oscent.experiments.fit_decay_constant

    def spy(by_distance, *args):
        seen.append(by_distance)
        return original(by_distance, *args)

    monkeypatch.setattr(oscent.experiments, "fit_decay_constant", spy)
    run_scan(config)
    (by_distance,) = seen
    return by_distance


@pytest.mark.parametrize("lengths, regions", BIN_BOXES, ids=["1d", "2d", "3d"])
def test_a_scans_averaged_bin_means_equal_the_bins_of_the_ensemble_mean(lengths, regions, monkeypatch):
    # The same numbers summed in another order: each realization's bins, then
    # their average, against the bins of the averaged moment matrix
    config = small_config(dimension=len(lengths), lengths=lengths, regions=regions, excitations="none", fit_decay=True, realizations=5)
    scanned = _fitted_bin_means(config, monkeypatch)
    ensemble = mean_moment_by_distance(correlator_ensemble(config)[0], config.lattice)
    assert list(scanned) == list(ensemble) == list(range(1, sum(n - 1 for n in lengths) + 1))
    for r, mean in ensemble.items():
        assert scanned[r] == pytest.approx(mean, rel=1e-14, abs=0.0)


def test_the_scan_decay_fit_is_byte_identical_at_pool_sizes_one_and_two():
    config = small_config(dimension=2, lengths=(6, 6), regions=(box((1, 1), (3, 3)),), excitations="none", fit_decay=True, realizations=7)
    fits = []
    for threads in (1, 2):
        (result,) = run_scan(dataclasses.replace(config, threads=threads))
        empirical = result.empirical_area_bound
        fits.append(np.array([result.decay.eta, result.decay.prefactor, result.decay.residual, empirical["constant"]]).tobytes())
        assert result.decay.distances == tuple(range(1, 11))
    assert fits[0] == fits[1]


def test_area_law_fit_recovers_synthetic_slopes():
    def fake(size, boundary, bound):
        return SimpleNamespace(
            region_size=size, boundary_size=boundary, excited_theorem_mean=bound
        )

    log_results = [fake(s, 2, 4.0 * math.log(s)) for s in (4, 8, 16, 32)]
    fit = area_law_fit(log_results)
    assert fit.slope_vs_log_size == pytest.approx(4.0, abs=1e-8)
    assert fit.slope_vs_log_size_se == pytest.approx(0.0, abs=1e-8)
    assert math.isnan(fit.slope_vs_boundary)  # constant boundary: undefined

    boundary_results = [fake(s, b, 7.0 * b) for s, b in ((4, 2), (9, 3), (16, 4), (25, 5))]
    fit = area_law_fit(boundary_results)
    assert fit.slope_vs_boundary == pytest.approx(7.0, abs=1e-8)

    with pytest.raises(ValueError):
        area_law_fit(log_results[:2])


def test_area_law_fit_of_a_scan_without_excitations_raises():
    results = run_scan(small_config(lengths=(24,), regions=tuple(box((8,), (n,)) for n in (2, 4, 8)), realizations=2, excitations="none"))
    assert all(math.isnan(result.excited_theorem_mean) for result in results)
    with pytest.raises(ValueError, match=r"fits the excited theorem bound, and the scan has none at region sizes \[2, 4, 8\]"):
        area_law_fit(results)


def test_writers_produce_stable_files(tmp_path):
    results = run_scan(small_config(regions=tuple(box((5,), (n,)) for n in (2, 3, 4)), realizations=3))
    csv_text = write_records_csv(results, tmp_path / "records.csv")
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("realization_index,lattice_size,region_size")
    assert len(lines) == 1 + 3 * 3 * 3  # header + regions * realizations * eps values
    agg_text = write_aggregates_json(results, tmp_path / "agg.json")
    payload = json.loads(agg_text)
    assert [entry["region_size"] for entry in payload] == [2, 3, 4]
    dat_text = write_scaling_data(results, tmp_path / "scaling.dat")
    rows = [line for line in dat_text.strip().split("\n") if not line.startswith("#")]
    assert len(rows) == 3
    assert all(len(row.split()) == 6 for row in rows)


def test_config_rejects_nonpositive_k_max():
    with pytest.raises(ValueError, match="k_max must be positive"):
        small_config(k_max=0.0)


def test_config_rejects_excitation_range_beyond_mode_count():
    assert small_config(excitations=(1, 14)).excitations == (1, 14)
    with pytest.raises(ValueError, match="exceeds mode count 14"):
        small_config(excitations=(1, 15))


def _written(results, tmp_path, tag):
    return (
        write_records_csv(results, tmp_path / f"{tag}.csv"),
        write_aggregates_json(results, tmp_path / f"{tag}.json"),
        write_scaling_data(results, tmp_path / f"{tag}.dat"),
    )


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize(
    "config",
    [
        small_config(lengths=(24,), regions=tuple(box((12 - n // 2,), (n,)) for n in (2, 4, 8))),
        small_config(
            dimension=2,
            lengths=(6, 5),
            regions=(box((1, 1), (3, 2)), RegionSpec(sites=((0, 0), (2, 3), (5, 4)))),
            fit_decay=True,
        ),
    ],
    ids=["chain-windows", "grid-box-and-sites"],
)
def test_run_scans_matches_separate_scans_byte_for_byte(config, threads, tmp_path):
    # One multi-region scan against one single-region scan per region
    config = dataclasses.replace(config, threads=threads)
    shared = run_scan(config)
    separate = [result for region in config.regions for result in run_scan(dataclasses.replace(config, regions=(region,)))]
    assert all(r.config == config for r in shared)
    assert _written(shared, tmp_path, "shared") == _written(separate, tmp_path, "separate")
    for one, other in zip(shared, separate):
        assert one.decay == other.decay
        assert one.empirical_area_bound == other.empirical_area_bound


def _zero_springs_of(monkeypatch, failing_index):
    original = oscent.experiments.sample_springs

    def sample(model, lattice, index):
        springs = original(model, lattice, index)
        return springs * 0.0 if index == failing_index else springs

    monkeypatch.setattr(oscent.experiments, "sample_springs", sample)


def _decoupled_regions(sizes):
    return small_config(coupling="none", excitations="none", regions=tuple(box((5,), (n,)) for n in sizes))


def test_run_scans_raises_when_the_first_realization_fails_pd(monkeypatch):
    _zero_springs_of(monkeypatch, 0)
    with pytest.raises(ValueError, match="first realization"):
        run_scan(_decoupled_regions((2, 3)))


def test_run_scans_marks_a_failed_realization_in_every_region(monkeypatch):
    _zero_springs_of(monkeypatch, 2)
    results = run_scan(_decoupled_regions((2, 3)))
    for result in results:
        assert result.failed_pd == 1
        assert [r.pd_ok for r in result.records] == [True, True, False, True, True, True]
        assert result.aggregates["log_negativity"]["n"] == 5


def test_scan_enforces_the_weight_sum_rule(monkeypatch, tmp_path):
    original = oscent.entanglement._profile_arrays

    def corrupted(*args):
        *rest, weights = original(*args)
        weights = weights.copy()
        weights[0, 0] += 2.1 - weights[0].sum()
        return (*rest, weights)

    monkeypatch.setattr(oscent.entanglement, "_profile_arrays", corrupted)
    config = small_config(realizations=2)
    with pytest.raises(ArithmeticError, match="exceeds 2"):
        run_scan(config)
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(config.to_dict()))
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "out")]) == 1


def test_scan_enforces_the_weight_column_sums(monkeypatch):
    original = oscent.entanglement._profile_arrays

    def corrupted(*args):
        *rest, weights = original(*args)
        weights = weights.copy()
        weights[0, 0] -= 1e-6
        return (*rest, weights)

    monkeypatch.setattr(oscent.entanglement, "_profile_arrays", corrupted)
    with pytest.raises(ArithmeticError, match="column sum"):
        run_scan(small_config(realizations=2))


def _peak_bytes(run) -> int:
    """The peak traced bytes of ``run()``; a config built inside ``run`` counts its lattice, as in a fresh run."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threads, slack", [(1, 2), (2, 4)])
def test_scan_memory_is_flat_in_the_number_of_realizations(threads, slack):
    # Holding every realization's moment matrix until the pool ends would add
    # 24 of them here. The read window allows 2 x threads realizations in
    # flight, so the growth is bounded by that many moment matrices, which a
    # worker makes and reduces to its bin means before it returns.
    config = small_config(
        lengths=(160,), regions=(box((60,), (16,)),), excitations="none",
        fit_decay=True, threads=threads,
    )
    moment_bytes = 160 * 160 * 8
    run_scan(config)  # warm caches
    few, many = (
        statistics.median(_peak_bytes(lambda: run_scan(dataclasses.replace(config, realizations=n))) for _ in range(3))
        for n in (8, 32)
    )
    assert many < few + slack * moment_bytes


@pytest.mark.parametrize("threads, slack", [(1, 2), (2, 4)])
def test_correlator_ensemble_memory_is_flat_in_the_number_of_realizations(threads, slack):
    # The ensemble reads its pool through the scan's window, so the same bound holds
    config = small_config(lengths=(160,), regions=(box((60,), (16,)),), threads=threads)
    moment_bytes = 160 * 160 * 8
    correlator_ensemble(config)  # warm caches
    few, many = (
        statistics.median(_peak_bytes(lambda: correlator_ensemble(dataclasses.replace(config, realizations=n))) for _ in range(3))
        for n in (8, 32)
    )
    assert many < few + slack * moment_bytes


# A bulk-3d-shaped operation: 8x8x8 box, one 4x4x4 region, 4 realizations on one pool thread.
BOX = small_config(
    dimension=3, lengths=(8, 8, 8), regions=(box((2, 2, 2), (4, 4, 4)),),
    eps=(0.5, 1.0), realizations=4, fit_decay=True, threads=1,
)
BOX_MATRIX_BYTES = 512 * 512 * 8


def test_a_dense_scan_holds_at_most_six_n_by_n_arrays():
    # Each n x n array of a realization is dropped before the next is made:
    # about three at a time inside the worker (the eigenvectors, a product,
    # h^{1/2} or h^{-1/2}), plus the lattice distances and their intp keys
    # while the moment is binned (4.4 traced).
    run_scan(BOX)  # warm caches
    assert _peak_bytes(lambda: run_scan(dataclasses.replace(BOX))) <= 6 * BOX_MATRIX_BYTES


def _arrays(value):
    """Every numpy array inside ``value``: its items, entries and dataclass fields, followed through."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            yield from _arrays(getattr(value, item.name))


def test_a_decay_fit_scan_reduces_bins_not_n_by_n_moments(monkeypatch):
    # Each worker hands back one mean per distance, so a longer scan holds
    # nothing more: the peak is a realization's own arrays, 2 realizations or 8
    config = dataclasses.replace(BOX, excitations="none")
    results = []
    original = oscent.experiments._run_pooled

    def watched(worker, count, threads, reduce):
        def watch(result):
            results.append([array.shape for array in _arrays(result)])
            reduce(result)
        return original(worker, count, threads, watch)

    monkeypatch.setattr(oscent.experiments, "_run_pooled", watched)
    run_scan(config)  # warm caches
    assert len(results) == 4 and results == [[]] * 4
    few, many = (
        statistics.median(_peak_bytes(lambda: run_scan(dataclasses.replace(config, realizations=n))) for _ in range(3))
        for n in (2, 8)
    )
    assert many < few + 0.1 * BOX_MATRIX_BYTES


def test_a_ground_only_report_makes_no_n_by_n_array():
    # Its region blocks come from the |R| = 64 region rows of the eigenvectors
    # (n^2 / 8 doubles here), never from h^{1/2} or a complement block.
    config = dataclasses.replace(BOX, excitations="none")
    data = definite_realization(config, 0)
    region_reports(config, data, [])  # warm caches
    assert _peak_bytes(lambda: region_reports(config, data, [])) < 0.5 * BOX_MATRIX_BYTES


def test_a_dense_correlator_ensemble_holds_at_most_five_and_a_half_n_by_n_arrays():
    # Three inside the worker, the moment sum and one finished moment.
    correlator_ensemble(BOX)  # warm caches
    assert _peak_bytes(lambda: correlator_ensemble(dataclasses.replace(BOX))) <= 5.5 * BOX_MATRIX_BYTES


class _InlinePool:
    """A pool that runs each submitted call at once and records how many results are submitted and unread."""

    def __init__(self):
        self.submitted = 0
        self.read = 0
        self.most_unread = 0

    def submit(self, fn, *args):
        self.submitted += 1
        self.most_unread = max(self.most_unread, self.submitted - self.read)
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("window", [1, 2, 4])
@pytest.mark.parametrize("count", [1, 3, 10])
def test_in_index_order_holds_at_most_window_unread_results(window, count):
    pool = _InlinePool()
    seen = []
    for result in oscent.experiments._in_index_order(pool, lambda index: index, count, window):
        pool.read += 1
        assert pool.submitted - pool.read <= window - 1
        seen.append(result)
    assert seen == list(range(count))
    assert pool.most_unread == min(window, count)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_worker_exception_stops_the_scan_early(threads, monkeypatch):
    started = []
    coupling_matrix = oscent.experiments.coupling_matrix

    def failing(config, index):
        started.append(index)
        if index == 1:
            raise RuntimeError("worker failed")
        return coupling_matrix(config, index)

    monkeypatch.setattr(oscent.experiments, "coupling_matrix", failing)
    with pytest.raises(RuntimeError, match="worker failed"):
        run_scan(small_config(realizations=40, threads=threads))
    assert len(started) <= 1 + 2 * threads  # realizations beyond the in-flight window never start


def test_a_worker_exception_wins_over_a_failed_first_realization(monkeypatch):
    _zero_springs_of(monkeypatch, 0)
    coupling_matrix = oscent.experiments.coupling_matrix

    def failing(config, index):
        if index == 3:
            raise RuntimeError("worker failed")
        return coupling_matrix(config, index)

    monkeypatch.setattr(oscent.experiments, "coupling_matrix", failing)
    with pytest.raises(RuntimeError, match="worker failed"):
        run_scan(_decoupled_regions((2, 3)))
