"""Run configs, disorder Monte Carlo scans, aggregation and scaling fits.

``ExperimentConfig`` is the one config schema of every command, and
``coupling_matrix`` the one place a config becomes a coupling matrix.

A scan draws independent spring realizations, computes entropies and bounds
for each, and aggregates with deterministic (Welford, index-ordered)
accumulation, so the output is byte-identical no matter how many worker
threads ran the realizations. The correlator ensemble runs its realizations
on the same pool. The worker threads are the only compute threads: the
eigensolves release the GIL, and every loaded OpenBLAS is pinned to one
thread while the pool runs.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .correlators import DecayFit, MomentSum, correlator_table, fit_decay_constant, ground_state_correlator_bound, line_fit, require_norm_bound
from .entanglement import EPS_MIN, EntropyReport, entropy_report, excitation_weights
from .hamiltonian import (
    AssumptionReport,
    CouplingMatrix,
    DisorderModel,
    anderson_norm_bound,
    assemble_anderson,
    load_matrix_csv,
    sample_springs,
    validate_coupling,
)
from .lapack import single_blas_thread
from .lattice import Lattice, Region, box_region, build_box, inner_boundary, make_region
from .spectral import BipartitionBlocks, SpectralData, decompose, eigensystem, partition_blocks, spd_sqrt, symplectic_spectrum

# The config schema: every key ``ExperimentConfig.from_dict`` reads, and
# nothing else. ``disorder.kind`` is accepted because ``to_dict`` writes it.
_CONFIG_KEYS = frozenset(
    "dimension lengths region disorder matrix_csv bound realization_index realizations "
    "eps excitations p s seed master_seed threads fit_decay coupling".split()
)
_DISORDER_KEYS = frozenset({"k_max", "seed", "kind"})
_REGION_KEYS = frozenset({"corner", "lengths", "sites"})


def _check_keys(entry, allowed, where: str):
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; allowed: {sorted(allowed)}")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    """A config value that must be a JSON integer (a bool is not one); raises ValueError otherwise."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _integers(values, name: str) -> tuple[int, ...]:
    return tuple(_integer(value, name) for value in values)


def _number(value, name: str) -> float:
    """A config value that must be a JSON number (a bool or a string is not one); raises ValueError otherwise."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def eps_label(eps: float) -> str:
    """The name of an eps in every output: its ``records.csv`` column and its ``ground_renyi[...]`` aggregate key."""
    return f"{eps:.15g}"


def parse_excitations(entry, modes: int) -> str | tuple[int, int]:
    """Read the ``excitations`` entry of a config: the one policy parser.

    Accepts "all", "none" or {"k_range": [lo, hi]} with integer bounds
    1 <= lo <= hi <= ``modes``, and returns "all", "none" or (lo, hi);
    raises ValueError on anything else.
    """
    if entry in ("all", "none"):
        return entry
    bounds = entry.get("k_range") if isinstance(entry, dict) and len(entry) == 1 else None
    if not (
        isinstance(bounds, (list, tuple))
        and len(bounds) == 2
        and all(_is_integer(b) for b in bounds)
    ):
        raise ValueError(
            f"unknown excitation policy {entry!r}: use \"all\", \"none\" or "
            f"{{\"k_range\": [lo, hi]}} with integer bounds"
        )
    lo, hi = bounds
    if not 1 <= lo <= hi:
        raise ValueError(f"bad excitation range {entry}")
    if hi > modes:
        raise ValueError(f"excitation range {entry} exceeds mode count {modes}")
    return (int(lo), int(hi))


def _excitations_entry(policy) -> str | dict:
    """The config form of a parsed excitation policy."""
    return policy if isinstance(policy, str) else {"k_range": list(policy)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run (a scan or a single-realization command) byte for byte."""

    dimension: int
    lengths: tuple[int, ...]
    region_corner: tuple[int, ...] | None = None
    region_lengths: tuple[int, ...] | None = None
    region_sites: tuple[tuple[int, ...], ...] | None = None
    k_max: float = 1.0
    realizations: int = 1
    eps_values: tuple[float, ...] = (0.5, 1.0)
    excitations: str | tuple[int, int] = "all"
    p: float = 1.0
    s: float = 0.5
    master_seed: int = 0
    threads: int | None = None
    fit_decay: bool = False
    coupling_kind: str = "nearest"  # "nearest" or "none" (springs only, decoupled)
    realization_index: int = 0  # the realization single-realization commands use
    matrix_csv: str | None = None  # a fixed coupling matrix instead of disorder
    bound: float | None = None  # norm bound D on ||h^{1/2}||; see ``norm_bound``

    def __post_init__(self):
        if self.dimension < 1 or len(self.lengths) != self.dimension or min(self.lengths) < 1:
            raise ValueError(f"need {self.dimension} >= 1 positive side lengths, got {self.lengths}")
        if self.coupling_kind not in ("nearest", "none"):
            raise ValueError(f"unknown coupling kind {self.coupling_kind!r}")
        if self.realizations < 1 or self.realization_index < 0:
            raise ValueError("need realizations >= 1 and realization_index >= 0")
        if not all(EPS_MIN <= e <= 1.0 for e in self.eps_values):
            raise ValueError(f"every eps must lie in [{EPS_MIN!r}, 1], got {self.eps_values}")
        if len({eps_label(e) for e in self.eps_values}) < len(self.eps_values):
            raise ValueError(f"eps values must differ in their 15-digit labels, got {self.eps_values}")
        for name in ("p", "s"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.bound is not None and not self.bound > 0:
            raise ValueError(f"bound must be positive, got {self.bound}")
        DisorderModel(k_max=self.k_max, seed=self.master_seed)  # checks k_max > 0 and the seed
        if self.region_sites is not None:
            boxes = [(site, site) for site in self.region_sites]
        elif self.region_corner is not None and self.region_lengths is not None:
            far = [c + n - 1 for c, n in zip(self.region_corner, self.region_lengths)]
            boxes = [(self.region_corner, far)]
        else:
            raise ValueError("config needs region_sites or region_corner + region_lengths")
        if not boxes or not all(
            len(lo) == len(hi) == self.dimension
            and all(0 <= a <= b < n for a, b, n in zip(lo, hi, self.lengths))
            for lo, hi in boxes
        ):
            raise ValueError(f"region is empty or leaves the lattice {list(self.lengths)}")
        covered = len(set(self.region_sites)) if self.region_sites is not None else math.prod(self.region_lengths)
        if covered == math.prod(self.lengths):
            raise ValueError("region equals the whole lattice; the complement is empty")
        parse_excitations(_excitations_entry(self.excitations), math.prod(self.lengths))

    @property
    def norm_bound(self) -> float:
        """The configured ``bound``, or the spring model's sqrt(4d + k_max)."""
        return self.bound if self.bound is not None else anderson_norm_bound(self.dimension, self.k_max)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Parse a JSON config; unknown keys and out-of-range values raise."""
        _check_keys(raw, _CONFIG_KEYS, "config")
        region = raw.get("region") or {}
        _check_keys(region, _REGION_KEYS, "region")
        disorder = raw.get("disorder") or {}
        _check_keys(disorder, _DISORDER_KEYS, "disorder")
        if disorder.get("kind", "uniform") != "uniform":
            raise ValueError(f"unknown disorder kind {disorder['kind']!r}")
        if "k_max" not in disorder and raw.get("matrix_csv") is None:
            raise ValueError("config needs disorder.k_max or matrix_csv")
        lengths = _integers(raw["lengths"], "lengths")
        excitations = parse_excitations(raw.get("excitations", "all"), math.prod(lengths))
        seeds = {name: _integer(entry[key], name) for entry, key, name in (
            (raw, "seed", "seed"), (raw, "master_seed", "master_seed"), (disorder, "seed", "disorder.seed")
        ) if key in entry}
        if len(set(seeds.values())) > 1:
            raise ValueError(f"seed spellings disagree: {seeds}")
        fit_decay = raw.get("fit_decay", False)
        if not isinstance(fit_decay, bool):
            raise ValueError(f"fit_decay must be true or false, got {fit_decay!r}")
        return ExperimentConfig(
            dimension=_integer(raw["dimension"], "dimension"),
            lengths=lengths,
            region_corner=_integers(region["corner"], "region.corner") if "corner" in region else None,
            region_lengths=_integers(region["lengths"], "region.lengths") if "lengths" in region else None,
            region_sites=tuple(_integers(site, "region.sites") for site in region["sites"]) if "sites" in region else None,
            k_max=_number(disorder.get("k_max", 1.0), "disorder.k_max"),
            realizations=_integer(raw.get("realizations", 1), "realizations"),
            eps_values=tuple(_number(e, "eps") for e in raw.get("eps", [0.5, 1.0])),
            excitations=excitations,
            p=_number(raw.get("p", 1.0), "p"),
            s=_number(raw.get("s", 0.5), "s"),
            master_seed=next(iter(seeds.values()), 0),
            threads=_integer(raw["threads"], "threads") if raw.get("threads") is not None else None,
            fit_decay=fit_decay,
            coupling_kind=str(raw.get("coupling", "nearest")),
            realization_index=_integer(raw.get("realization_index", 0), "realization_index"),
            matrix_csv=str(raw["matrix_csv"]) if raw.get("matrix_csv") is not None else None,
            bound=_number(raw["bound"], "bound") if raw.get("bound") is not None else None,
        )

    def to_dict(self) -> dict:
        region: dict = {}
        if self.region_sites is not None:
            region["sites"] = [list(s) for s in self.region_sites]
        else:
            region["corner"] = list(self.region_corner)
            region["lengths"] = list(self.region_lengths)
        return {
            "dimension": self.dimension,
            "lengths": list(self.lengths),
            "region": region,
            "disorder": {"kind": "uniform", "k_max": self.k_max},
            "realizations": self.realizations,
            "eps": list(self.eps_values),
            "excitations": _excitations_entry(self.excitations),
            "p": self.p,
            "s": self.s,
            "seed": self.master_seed,
            "threads": self.threads,
            "fit_decay": self.fit_decay,
            "coupling": self.coupling_kind,
            "realization_index": self.realization_index,
            "matrix_csv": self.matrix_csv,
            "bound": self.bound,
        }


@dataclass
class RealizationRecord:
    """Per-realization entropies and bounds; NaNs mark skipped quantities."""

    index: int
    pd_ok: bool
    ground_renyi: dict[float, float] = field(default_factory=dict)
    log_negativity: float = math.nan
    excited_mode: int = -1
    excited_computed_bound: float = math.nan
    excited_theorem_bound: float = math.nan
    gs_correlator_bound: float = math.nan
    ensemble_bound: float = math.nan
    mu_max: float = math.nan

    @staticmethod
    def of(index: int, report: EntropyReport, gs_correlator_bound: float) -> "RealizationRecord":
        """The record of a positive-definite realization: its region report, worst excitation first."""
        record = RealizationRecord(
            index=index,
            pd_ok=True,
            ground_renyi=dict(zip(report.eps, report.ground_renyi)),
            log_negativity=report.log_negativity,
            gs_correlator_bound=gs_correlator_bound,
            mu_max=report.mu[-1],
        )
        if report.excited_modes:
            worst = int(np.argmax(report.excited_computed_bounds))
            record.excited_mode = report.excited_modes[worst]
            record.excited_computed_bound = report.excited_computed_bounds[worst]
            record.excited_theorem_bound = report.excited_theorem_bounds[worst]
        if report.ensemble_bound is not None:
            record.ensemble_bound = report.ensemble_bound
        return record


@dataclass
class ScanResult:
    """Records plus deterministic aggregates for one scan."""

    config: ExperimentConfig
    lattice_size: int
    region_size: int
    boundary_size: int
    records: list[RealizationRecord]
    aggregates: dict
    failed_pd: int
    decay: DecayFit | None = None
    empirical_area_bound: dict | None = None
    execution: dict | None = None  # pool threads, pinned BLAS libraries, BLAS threads in the pool

    @property
    def excited_theorem_mean(self) -> float:
        stats = self.aggregates.get("excited_theorem_bound")
        return stats["mean"] if stats else math.nan


class _Welford:
    """Streaming mean and standard error, bit-stable in insertion order."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float):
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def stats(self) -> dict:
        se = math.sqrt(self._m2 / (self.count - 1) / self.count) if self.count > 1 else 0.0
        return {"mean": self.mean, "se": se, "n": self.count}


def selected_modes(policy, total: int) -> list[int]:
    """1-based modes a parsed excitation policy selects out of ``total``."""
    if policy == "all":
        return list(range(1, total + 1))
    if policy == "none":
        return []
    lo, hi = policy
    return list(range(lo, hi + 1))


def region_of(config: ExperimentConfig, lattice: Lattice) -> Region:
    """The region a config selects on its lattice."""
    if config.region_sites is not None:
        return make_region(lattice, config.region_sites)
    return box_region(lattice, config.region_corner, config.region_lengths)


def coupling_matrix(config: ExperimentConfig, lattice: Lattice, index: int) -> CouplingMatrix:
    """The coupling matrix h of realization ``index`` of a config.

    The config's ``matrix_csv`` if it names one; otherwise springs drawn
    from its disorder model, coupled to nearest neighbors or not at all
    according to ``coupling_kind``.
    """
    if config.matrix_csv is not None:
        return load_matrix_csv(config.matrix_csv, lattice)
    model = DisorderModel(k_max=config.k_max, seed=config.master_seed)
    springs = sample_springs(model, lattice, index)
    if config.coupling_kind == "nearest":
        return assemble_anderson(lattice, springs)
    return CouplingMatrix(matrix=np.diag(springs), lattice=lattice)


def checked_realization(config: ExperimentConfig, lattice: Lattice, index: int) -> tuple[CouplingMatrix, AssumptionReport, SpectralData | None]:
    """Realization ``index`` of a config from one decomposition of its h.

    Returns h, its validate_coupling report against the config's norm bound,
    and its eigensystem, which is None unless h is positive definite.
    """
    h = coupling_matrix(config, lattice, index)
    data = decompose(h)
    report = validate_coupling(data, config.norm_bound)
    return h, report, eigensystem(data) if report.is_positive_definite else None


def definite_realization(config: ExperimentConfig, lattice: Lattice, index: int) -> tuple[CouplingMatrix, SpectralData]:
    """h and eigensystem of realization ``index``; raises ValueError unless h is positive definite."""
    h, report, data = checked_realization(config, lattice, index)
    if data is None:
        raise ValueError(f"coupling matrix is not positive definite (smallest eigenvalue {report.smallest_eigenvalue:.3e})")
    return h, data


def region_report(config: ExperimentConfig, data: SpectralData, blocks: BipartitionBlocks, modes) -> EntropyReport:
    """The entropies and bounds of one region of a realization.

    ``modes`` lists the 1-based excitations whose bounds the report holds;
    their weight rows come from excitation_weights, which checks every
    mode's identities whether selected or not.
    """
    spectrum = symplectic_spectrum(blocks)
    weights = excitation_weights(data, blocks, spectrum)[np.asarray(modes, dtype=int) - 1] if modes else None
    return entropy_report(spectrum, config.eps_values, modes, weights, lattice_size=data.size)


def _without_region(config: ExperimentConfig) -> dict:
    return {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if not f.name.startswith("region_")
    }


def run_scan(config: ExperimentConfig) -> ScanResult:
    """Run one disorder scan; deterministic given the config (incl. seed)."""
    return run_scans([config])[0]


def run_scans(configs) -> list[ScanResult]:
    """Run several scans that differ only in the region, one result per config.

    Each disorder realization is sampled, checked and decomposed once (h,
    its eigensystem, h^{1/2} and the h^{-1/2} correlator table) and every
    region derives its record from that shared decomposition, so each
    result is byte-identical to a separate run of its config. The decay
    fit, which depends only on the lattice, runs once and is shared.

    Realizations are reduced in index order as they finish, with at most
    two per pool thread in flight, so memory does not grow with the number
    of realizations.

    Realizations failing the positive-definiteness check are recorded with
    pd_ok = False and excluded from every aggregate; the first realization
    must pass (anything else means the config itself is bad). Raises
    ValueError when the configs differ in anything but the region.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one scan config")
    config = configs[0]
    shared = _without_region(config)
    for other in configs[1:]:
        differing = sorted(k for k, v in _without_region(other).items() if shared[k] != v)
        if differing:
            raise ValueError(f"scan configs may differ only in the region, not in {differing}")
    lattice = build_box(config.dimension, config.lengths)
    regions = [region_of(c, lattice) for c in configs]
    bound = config.norm_bound
    modes = selected_modes(config.excitations, lattice.size)

    def worker(index: int):
        h, _, data = checked_realization(config, lattice, index)
        if data is None:
            return [RealizationRecord(index=index, pd_ok=False) for _ in regions], None
        hsqrt = spd_sqrt(data)
        table = correlator_table(h, data)
        records = [
            RealizationRecord.of(
                index,
                region_report(config, data, partition_blocks(hsqrt, region), modes),
                ground_state_correlator_bound(table, region, config.p, bound),
            )
            for region in regions
        ]
        moment = table.values**config.s if config.fit_decay else None
        return records, moment

    rows = []  # rows[index][position]: the record of realization ``index`` for region ``position``
    moments = MomentSum()

    def reduce(result):
        records, moment = result
        rows.append(records)
        if moment is not None:
            moments.add(moment)

    execution = _run_pooled(worker, config.realizations, config.threads, reduce)

    if not rows[0][0].pd_ok:
        raise ValueError("first realization failed the positive-definiteness check")
    failed = sum(1 for row in rows if not row[0].pd_ok)
    if failed == len(rows):
        raise ValueError("every realization failed the positive-definiteness check")

    decay = constant = None
    if moments.count:
        decay, constant = fit_decay_constant(moments.mean(), lattice, config.s, bound)

    results = []
    for position, (scan_config, region) in enumerate(zip(configs, regions)):
        boundary = len(inner_boundary(region))
        records = [row[position] for row in rows]
        empirical = None
        if constant is not None:
            empirical = {
                "prefactor": decay.prefactor,
                "eta": decay.eta,
                "s": config.s,
                "residual": decay.residual,
                "constant": constant,
                "constant_times_boundary": constant * boundary,
                "note": "empirical",
            }
        results.append(
            ScanResult(
                config=scan_config,
                lattice_size=lattice.size,
                region_size=region.size,
                boundary_size=boundary,
                records=records,
                aggregates=_aggregate(records),
                failed_pd=failed,
                decay=decay,
                empirical_area_bound=empirical,
                execution=execution,
            )
        )
    return results


def correlator_ensemble(config: ExperimentConfig, lattice: Lattice) -> tuple[np.ndarray, dict]:
    """The mean moment matrix E|<delta_j, h^{-1/2} delta_k>|^s over a config's realizations, and the pool's ``execution``.

    Realizations run on the scan's pool and are summed in index order, so
    the mean is byte-identical for every pool size and BLAS thread count.
    Raises ValueError at the first realization, in index order, whose h is
    not positive definite or whose ||h^{1/2}|| exceeds the norm bound.
    """

    def worker(index: int) -> np.ndarray:
        table = correlator_table(*definite_realization(config, lattice, index))
        return require_norm_bound(table, config.norm_bound).values ** config.s

    moments = MomentSum()
    execution = _run_pooled(worker, config.realizations, config.threads, moments.add)
    return moments.mean(), execution


def _run_pooled(worker, count: int, threads: int | None, reduce) -> dict:
    """``reduce(worker(index))`` for index 0, ..., ``count - 1``, the workers on a pool, the reduction in index order.

    The pool has ``threads`` workers (default: the CPUs this process may
    run on), with at most two realizations per thread in flight. Every
    OpenBLAS loaded when the pool opens is pinned to one thread for every
    pool size, so no result depends on the BLAS threads of the
    environment; the pool exits (all workers done) before the pin. Returns
    the ``execution`` record: pool threads, pinned BLAS libraries and the
    BLAS threads inside the pool.
    """
    from concurrent.futures import ThreadPoolExecutor  # not at import: most commands run no pool

    threads = threads or _usable_cpus()
    with single_blas_thread() as blas, ThreadPoolExecutor(max_workers=threads) as pool:
        for result in _in_index_order(pool, worker, count, 2 * threads):
            reduce(result)
    return {"pool_threads": threads, "blas_libraries": blas, "blas_threads": 1 if blas else None}


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else every CPU.

    A cpuset (taskset, a batch scheduler's allocation) narrows the mask
    below ``os.cpu_count()``, which counts the host's CPUs.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_index_order(pool, worker, count: int, window: int):
    """``worker(0)``, ..., ``worker(count - 1)`` run on ``pool`` and yielded in index order.

    At most ``window`` results are running or waiting to be read at once,
    so memory stays flat in ``count``. A worker's exception propagates when
    its result is read, and the realizations still queued are cancelled.
    """
    pending = deque()
    try:
        for index in range(count):
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(worker, index))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _aggregate(records: list[RealizationRecord]) -> dict:
    """Welford statistics of every per-realization quantity, in index order."""
    accumulators: dict[str, _Welford] = {}

    def push(name: str, value: float):
        if not math.isnan(value):
            accumulators.setdefault(name, _Welford()).add(value)

    for record in records:
        if not record.pd_ok:
            continue
        for eps, value in record.ground_renyi.items():
            push(f"ground_renyi[{eps_label(eps)}]", value)
        push("log_negativity", record.log_negativity)
        push("excited_computed_bound", record.excited_computed_bound)
        push("excited_theorem_bound", record.excited_theorem_bound)
        push("gs_correlator_bound", record.gs_correlator_bound)
        push("ensemble_bound", record.ensemble_bound)
        push("mu_max", record.mu_max)
    return {name: acc.stats() for name, acc in accumulators.items()}


def area_law_fit(results):
    """Least-squares slopes of the mean excited bound vs boundary and log size.

    Needs at least three distinct region sizes. Any object with
    ``boundary_size``, ``region_size`` and ``excited_theorem_mean`` works.
    """
    results = list(results)
    sizes = {r.region_size for r in results}
    if len(sizes) < 3:
        raise ValueError(f"need >= 3 region sizes, have {len(sizes)}")
    y = np.array([r.excited_theorem_mean for r in results])
    _, *vs_boundary = line_fit(np.array([float(r.boundary_size) for r in results]), y)
    _, *vs_log = line_fit(np.array([math.log(r.region_size) for r in results]), y)
    return AreaLawFit(*vs_boundary, *vs_log)


@dataclass(frozen=True)
class AreaLawFit:
    """Slopes, slope standard errors and RMS residuals of the scaling fits."""

    slope_vs_boundary: float
    slope_vs_boundary_se: float
    residual_vs_boundary: float
    slope_vs_log_size: float
    slope_vs_log_size_se: float
    residual_vs_log_size: float


CSV_HEADER = (
    "realization_index,lattice_size,region_size,boundary_size,eps,"
    "E_eps_ground,log_negativity,excited_k,excited_computed_bound,"
    "excited_theorem_bound,gs_correlator_bound_p,pd_ok"
)


def _fmt(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.15g}"


def write_records_csv(results, path):
    """One CSV over all scans: one row per (realization, eps), sorted."""
    if isinstance(results, ScanResult):
        results = [results]
    lines = [CSV_HEADER]
    for result in results:
        for record in sorted(result.records, key=lambda r: r.index):
            eps_list = result.config.eps_values if record.pd_ok else result.config.eps_values[:1]
            for eps in eps_list:
                value = record.ground_renyi.get(eps, math.nan)
                excited_k = str(record.excited_mode) if record.excited_mode > 0 else ""
                lines.append(
                    ",".join(
                        [
                            str(record.index),
                            str(result.lattice_size),
                            str(result.region_size),
                            str(result.boundary_size),
                            eps_label(eps),
                            _fmt(value),
                            _fmt(record.log_negativity),
                            excited_k,
                            _fmt(record.excited_computed_bound),
                            _fmt(record.excited_theorem_bound),
                            _fmt(record.gs_correlator_bound),
                            "1" if record.pd_ok else "0",
                        ]
                    )
                )
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write(text)
    return text


def write_aggregates_json(results, path):
    """Aggregate means and standard errors, one entry per scan."""
    if isinstance(results, ScanResult):
        results = [results]
    payload = []
    for result in results:
        payload.append(
            {
                "lattice_size": result.lattice_size,
                "region_size": result.region_size,
                "boundary_size": result.boundary_size,
                "realizations": result.config.realizations,
                "failed_pd": result.failed_pd,
                "aggregates": result.aggregates,
                "empirical_area_bound": result.empirical_area_bound,
            }
        )
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w", newline="\n") as handle:
        handle.write(text + "\n")
    return text


def write_scaling_data(results, path):
    """Gnuplot-style whitespace table of mean quantities per region size."""
    if isinstance(results, ScanResult):
        results = [results]
    lines = [
        "# region_size boundary_size log_region_size mean_half_renyi "
        "mean_excited_computed_bound mean_excited_theorem_bound"
    ]
    for result in sorted(results, key=lambda r: r.region_size):
        half = result.aggregates.get("log_negativity")
        computed = result.aggregates.get("excited_computed_bound")
        theorem = result.aggregates.get("excited_theorem_bound")
        lines.append(
            " ".join(
                [
                    str(result.region_size),
                    str(result.boundary_size),
                    f"{math.log(result.region_size):.15g}",
                    f"{half['mean']:.15g}" if half else "nan",
                    f"{computed['mean']:.15g}" if computed else "nan",
                    f"{theorem['mean']:.15g}" if theorem else "nan",
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write(text)
    return text
