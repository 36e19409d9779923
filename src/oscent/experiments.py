"""Run configs, disorder Monte Carlo scans, aggregation and scaling fits.

``ExperimentConfig`` is the one config schema of every command, and
``coupling_matrix`` the one place a config becomes a coupling matrix.

A scan draws independent spring realizations, computes entropies and bounds
for each, and aggregates with deterministic (Welford, index-ordered)
accumulation, so the output is byte-identical no matter how many worker
threads ran the realizations. The correlator ensemble runs its realizations
on the same pool. The worker threads are the only compute threads: the
eigensolves release the GIL, and the OpenBLAS libraries mapped when
``oscent.lapack`` bound its routines (the ones the pool computes with) are
pinned to one thread while the pool runs.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from collections import deque
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .correlators import DecayFit, MomentSum, correlator_table, fit_decay_constant, ground_state_correlator_bound, line_fit, mean_moment_by_distance, require_fit_distances, require_norm_bound
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
from .spectral import BipartitionBlocks, RegionBlocks, SpectralData, decompose, eigensystem, partition_blocks, region_blocks, spd_sqrt, symplectic_spectrum

_DISORDER_KEYS = frozenset({"k_max", "kind"})
_REGION_KEYS = frozenset({"corner", "lengths", "sites"})


def _check_keys(entry, allowed, where: str) -> dict:
    """A JSON object whose keys are all ``allowed``; raises ValueError otherwise."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a JSON object, got {entry!r}")
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; allowed: {sorted(allowed)}")
    return entry


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    """A setting that must be an integer (a bool is not one); raises ValueError otherwise."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _array(values, name: str) -> tuple:
    """A setting that must be a list (or tuple), as a tuple; raises ValueError otherwise."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {values!r}")
    return tuple(values)


def _integers(values, name: str) -> tuple[int, ...]:
    return tuple(_integer(value, name) for value in _array(values, name))


def _string(value, name: str) -> str:
    """A setting that must be a string; raises ValueError otherwise."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A setting that must be a finite real (a bool, a string, an inf or a NaN is not one); raises ValueError otherwise."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def eps_label(eps: float) -> str:
    """The name of an eps in every output: its ``records.csv`` column and its ``ground_renyi[...]`` aggregate key."""
    return f"{eps:.15g}"


def parse_excitations(entry, modes: int) -> str | tuple[int, int]:
    """Read an excitation policy: the one policy parser.

    Accepts "all", "none", {"k_range": [lo, hi]} (its config form) or the
    tuple (lo, hi), with integer bounds 1 <= lo <= hi <= ``modes``, and
    returns "all", "none" or (lo, hi); raises ValueError on anything else.
    """
    if entry in ("all", "none"):
        return entry
    bounds = entry.get("k_range") if isinstance(entry, dict) and len(entry) == 1 else entry if isinstance(entry, tuple) else None
    if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2 and all(_is_integer(b) for b in bounds)):
        raise ValueError(f"unknown excitation policy {entry!r}: use \"all\", \"none\" or {{\"k_range\": [lo, hi]}} with integer bounds")
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
class RegionSpec:
    """One region of a config: a box (``corner`` + ``lengths``) or explicit ``sites``, held as integer tuples."""

    corner: tuple[int, ...] | None = None
    lengths: tuple[int, ...] | None = None
    sites: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        given = (self.corner is not None, self.lengths is not None, self.sites is not None)
        if given not in ((True, True, False), (False, False, True)):
            raise ValueError("region needs sites or corner + lengths, not both")
        if self.sites is not None:
            object.__setattr__(self, "sites", tuple(_integers(site, "region.sites") for site in _array(self.sites, "region.sites")))
        else:
            object.__setattr__(self, "corner", _integers(self.corner, "region.corner"))
            object.__setattr__(self, "lengths", _integers(self.lengths, "region.lengths"))

    def to_dict(self) -> dict:
        if self.sites is not None:
            return {"sites": [list(s) for s in self.sites]}
        return {"corner": list(self.corner), "lengths": list(self.lengths)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run (a scan of its ``regions``, or a single-realization command) byte for byte.

    The one config schema: each field is a config key (``k_max`` is read
    from ``disorder``, ``regions`` from ``region`` or ``regions``) with its
    one default. ``__post_init__`` checks every setting however the config
    was built, holds arrays as tuples and reals as floats, and builds the
    config's ``lattice`` and ``lattice_regions``, which live as long as it.
    """

    dimension: int
    lengths: tuple[int, ...]
    regions: tuple[RegionSpec, ...] = ()
    k_max: float = 1.0
    realizations: int = 1
    eps: tuple[float, ...] = (0.5, 1.0)
    excitations: str | tuple[int, int] = "all"
    p: float = 1.0
    s: float = 0.5
    seed: int = 0
    threads: int | None = None
    fit_decay: bool = False
    coupling: str = "nearest"  # "nearest" or "none" (springs only, decoupled)
    realization_index: int = 0  # the realization single-realization commands use
    matrix_csv: str | None = None  # a fixed coupling matrix instead of disorder
    bound: float | None = None  # norm bound D on ||h^{1/2}||; see ``norm_bound``

    def __post_init__(self):
        def put(name: str, value):
            object.__setattr__(self, name, value)

        for name in ("dimension", "realizations", "seed", "realization_index"):
            put(name, _integer(getattr(self, name), name))
        put("lengths", _integers(self.lengths, "lengths"))
        if self.dimension < 1 or len(self.lengths) != self.dimension or min(self.lengths) < 1:
            raise ValueError(f"need {self.dimension} >= 1 positive side lengths, got {self.lengths}")
        if self.realizations < 1 or self.realization_index < 0:
            raise ValueError("need realizations >= 1 and realization_index >= 0")
        put("k_max", _number(self.k_max, "disorder.k_max"))
        DisorderModel(k_max=self.k_max, seed=self.seed)  # checks k_max > 0 and the seed
        put("eps", tuple(_number(e, "eps") for e in _array(self.eps, "eps")))
        if not self.eps:
            raise ValueError("eps needs at least one value")
        if not all(EPS_MIN <= e <= 1.0 for e in self.eps):
            raise ValueError(f"every eps must lie in [{EPS_MIN!r}, 1], got {self.eps}")
        if len({eps_label(e) for e in self.eps}) < len(self.eps):
            raise ValueError(f"eps values must differ in their 15-digit labels, got {self.eps}")
        for name in ("p", "s"):
            put(name, _number(getattr(self, name), name))
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        for name, check in (("threads", _integer), ("bound", _number), ("matrix_csv", _string)):
            if getattr(self, name) is not None:  # None: not set
                put(name, check(getattr(self, name), name))
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.bound is not None and not self.bound > 0:
            raise ValueError(f"bound must be positive, got {self.bound}")
        if not isinstance(self.fit_decay, bool):
            raise ValueError(f"fit_decay must be true or false, got {self.fit_decay!r}")
        if _string(self.coupling, "coupling") not in ("nearest", "none"):
            raise ValueError(f"unknown coupling kind {self.coupling!r}")
        put("excitations", parse_excitations(self.excitations, math.prod(self.lengths)))
        put("regions", _array(self.regions, "regions"))
        if not (self.regions and all(isinstance(region, RegionSpec) for region in self.regions)):
            raise ValueError(f"regions must be a non-empty list of regions, got {self.regions!r}")
        self.lattice_regions  # builds the lattice and every region on it, which checks the regions

    @cached_property
    def lattice(self) -> Lattice:
        """The config's box, built once."""
        return build_box(self.dimension, self.lengths)

    @cached_property
    def lattice_regions(self) -> tuple[Region, ...]:
        """The config's regions on its lattice, built once; raises ValueError for a region that is empty, leaves the lattice or is all of it."""
        regions = tuple(
            make_region(self.lattice, spec.sites) if spec.sites is not None else box_region(self.lattice, spec.corner, spec.lengths)
            for spec in self.regions
        )
        if any(region.size == self.lattice.size for region in regions):
            raise ValueError("region equals the whole lattice; the complement is empty")
        return regions

    @property
    def norm_bound(self) -> float:
        """The configured ``bound``, or the spring model's sqrt(4d + k_max)."""
        return self.bound if self.bound is not None else anderson_norm_bound(self.dimension, self.k_max)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Parse a JSON config: unknown keys, both ``region`` and ``regions`` and a bad value raise ValueError.

        Unnests ``disorder.k_max`` and ``region`` (a ``regions`` of one);
        ``__post_init__`` checks every value.
        """
        _check_keys(raw, _CONFIG_KEYS, "config")
        if "region" in raw and "regions" in raw:
            raise ValueError("config has both region and regions; give one")
        disorder = raw.get("disorder") or {}
        _check_keys(disorder, _DISORDER_KEYS, "disorder")
        if disorder.get("kind", "uniform") != "uniform":
            raise ValueError(f"unknown disorder kind {disorder['kind']!r}")
        if "k_max" not in disorder and raw.get("matrix_csv") is None:
            raise ValueError("config needs disorder.k_max or matrix_csv")
        settings = {key: value for key, value in raw.items() if key not in ("disorder", "region")}
        regions = raw["regions"] if "regions" in raw else [raw.get("region") or {}]
        settings["regions"] = tuple(RegionSpec(**_check_keys(region, _REGION_KEYS, "region")) for region in _array(regions, "regions"))
        if "k_max" in disorder:
            settings["k_max"] = disorder["k_max"]
        return ExperimentConfig(**settings)

    def to_dict(self) -> dict:
        """The JSON form of the config, with ``k_max`` nested in ``disorder``; ``from_dict`` reads it back."""
        settings = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "k_max"}
        return dict(
            settings,
            lengths=list(self.lengths),
            regions=[region.to_dict() for region in self.regions],
            disorder={"kind": "uniform", "k_max": self.k_max},
            eps=list(self.eps),
            excitations=_excitations_entry(self.excitations),
        )


# The config schema: every key ``ExperimentConfig.from_dict`` reads, and
# nothing else. ``disorder.kind`` is accepted because ``to_dict`` writes it.
_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig)) - {"k_max"} | {"disorder", "region"}


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
    """Records plus deterministic aggregates for one region of a scan."""

    config: ExperimentConfig
    lattice_size: int
    region_size: int
    boundary_size: int
    records: list[RealizationRecord]
    aggregates: dict
    failed_pd: int
    decay: DecayFit | None = None
    empirical_area_bound: dict | None = None
    execution: dict | None = None  # pool threads, the pinned OpenBLAS the binding computes with, BLAS threads in the pool

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


def coupling_matrix(config: ExperimentConfig, index: int) -> CouplingMatrix:
    """The coupling matrix h of realization ``index`` of a config, on its lattice.

    The config's ``matrix_csv`` if it names one; otherwise springs drawn
    from its disorder model, coupled to nearest neighbors or not at all
    according to ``coupling``.
    """
    lattice = config.lattice
    if config.matrix_csv is not None:
        return load_matrix_csv(config.matrix_csv, lattice)
    springs = sample_springs(DisorderModel(k_max=config.k_max, seed=config.seed), lattice, index)
    if config.coupling == "nearest":
        return assemble_anderson(lattice, springs)
    return CouplingMatrix(matrix=np.diag(springs), lattice=lattice)


def checked_realization(config: ExperimentConfig, index: int) -> tuple[AssumptionReport, SpectralData | None]:
    """Realization ``index`` of a config from one decomposition of its h.

    Returns the validate_coupling report of h against the config's norm
    bound, and its eigensystem, which is None unless h is positive definite.
    h itself is dropped once decomposed.
    """
    data = decompose(coupling_matrix(config, index))
    report = validate_coupling(data, config.norm_bound)
    return report, eigensystem(data) if report.is_positive_definite else None


def definite_realization(config: ExperimentConfig, index: int) -> SpectralData:
    """The eigensystem of realization ``index``; raises ValueError unless its h is positive definite."""
    report, data = checked_realization(config, index)
    if data is None:
        raise ValueError(f"coupling matrix is not positive definite (smallest eigenvalue {report.smallest_eigenvalue:.3e})")
    return data


def region_report(config: ExperimentConfig, data: SpectralData, blocks: BipartitionBlocks | RegionBlocks, modes) -> EntropyReport:
    """The entropies and bounds of one region of a realization.

    ``modes`` lists the 1-based excitations whose bounds the report holds;
    their weight rows come from excitation_weights, which needs the
    BipartitionBlocks of partition_blocks and checks every mode's identities
    whether selected or not. A report without excitations takes either kind
    of blocks.
    """
    spectrum = symplectic_spectrum(blocks)
    weights = excitation_weights(data, blocks, spectrum)[np.asarray(modes, dtype=int) - 1] if modes else None
    return entropy_report(spectrum, config.eps, modes, weights, lattice_size=data.size)


def region_reports(config: ExperimentConfig, data: SpectralData, modes) -> list[EntropyReport]:
    """The region report of each of a config's regions on one realization, holding the bounds of excitations ``modes``.

    The one place a report's route is chosen. Without excitations, each
    region's spectrum comes from its region_blocks: the region rows of the
    eigenvectors, no h^{1/2} and no complement block. With excitations, the
    regions take partition_blocks of one h^{1/2}, dropped once every region
    has its blocks: the computed excited bound reads the symplectic mode
    frame, which is free inside a cluster of near-equal mu, and the region
    route would pick another frame there and move the bound.
    """
    regions = config.lattice_regions
    if not modes:
        return [region_report(config, data, region_blocks(data, region), modes) for region in regions]
    hsqrt = spd_sqrt(data)
    blocks = [partition_blocks(hsqrt, region) for region in regions]
    del hsqrt
    return [region_report(config, data, each, modes) for each in blocks]


def run_scan(config: ExperimentConfig) -> list[ScanResult]:
    """Run the disorder scan of a config: one result per region, deterministic given the config (incl. seed).

    Each disorder realization is sampled, checked and decomposed once (h,
    its eigensystem, h^{1/2} where excitations need it and the h^{-1/2}
    correlator table) and every region derives its record from that shared
    decomposition, so each result is byte-identical to a scan of its region
    alone. The decay fit, which depends only on the lattice, runs once and
    is shared.

    Realizations are reduced in index order as they finish, with at most
    two per pool thread in flight, so memory does not grow with the number
    of realizations. Inside one, each n x n array is dropped before the
    next is made: h once decomposed, h^{1/2} (made only with excitations,
    see region_reports) once every region has its blocks, the blocks once
    every region has its report; the correlator table's moment is made in
    the table's own array. With ``fit_decay`` a worker returns its
    realization's distance-bin means (``mean_moment_by_distance``), one
    number per distance, never its moment matrix; the reduction adds them
    in index order and divides by the count once, and the fit reads those
    averages. They equal the bins of the ensemble mean matrix up to
    roundoff, not bit for bit.

    Realizations failing the positive-definiteness check are recorded with
    pd_ok = False and excluded from every aggregate; the first realization
    must pass (anything else means the config itself is bad). With
    ``fit_decay``, a lattice too small for a decay fit raises ValueError
    before any realization.
    """
    lattice, regions = config.lattice, config.lattice_regions
    if config.fit_decay:
        require_fit_distances(lattice)
    bound = config.norm_bound
    modes = selected_modes(config.excitations, lattice.size)

    def worker(index: int):
        data = checked_realization(config, index)[1]
        if data is None:
            return [RealizationRecord(index=index, pd_ok=False) for _ in regions], None
        reports = region_reports(config, data, modes)
        table = correlator_table(lattice, data)
        records = [
            RealizationRecord.of(index, report, ground_state_correlator_bound(table, region, config.p, bound))
            for report, region in zip(reports, regions)
        ]
        if not config.fit_decay:
            return records, None
        moment = table.values
        moment **= config.s
        return records, mean_moment_by_distance(moment, lattice)

    rows = []  # rows[index][position]: the record of realization ``index`` for region ``position``
    bin_sums = {}  # distance: the bin means of the positive-definite realizations, added in index order

    def reduce(result):
        records, means = result
        rows.append(records)
        if means is not None:
            for r, mean in means.items():
                bin_sums[r] = bin_sums.get(r, 0.0) + mean

    execution = _run_pooled(worker, config.realizations, config.threads, reduce)

    if not rows[0][0].pd_ok:
        raise ValueError("first realization failed the positive-definiteness check")
    failed = sum(1 for row in rows if not row[0].pd_ok)
    if failed == len(rows):
        raise ValueError("every realization failed the positive-definiteness check")

    decay = constant = None
    if bin_sums:
        used = len(rows) - failed
        by_distance = {r: total / used for r, total in bin_sums.items()}
        decay, constant = fit_decay_constant(by_distance, lattice, config.s, bound)

    results = []
    for position, region in enumerate(regions):
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
                config=config,
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


def correlator_ensemble(config: ExperimentConfig) -> tuple[np.ndarray, dict]:
    """The mean moment matrix E|<delta_j, h^{-1/2} delta_k>|^s over a config's realizations, and the pool's ``execution``.

    Realizations run on the scan's pool and their moment matrices are
    summed in index order, so the mean is byte-identical for every pool size
    and BLAS thread count. The ``correlators`` command writes this matrix
    and fits the bins of it (``mean_moment_by_distance``); a scan reduces
    per-realization bin means instead and needs no matrix.
    Raises ValueError before any realization if the lattice is too small
    for a decay fit, and at the first realization, in index order, whose h
    is not positive definite or whose ||h^{1/2}|| exceeds the norm bound.
    """
    require_fit_distances(config.lattice)

    def worker(index: int) -> np.ndarray:
        table = correlator_table(config.lattice, definite_realization(config, index))
        moment = require_norm_bound(table, config.norm_bound).values
        moment **= config.s
        return moment

    moments = MomentSum()
    execution = _run_pooled(worker, config.realizations, config.threads, moments.add)
    return moments.mean(), execution


def _run_pooled(worker, count: int, threads: int | None, reduce) -> dict:
    """``reduce(worker(index))`` for index 0, ..., ``count - 1``, the workers on a pool, the reduction in index order.

    The pool has ``threads`` workers (default: the CPUs this process may
    run on), with at most two realizations per thread in flight. The
    OpenBLAS libraries mapped when ``oscent.lapack`` bound its routines, the
    ones the workers compute with, are pinned to one thread at every pool
    size, so no result depends on the environment's BLAS threads; the pool
    exits (all workers done) before the pin. Returns the ``execution``
    record: pool threads, pinned BLAS libraries and their threads in the pool.
    """
    from concurrent.futures import ThreadPoolExecutor  # not at import: most commands run no pool

    threads = threads or _usable_cpus()
    with single_blas_thread() as blas, ThreadPoolExecutor(max_workers=threads) as pool:
        for result in _in_index_order(pool, worker, count, 2 * threads):
            reduce(result)
            del result  # reduced: not held while the next one is awaited
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

    Needs at least three distinct region sizes, each with a mean excited
    theorem bound: a scan without excitations, or with a one-site region,
    raises ValueError. Any object with ``boundary_size``, ``region_size``
    and ``excited_theorem_mean`` works.
    """
    results = list(results)
    sizes = {r.region_size for r in results}
    if len(sizes) < 3:
        raise ValueError(f"need >= 3 region sizes, have {len(sizes)}")
    y = np.array([r.excited_theorem_mean for r in results])
    lacking = sorted({r.region_size for r, value in zip(results, y) if math.isnan(value)})
    if lacking:
        raise ValueError(f"area_law_fit fits the excited theorem bound, and the scan has none at region sizes {lacking}")
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
    """One CSV over the results of a scan: one row per (region, realization, eps), sorted."""
    lines = [CSV_HEADER]
    for result in results:
        for record in sorted(result.records, key=lambda r: r.index):
            eps_list = result.config.eps if record.pd_ok else result.config.eps[:1]
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
    """Aggregate means and standard errors, one entry per region of a scan."""
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
