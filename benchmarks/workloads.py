"""Workload definitions: which CLI command runs, on which generated config.

A workload is a sequence of operations. Operation ``i`` of a run with
workload seed ``seed`` is one ``oscent`` CLI command whose config and master
seed are pure functions of ``(seed, i)``, so the same seed always replays the
same inputs. Every operation draws fresh disorder, so a result cached from an
earlier operation never answers a later one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 2024

# Workload seeds must leave room for the operation index in the 64-bit
# master seed that the program accepts.
SEED_LIMIT = 2**40
_OP_BITS = 20

COMMON = {"disorder": {"k_max": 8.0}, "eps": [0.5, 1.0], "p": 1.0, "s": 0.5}

CHAIN_LENGTH = 160
CHAIN_WINDOWS = (4, 8, 16, 32, 64)
SINGLE_SHOT_LENGTH = 400
SINGLE_SHOT_WINDOW = 16
EXCITED_MODES = 64
CORRELATOR_REALIZATIONS = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``units`` is the number of region-realizations one operation computes:
    realizations times regions for a scan, the ensemble size for
    ``correlators`` and one for the other single-shot commands.
    """

    name: str
    command: str
    why: str
    config: dict
    units: int

    @property
    def is_scan(self) -> bool:
        return self.command == "scan"


def _centred(length: int, window: int) -> dict:
    return {"corner": [(length - window) // 2], "lengths": [window]}


def _scan(realizations: int, geometry: dict, regions: int) -> tuple[dict, int]:
    config = dict(
        COMMON,
        **geometry,
        realizations=realizations,
        excitations="all",
        fit_decay=True,
    )
    return config, realizations * regions


def _single_shot(**extra) -> dict:
    return dict(
        COMMON,
        dimension=1,
        lengths=[SINGLE_SHOT_LENGTH],
        region=_centred(SINGLE_SHOT_LENGTH, SINGLE_SHOT_WINDOW),
        **extra,
    )


_CHAIN, _CHAIN_UNITS = _scan(
    4,
    {
        "dimension": 1,
        "lengths": [CHAIN_LENGTH],
        "regions": [_centred(CHAIN_LENGTH, w) for w in CHAIN_WINDOWS],
    },
    len(CHAIN_WINDOWS),
)
_BULK, _BULK_UNITS = _scan(
    4,
    {"dimension": 3, "lengths": [8, 8, 8], "region": {"corner": [2, 2, 2], "lengths": [4, 4, 4]}},
    1,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "area-law-chain",
            "scan",
            "1d chain L=160, five centred windows: Python-side assembly, GIL-bound pool, "
            "one re-diagonalisation per region",
            _CHAIN,
            _CHAIN_UNITS,
        ),
        Workload(
            "bulk-3d",
            "scan",
            "8x8x8 box, one 4x4x4 region: dense O(n^3) linear algebra at n=512 and a "
            "3d decay fit; one region, so cross-region reuse gets no work",
            _BULK,
            _BULK_UNITS,
        ),
        Workload(
            "single-shot-ground",
            "ground-entropy",
            "interactive ground-entropy on a 400-site chain: assembly plus one "
            "decomposition, latency-bound",
            _single_shot(),
            1,
        ),
        Workload(
            "single-shot-excited",
            "excited-entropy",
            "excited-entropy over the 64 lowest of 400 modes: one excitation_profile "
            "per mode, each rebuilding all modes; the scans bypass it",
            _single_shot(excitations={"k_range": [1, EXCITED_MODES]}),
            1,
        ),
        Workload(
            "single-shot-correlators",
            "correlators",
            "serial correlator ensemble on a 400-site chain plus a 160k-row CSV, "
            "which the scans never write",
            _single_shot(realizations=CORRELATOR_REALIZATIONS),
            CORRELATOR_REALIZATIONS,
        ),
    )
}


def check_seed(seed: int) -> int:
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"workload seed must lie in [0, 2**40), got {seed}")
    return seed


def op_seed(seed: int, index: int) -> int:
    """Master seed of operation ``index``: distinct for every (seed, index)."""
    return (check_seed(seed) << _OP_BITS) + index


def op_config(workload: Workload, index: int) -> dict:
    """Config of operation ``index``; single-shot commands step the realization."""
    if workload.is_scan:
        return workload.config
    return dict(workload.config, realization_index=index)


def op_argv(workload: Workload, seed: int, index: int, config_path, out_dir, threads: int) -> list[str]:
    """Arguments for ``oscent.cli.main`` that run operation ``index``."""
    return [
        workload.command,
        "--config", str(config_path),
        "--out", str(out_dir),
        "--seed", str(op_seed(seed, index)),
        "--threads", str(threads),
    ]


def write_config(workload: Workload, index: int, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(op_config(workload, index), indent=2, sort_keys=True) + "\n")
    return path
