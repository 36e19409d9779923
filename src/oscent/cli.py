"""Command-line entry point for batch runs.

Subcommands: ground-entropy, excited-entropy, ensemble-bound, correlators,
scan, verify. Every run resolves its configuration (the JSON file, whose
``seed`` and ``threads`` the ``--seed`` and ``--threads`` flags override),
writes a manifest sufficient to reproduce the outputs byte for byte, and
exits 0 on success, 1 on computation failure, 2 on usage or configuration
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .correlators import correlator_csv, fit_decay_constant, mean_moment_by_distance, require_fit_distances
from .entanglement import require_ensemble_hypothesis
from .experiments import (
    ExperimentConfig,
    correlator_ensemble,
    definite_realization,
    region_reports,
    run_scan,
    selected_modes,
    write_aggregates_json,
    write_records_csv,
    write_scaling_data,
)
from .hamiltonian import MatrixFileError
from .lapack import lapack_versions

USAGE_ERROR = 2
COMPUTE_ERROR = 1


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="oscent",
        description="entanglement entropies and bounds for disordered oscillator lattices",
    )
    parser.add_argument("--version", action="version", version=f"oscent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("ground-entropy", "excited-entropy", "ensemble-bound", "correlators", "scan"):
        p = sub.add_parser(name, allow_abbrev=False)  # so --s is not read as --seed
        p.add_argument("--config", type=str, required=True, help="JSON config path")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="override the config's threads")
        p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    verify = sub.add_parser("verify", allow_abbrev=False)
    verify.add_argument("--out", type=str, default=None, help="output directory")
    verify.add_argument("--tolerance", type=float, default=1e-8, help="positive, finite identity tolerance")
    return parser


def parse_args(argv):
    return _parser().parse_args(argv)


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise UsageError(f"config is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise UsageError(f"config must be a JSON object, got {raw!r}")
    return raw


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path("oscent-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run(args, entries: dict, versions: dict, files=None) -> Path:
    """Write manifest.json and ``files`` to the output directory.

    The manifest holds the command, ``entries`` and the versions of oscent,
    numpy, python and ``versions``: what else computed the outputs.
    """
    manifest = {
        "command": args.command,
        **entries,
        "versions": {
            "oscent": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            **versions,
        },
    }
    out = _out_dir(args)
    files = {"manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n", **(files or {})}
    for name, text in files.items():
        with open(out / name, "w", newline="\n") as handle:
            handle.write(text)
    return out


def _write_outputs(args, config: ExperimentConfig, files=None, execution=None) -> Path:
    """``_write_run`` with the resolved config, the seed and a pool's ``execution`` in the manifest.

    A scan's manifest names its ``regions``; a single-realization command's its one ``region``.
    """
    resolved = config.to_dict()
    if args.command != "scan":
        (resolved["region"],) = resolved.pop("regions")
    entries = {"config": resolved, "seed": None if config.matrix_csv is not None else config.seed}
    if execution is not None:
        entries["execution"] = execution
    return _write_run(args, entries, lapack_versions(), files)


def _config(args) -> ExperimentConfig:
    """The parsed config with the flags applied."""
    resolved = _load_config(args.config)
    flags = {"seed": args.seed, "threads": args.threads}
    resolved.update((key, value) for key, value in flags.items() if value is not None)
    try:
        config = ExperimentConfig.from_dict(resolved)
    except (TypeError, ValueError) as err:  # TypeError: a required key is missing
        raise UsageError(f"bad config: {err}")
    if args.command != "scan" and "regions" in resolved:
        raise UsageError("regions is read by scan only; give one region")
    if args.command in ("scan", "correlators") and config.matrix_csv is not None:
        raise UsageError(f"{args.command} averages over disorder; matrix_csv is for single realizations")
    if args.command == "correlators" or (args.command == "scan" and config.fit_decay):
        try:
            require_fit_distances(config.lattice)
        except ValueError as err:
            raise UsageError(f"bad config: {err}")
    return config


def _region_report(config: ExperimentConfig, modes=()):
    """The report of the one region of a single-realization command, holding the bounds of excitations ``modes``."""
    try:
        data = definite_realization(config, config.realization_index)
    except (OSError, MatrixFileError) as err:
        raise UsageError(f"bad matrix_csv: {err}")
    return region_reports(config, data, modes)[0]


def _cmd_ground_entropy(args) -> int:
    config = _config(args)
    report = _region_report(config)
    _write_outputs(args, config, {"ground_entropy.json": report.to_json() + "\n"})
    for eps, value in zip(report.eps, report.ground_renyi):
        print(f"eps={eps:g} renyi_entropy={value:.15g}")
    print(f"von_neumann={report.von_neumann:.15g}")
    print(f"log_negativity={report.log_negativity:.15g}")
    return 0


def _cmd_excited_entropy(args) -> int:
    config = _config(args)
    report = _region_report(config, selected_modes(config.excitations, config.lattice.size))
    _write_outputs(args, config, {"excited_bounds.json": report.to_json() + "\n"})
    for mode, computed, theorem in zip(
        report.excited_modes, report.excited_computed_bounds, report.excited_theorem_bounds
    ):
        print(f"mode={mode} computed_bound={computed:.15g} theorem_bound={theorem:.15g}")
    return 0


def _cmd_ensemble_bound(args) -> int:
    config = _config(args)
    lattice, (region,) = config.lattice, config.lattice_regions
    require_ensemble_hypothesis(lattice.size, region.size)
    value = _region_report(config).ensemble_bound
    payload = {"ensemble_bound": value, "lattice_size": lattice.size, "region_size": region.size}
    _write_outputs(args, config, {"ensemble.json": json.dumps(payload, indent=2, sort_keys=True) + "\n"})
    print(f"ensemble_bound={value:.15g}")
    return 0


def _cmd_correlators(args) -> int:
    config = _config(args)
    mean_moment, execution = correlator_ensemble(config)
    fit, constant = fit_decay_constant(mean_moment_by_distance(mean_moment, config.lattice), config.lattice, config.s, config.norm_bound)
    payload = {
        "eta": fit.eta,
        "prefactor": fit.prefactor,
        "s": fit.s,
        "residual": fit.residual,
        "distances": list(fit.distances),
        "area_law_constant": constant,
    }
    decay = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = _write_outputs(args, config, {"decay.json": decay}, execution=execution)
    with open(out / "correlators.csv", "wb") as handle:
        correlator_csv(mean_moment, config.lattice, handle)
    print(f"eta={fit.eta:.15g} prefactor={fit.prefactor:.15g} residual={fit.residual:.3e}")
    return 0


def _cmd_scan(args) -> int:
    config = _config(args)
    results = run_scan(config)
    out = _write_outputs(args, config, execution=results[0].execution)
    write_records_csv(results, out / "records.csv")
    write_aggregates_json(results, out / "aggregates.json")
    write_scaling_data(results, out / "scaling.dat")
    for result in results:
        print(
            f"region_size={result.region_size} boundary={result.boundary_size} "
            f"used={result.config.realizations - result.failed_pd} failed_pd={result.failed_pd}"
        )
    return 0


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise UsageError(f"tolerance must be positive and finite, got {args.tolerance}")
    import scipy

    from .oracle import verify_report  # the oracle and scipy serve verify alone

    rows = verify_report(tolerance=args.tolerance)
    width = max(len(r.name) for r in rows)
    failures = 0
    print(f"{'identity':<{width}}  {'worst':>12}  {'tolerance':>10}  status")
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        failures += 0 if row.passed else 1
        print(f"{row.name:<{width}}  {row.worst:12.3e}  {row.tolerance:10.1e}  {status}")
    if args.out:
        payload = [
            {"name": r.name, "worst": r.worst, "tolerance": r.tolerance, "passed": r.passed}
            for r in rows
        ]
        _write_run(
            args, {"tolerance": args.tolerance}, {"scipy": scipy.__version__},
            {"verify.json": json.dumps(payload, indent=2, sort_keys=True) + "\n"},
        )
    return 0 if failures == 0 else 1


_COMMANDS = {
    "ground-entropy": _cmd_ground_entropy,
    "excited-entropy": _cmd_excited_entropy,
    "ensemble-bound": _cmd_ensemble_bound,
    "correlators": _cmd_correlators,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def execute(args) -> int:
    """Dispatch a parsed command; exceptions become exit codes."""
    try:
        return _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return COMPUTE_ERROR


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return execute(args)


if __name__ == "__main__":
    sys.exit(main())
