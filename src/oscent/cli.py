"""Command-line entry point for batch runs.

Subcommands: ground-entropy, excited-entropy, ensemble-bound, correlators,
scan, verify. Every run resolves its configuration (JSON file plus flag
overrides), writes a manifest sufficient to reproduce the outputs byte for
byte, and exits 0 on success, 1 on computation failure, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .correlators import _fit_binned, area_law_constant, correlator_csv
from .entanglement import (
    entropy_report,
    excitation_profiles,
    single_excitation_ensemble_bound,
)
from .experiments import (
    ExperimentConfig,
    parse_excitations,
    run_scans,
    selected_modes,
    write_aggregates_json,
    write_records_csv,
    write_scaling_data,
)
from .hamiltonian import (
    DisorderModel,
    anderson_norm_bound,
    assemble_anderson,
    load_matrix_csv,
    sample_springs,
    validate_coupling,
)
from .lattice import box_region, build_box, make_region
from .oracle import verify_report
from .spectral import eigensystem, partition_blocks, spd_inv_sqrt, spd_sqrt, symplectic_spectrum

USAGE_ERROR = 2
COMPUTE_ERROR = 1


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="oscent",
        description="entanglement entropies and bounds for disordered oscillator lattices",
    )
    parser.add_argument("--version", action="version", version=f"oscent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        p.add_argument("--config", type=str, required=needs_config, help="JSON config path")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--eps", type=str, default=None, help="comma-separated eps list")
        p.add_argument("--p", dest="p_value", type=float, default=None)
        p.add_argument("--s", dest="s_value", type=float, default=None)
        p.add_argument("--tolerance", type=float, default=None)

    for name in ("ground-entropy", "excited-entropy", "ensemble-bound", "correlators", "scan"):
        add_common(sub.add_parser(name))
    verify = sub.add_parser("verify")
    add_common(verify, needs_config=False)
    return parser.parse_args(argv)


def _parse_eps(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse eps list {text!r}")
    for v in values:
        if not 0.0 < v <= 1.0:
            raise UsageError(f"eps must lie in (0, 1], got {v}")
    return values


def _load_config(path: str) -> dict:
    if path is None:
        raise UsageError("this command requires --config")
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise UsageError(f"config is not valid JSON: {err}")


def _resolve_threads(args) -> int | None:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("OSCENT_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"OSCENT_THREADS is not an integer: {env!r}")
    return None


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path("oscent-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, resolved: dict, seed):
    manifest = {
        "command": command,
        "config": resolved,
        "seed": seed,
        "versions": {
            "oscent": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    with open(out / "manifest.json", "w", newline="\n") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _build_system(cfg: dict, args):
    """Lattice, region and one coupling matrix from a single-realization config."""
    try:
        lattice = build_box(int(cfg["dimension"]), cfg["lengths"])
        region_cfg = cfg.get("region", {})
        if "sites" in region_cfg:
            region = make_region(lattice, [tuple(s) for s in region_cfg["sites"]])
        else:
            region = box_region(lattice, region_cfg["corner"], region_cfg["lengths"])
    except (KeyError, ValueError) as err:
        raise UsageError(f"bad lattice/region config: {err}")
    if "matrix_csv" in cfg:
        h = load_matrix_csv(cfg["matrix_csv"], lattice)
        bound = float(cfg.get("bound", math.nan))
        seed = None
    else:
        disorder = cfg.get("disorder", {})
        try:
            k_max = float(disorder["k_max"])
        except KeyError:
            raise UsageError("config needs disorder.k_max or matrix_csv")
        seed = args.seed if args.seed is not None else int(disorder.get("seed", 0))
        model = DisorderModel(k_max=k_max, seed=seed)
        springs = sample_springs(model, lattice, int(cfg.get("realization_index", 0)))
        h = assemble_anderson(lattice, springs)
        bound = float(cfg.get("bound", anderson_norm_bound(lattice.dimension, k_max)))
    report = validate_coupling(h, bound if not math.isnan(bound) else math.inf)
    if math.isnan(bound):
        bound = report.hsqrt_norm
    if not report.is_positive_definite:
        raise ValueError(
            f"coupling matrix is not positive definite "
            f"(smallest eigenvalue {report.smallest_eigenvalue:.3e})"
        )
    return lattice, region, h, bound, seed


def _eps_list(cfg: dict, args) -> tuple[float, ...]:
    if args.eps is not None:
        return _parse_eps(args.eps)
    values = tuple(float(e) for e in cfg.get("eps", [0.5, 1.0]))
    for v in values:
        if not 0.0 < v <= 1.0:
            raise UsageError(f"eps must lie in (0, 1], got {v}")
    return values


def _cmd_ground_entropy(args) -> int:
    cfg = _load_config(args.config)
    lattice, region, h, bound, seed = _build_system(cfg, args)
    eps_values = _eps_list(cfg, args)
    data = eigensystem(h)
    blocks = partition_blocks(spd_sqrt(data), region)
    spectrum = symplectic_spectrum(blocks)
    report = entropy_report(spectrum, eps_values, lattice_size=lattice.size)
    out = _out_dir(args)
    _write_manifest(out, "ground-entropy", cfg, seed)
    (out / "ground_entropy.json").write_text(report.to_json() + "\n")
    for eps, value in zip(report.eps, report.ground_renyi):
        print(f"eps={eps:g} renyi_entropy={value:.15g}")
    print(f"von_neumann={report.von_neumann:.15g}")
    print(f"log_negativity={report.log_negativity:.15g}")
    return 0


def _cmd_excited_entropy(args) -> int:
    cfg = _load_config(args.config)
    lattice, region, h, bound, seed = _build_system(cfg, args)
    eps_values = _eps_list(cfg, args)
    try:
        policy = parse_excitations(cfg.get("excitations", "all"), lattice.size)
    except ValueError as err:
        raise UsageError(str(err))
    data = eigensystem(h)
    blocks = partition_blocks(spd_sqrt(data), region)
    spectrum = symplectic_spectrum(blocks)
    profiles = excitation_profiles(data, blocks, spectrum, selected_modes(policy, lattice.size))
    report = entropy_report(spectrum, eps_values, profiles, lattice_size=lattice.size)
    out = _out_dir(args)
    _write_manifest(out, "excited-entropy", cfg, seed)
    (out / "excited_bounds.json").write_text(report.to_json() + "\n")
    for mode, computed, theorem in zip(
        report.excited_modes, report.excited_computed_bounds, report.excited_theorem_bounds
    ):
        print(f"mode={mode} computed_bound={computed:.15g} theorem_bound={theorem:.15g}")
    return 0


def _cmd_ensemble_bound(args) -> int:
    cfg = _load_config(args.config)
    lattice, region, h, bound, seed = _build_system(cfg, args)
    data = eigensystem(h)
    blocks = partition_blocks(spd_sqrt(data), region)
    spectrum = symplectic_spectrum(blocks)
    value = single_excitation_ensemble_bound(spectrum, lattice.size, region.size)
    out = _out_dir(args)
    _write_manifest(out, "ensemble-bound", cfg, seed)
    payload = {"ensemble_bound": value, "lattice_size": lattice.size, "region_size": region.size}
    (out / "ensemble.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"ensemble_bound={value:.15g}")
    return 0


def _cmd_correlators(args) -> int:
    cfg = _load_config(args.config)
    lattice, region, h, bound, seed = _build_system(cfg, args)
    s_value = args.s_value if args.s_value is not None else float(cfg.get("s", 0.5))
    if not 0.0 < s_value <= 1.0:
        raise UsageError(f"s must lie in (0, 1], got {s_value}")
    realizations = int(cfg.get("realizations", 1))
    disorder = cfg.get("disorder")
    if disorder is None or "matrix_csv" in cfg:
        raise UsageError("correlators needs a disorder config (ensemble averaging)")
    model = DisorderModel(
        k_max=float(disorder["k_max"]),
        seed=args.seed if args.seed is not None else int(disorder.get("seed", 0)),
    )
    moment_sum = None
    for index in range(realizations):
        springs = sample_springs(model, lattice, index)
        table_h = assemble_anderson(lattice, springs)
        data = eigensystem(table_h)
        values = np.abs(spd_inv_sqrt(data))
        moment = (0.5 * (values + values.T)) ** s_value
        moment_sum = moment if moment_sum is None else moment_sum + moment
    mean_moment = moment_sum / realizations
    out = _out_dir(args)
    _write_manifest(out, "correlators", cfg, model.seed)
    (out / "correlators.csv").write_text(correlator_csv(mean_moment, lattice))
    fit = _fit_binned(mean_moment, lattice, s_value)
    payload = {
        "eta": fit.eta,
        "prefactor": fit.prefactor,
        "s": fit.s,
        "residual": fit.residual,
        "distances": list(fit.distances),
        "area_law_constant": area_law_constant(
            fit.prefactor, fit.eta, s_value, bound, lattice.dimension
        )
        if fit.eta > 0
        else None,
    }
    (out / "decay.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"eta={fit.eta:.15g} prefactor={fit.prefactor:.15g} residual={fit.residual:.3e}")
    return 0


def _cmd_scan(args) -> int:
    cfg = _load_config(args.config)
    overrides = dict(cfg)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.eps is not None:
        overrides["eps"] = list(_parse_eps(args.eps))
    if args.p_value is not None:
        overrides["p"] = args.p_value
    if args.s_value is not None:
        overrides["s"] = args.s_value
    threads = _resolve_threads(args)
    if threads is not None:
        overrides["threads"] = threads
    region_specs = overrides.get("regions")
    if region_specs is None:
        region_specs = [overrides.get("region")]
        if region_specs[0] is None:
            raise UsageError("scan config needs region or regions")
    configs = []
    try:
        for spec in region_specs:
            single = dict(overrides)
            single["region"] = spec
            single.pop("regions", None)
            configs.append(ExperimentConfig.from_dict(single))
    except (KeyError, TypeError, ValueError) as err:
        raise UsageError(f"bad scan config: {err}")
    results = run_scans(configs)
    out = _out_dir(args)
    resolved = [r.config.to_dict() for r in results]
    _write_manifest(out, "scan", {"scans": resolved}, results[0].config.master_seed)
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
    tolerance = args.tolerance if args.tolerance is not None else 1e-8
    rows = verify_report(tolerance=tolerance)
    width = max(len(r.name) for r in rows)
    failures = 0
    print(f"{'identity':<{width}}  {'worst':>12}  {'tolerance':>10}  status")
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        failures += 0 if row.passed else 1
        print(f"{row.name:<{width}}  {row.worst:12.3e}  {row.tolerance:10.1e}  {status}")
    if args.out:
        out = _out_dir(args)
        payload = [
            {"name": r.name, "worst": r.worst, "tolerance": r.tolerance, "passed": r.passed}
            for r in rows
        ]
        (out / "verify.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
