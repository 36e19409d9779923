"""Output checks for benchmark operations.

Three kinds of check, all run after timing:

* invariants that hold for every seed (row counts, used + failed_pd =
  attempted, mu >= 1, finite values, the identities between reported
  quantities that the acceptance suite checks);
* an independent recomputation with plain numpy/scipy (the X.P route for the
  symplectic spectrum, not the program's Schur route) of the ground-state
  entropies, or of the correlator decay fit;
* at the default seed, a comparison with reference outputs taken from the
  seed commit (``reference/``).

Each check returns a list of failure names; an empty list means the
operation's outputs are correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import eigh, eigvalsh

# Reference values: the formula-vs-brute-force tolerance of acceptance
# criterion 2, relative above 1 and absolute below.
VALUE_TOL = 1e-6
# Independently recomputed values: acceptance criterion 5's tolerance. A
# second route reaches the roundoff floor of E_1/2 in the localized regime
# (ROADMAP 5b), about 1e-6 at |R| = 64, so VALUE_TOL would be too tight.
RECOMPUTE_TOL = 1e-4
# Mean correlator moments are compared only above this: far entries of
# h^{-1/2} are roundoff, and their moments differ between any two routes.
RESOLVED_MOMENT = 1e-4
# Identities between reported quantities (acceptance criterion 4).
IDENTITY_TOL = 1e-12
# Decay-fit bins below this are dropped, as the program does.
UNDERFLOW_FLOOR = 1e-300

RECORDS_HEADER = (
    "realization_index,lattice_size,region_size,boundary_size,eps,"
    "E_eps_ground,log_negativity,excited_k,excited_computed_bound,"
    "excited_theorem_bound,gs_correlator_bound_p,pd_ok"
)

REFERENCE_FILES = {
    "scan": ("records.csv", "aggregates.json"),
    "ground-entropy": ("ground_entropy.json",),
    "excited-entropy": ("excited_bounds.json",),
    "correlators": ("decay.json",),
}


def close(actual, expected, tol: float = VALUE_TOL) -> bool:
    """Elementwise |actual - expected| <= tol * max(1, |expected|)."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return bool(np.all(np.abs(actual - expected) <= tol * np.maximum(1.0, np.abs(expected))))


# ----------------------------------------------------------------------------
# comparison with reference outputs


def compare_values(actual, expected, where: str, tol: float = VALUE_TOL) -> list[str]:
    """Names of the leaves of two JSON-like values that disagree."""
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return [] if actual == expected else [where]
    if isinstance(expected, (int, float)):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [where]
        if isinstance(expected, int) and isinstance(actual, int):
            return [] if actual == expected else [where]
        return [] if close(actual, expected, tol) else [where]
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}:keys"]
        return [m for k in sorted(expected) for m in compare_values(actual[k], expected[k], f"{where}.{k}", tol)]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}:length"]
        return [m for i, (a, e) in enumerate(zip(actual, expected)) for m in compare_values(a, e, f"{where}[{i}]", tol)]
    raise TypeError(f"unexpected reference value at {where}: {expected!r}")


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_csv(text: str) -> list[dict]:
    return [{k: _parse_cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def compare_file(name: str, actual_text: str, expected_text: str) -> list[str]:
    if name.endswith(".json"):
        return compare_values(json.loads(actual_text), json.loads(expected_text), name)
    actual, expected = parse_csv(actual_text), parse_csv(expected_text)
    return compare_values(actual, expected, name)


def compare_reference(command: str, out_dir: Path, reference_dir: Path) -> list[str]:
    failures = []
    for name in REFERENCE_FILES[command]:
        expected = reference_dir / name
        if not expected.exists():
            failures.append(f"reference missing: {name}")
            continue
        failures += compare_file(name, (out_dir / name).read_text(), expected.read_text())
    return failures


# ----------------------------------------------------------------------------
# independent recomputation


def springs(seed: int, index: int, size: int, k_max: float) -> np.ndarray:
    """Uniform springs on [0, k_max] from Philox keyed by (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return k_max * np.random.Generator(np.random.Philox(key=key)).random(size)


def anderson_matrix(lengths, spring_values: np.ndarray) -> np.ndarray:
    """Box graph Laplacian plus on-site springs, sites in C order."""
    grid = np.arange(int(np.prod(lengths))).reshape(lengths)
    h = np.diag(spring_values.astype(float))
    for axis in range(grid.ndim):
        lo = np.take(grid, range(grid.shape[axis] - 1), axis=axis).ravel()
        hi = np.take(grid, range(1, grid.shape[axis]), axis=axis).ravel()
        h[lo, hi] = h[hi, lo] = -1.0
        h[lo, lo] += 1.0
        h[hi, hi] += 1.0
    return h


def box_indices(lengths, corner, sizes) -> np.ndarray:
    ranges = np.meshgrid(*(np.arange(c, c + s) for c, s in zip(corner, sizes)), indexing="ij")
    return np.sort(np.ravel_multi_index([r.ravel() for r in ranges], lengths))


def roots(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h^{1/2}, h^{-1/2}) from one eigendecomposition."""
    w, v = eigh(h)
    s = np.sqrt(w)
    return (v * s) @ v.T, (v / s) @ v.T


def symplectic_mu(hsqrt: np.ndarray, hinvsqrt: np.ndarray, region: np.ndarray) -> np.ndarray:
    """mu_j from the region blocks: mu^2 = eig(P^{1/2} X P^{1/2}), P=(h^{1/2})_RR, X=(h^{-1/2})_RR."""
    p = hsqrt[np.ix_(region, region)]
    x = hinvsqrt[np.ix_(region, region)]
    wp, up = eigh(p)
    proot = (up * np.sqrt(wp)) @ up.T
    mu_sq = eigvalsh(proot @ x @ proot)
    return np.sqrt(np.maximum(mu_sq, 1.0))


def renyi(mu: np.ndarray, eps: float) -> float:
    if eps == 1.0:
        plus, minus = (mu + 1.0) / 2.0, (mu - 1.0) / 2.0
        safe = np.where(minus > 0, minus, 1.0)
        return float(np.sum(plus * np.log(plus) - np.where(minus > 0, minus * np.log(safe), 0.0)))
    f = 1.0 / (((mu + 1.0) / 2.0) ** eps - ((mu - 1.0) / 2.0) ** eps)
    return float(np.sum(np.log(f)) / (1.0 - eps))


def decay_fit(mean_moment: np.ndarray, lengths) -> tuple[float, float]:
    """(eta, prefactor) of the log-linear fit of the moment mean per l1 distance."""
    coords = np.stack(np.unravel_index(np.arange(mean_moment.shape[0]), lengths), axis=1)
    dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    r = np.arange(1, dist.max() + 1)
    means = np.array([mean_moment[dist == d].mean() for d in r])
    keep = means > UNDERFLOW_FLOOR
    slope, intercept = np.polyfit(r[keep].astype(float), np.log(means[keep]), 1)
    return float(-slope), float(math.exp(intercept))


# ----------------------------------------------------------------------------
# per-command checks


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _ground_invariants(payload: dict, region_size: int, lattice_size: int) -> list[str]:
    failures = []
    renyi_by_eps = dict(zip(payload["eps"], payload["ground_renyi"]))
    if not all(_finite(v) for v in payload["ground_renyi"] + [payload["von_neumann"], payload["log_negativity"]]):
        failures.append("invariant:finite entropies")
    mu = np.array(payload["mu"], dtype=float)
    if mu.shape != (region_size,) or np.any(mu < 1.0) or np.any(np.diff(mu) < 0):
        failures.append("invariant:mu >= 1, ascending, one per region site")
    if 0.5 in renyi_by_eps and not close(payload["log_negativity"], renyi_by_eps[0.5], IDENTITY_TOL):
        failures.append("invariant:log_negativity = E_1/2")
    if not payload["von_neumann"] <= payload["log_negativity"] + IDENTITY_TOL:
        failures.append("invariant:E_1 <= E_1/2")
    if region_size**2 <= lattice_size:
        expected = math.log(3.0) + 2.0 * payload["log_negativity"]
        if not _finite(payload["ensemble_bound"]) or not close(payload["ensemble_bound"], expected, IDENTITY_TOL):
            failures.append("invariant:ensemble_bound = log 3 + 2 E_1/2")
    return failures


def _ground_recompute(payload: dict, config: dict, seed: int) -> list[str]:
    lengths = config["lengths"]
    size = int(np.prod(lengths))
    h = anderson_matrix(lengths, springs(seed, config["realization_index"], size, config["disorder"]["k_max"]))
    region = box_indices(lengths, config["region"]["corner"], config["region"]["lengths"])
    mu = symplectic_mu(*roots(h), region)
    failures = []
    if not close(payload["mu"], mu, RECOMPUTE_TOL):
        failures.append("recompute:mu")
    for eps, value in zip(payload["eps"], payload["ground_renyi"]):
        if not close(value, renyi(mu, eps), RECOMPUTE_TOL):
            failures.append(f"recompute:ground_renyi[{eps:g}]")
    return failures


def check_ground(out_dir: Path, config: dict, seed: int, recompute: bool) -> list[str]:
    payload = json.loads((out_dir / "ground_entropy.json").read_text())
    size = int(np.prod(config["lengths"]))
    region_size = int(np.prod(config["region"]["lengths"]))
    failures = _ground_invariants(payload, region_size, size)
    if recompute:
        failures += _ground_recompute(payload, config, seed)
    return failures


def check_excited(out_dir: Path, config: dict, seed: int, recompute: bool) -> list[str]:
    payload = json.loads((out_dir / "excited_bounds.json").read_text())
    size = int(np.prod(config["lengths"]))
    region_size = int(np.prod(config["region"]["lengths"]))
    failures = _ground_invariants(payload, region_size, size)
    policy = config["excitations"]
    lo, hi = (1, size) if policy == "all" else policy["k_range"]
    if payload["excited_modes"] != list(range(lo, hi + 1)):
        failures.append("invariant:excited_modes are the requested modes")
    computed = np.array(payload["excited_computed_bounds"], dtype=float)
    theorem = np.array(payload["excited_theorem_bounds"], dtype=float)
    if computed.shape != (hi - lo + 1,) or not np.all(np.isfinite(computed)) or not np.all(np.isfinite(theorem)):
        failures.append("invariant:finite excited bounds")
    elif np.any(computed > theorem + IDENTITY_TOL * np.maximum(1.0, np.abs(theorem))):
        failures.append("invariant:computed bound <= theorem bound")
    expected = 2.0 * payload["log_negativity"] + 4.0 * math.log(region_size)
    if not close(theorem, expected, IDENTITY_TOL):
        failures.append("invariant:theorem bound = 2 E_1/2 + 4 log|R|")
    if recompute:
        failures += _ground_recompute(payload, config, seed)
    return failures


def check_correlators(out_dir: Path, config: dict, seed: int, recompute: bool) -> list[str]:
    payload = json.loads((out_dir / "decay.json").read_text())
    failures = []
    if not all(_finite(payload[k]) for k in ("eta", "prefactor", "residual")) or payload["prefactor"] <= 0:
        failures.append("invariant:finite decay fit")
    if (payload["area_law_constant"] is None) != (payload["eta"] <= 0):
        failures.append("invariant:area_law_constant present iff eta > 0")
    lengths = config["lengths"]
    size = int(np.prod(lengths))
    with open(out_dir / "correlators.csv") as handle:
        header = handle.readline().strip()
        table = np.loadtxt(handle, delimiter=",", ndmin=2)
    j, k = np.divmod(np.arange(size * size), size)
    coords = np.stack(np.unravel_index(np.arange(size), lengths), axis=1)
    if (
        header != "j,k,distance,value"
        or table.shape != (size * size, 4)
        or np.any(table[:, 0] != j)
        or np.any(table[:, 1] != k)
        or np.any(table[:, 2] != np.abs(coords[j] - coords[k]).sum(axis=1))
    ):
        return failures + ["invariant:correlators.csv has one row per site pair with its l1 distance"]
    moment = table[:, 3].reshape(size, size)
    if not np.all(np.isfinite(moment)) or np.any(moment < 0):
        failures.append("invariant:finite nonnegative moments")
    eta, prefactor = decay_fit(moment, lengths)
    if not close(payload["eta"], eta) or not close(payload["prefactor"], prefactor):
        failures.append("invariant:decay fit matches correlators.csv")
    if recompute:
        total = np.zeros((size, size))
        for index in range(config["realizations"]):
            h = anderson_matrix(lengths, springs(seed, index, size, config["disorder"]["k_max"]))
            values = np.abs(roots(h)[1])
            total += (0.5 * (values + values.T)) ** config["s"]
        expected = total / config["realizations"]
        resolved = expected > RESOLVED_MOMENT
        if not close(moment[resolved], expected[resolved], RECOMPUTE_TOL):
            failures.append("recompute:mean moments")
    return failures


def check_scan(out_dir: Path, config: dict, seed: int, recompute: bool) -> list[str]:
    text = (out_dir / "records.csv").read_text()
    rows = parse_csv(text)
    header = text.split("\n", 1)[0]
    scans = json.loads((out_dir / "aggregates.json").read_text())
    regions = config["regions"] if "regions" in config else [config["region"]]
    attempted = config["realizations"]
    eps_values = config["eps"]
    failures = []
    if header != RECORDS_HEADER:
        failures.append("records.csv:header")
    if len(scans) != len(regions):
        return failures + ["aggregates.json:one entry per region"]
    for region, scan in zip(regions, scans):
        size = int(np.prod(region["lengths"]))
        tag = f"region {size}"
        mine = [r for r in rows if r["region_size"] == size]
        used_rows = [r for r in mine if r["pd_ok"] == 1]
        ok = {r["realization_index"] for r in used_rows}
        bad = {r["realization_index"] for r in mine if r["pd_ok"] == 0}
        if ok | bad != set(range(attempted)) or ok & bad or len(mine) != len(ok) * len(eps_values) + len(bad):
            failures.append(f"records.csv:{tag}:one row per realization and eps")
        used = scan["aggregates"]["log_negativity"]["n"]
        if scan["realizations"] != attempted or used + scan["failed_pd"] != attempted or len(bad) != scan["failed_pd"]:
            failures.append(f"aggregates.json:{tag}:used + failed_pd = attempted")
        if not scan["aggregates"]["mu_max"]["mean"] >= 1.0:
            failures.append(f"aggregates.json:{tag}:mu_max >= 1")
        if not all(_finite(s[k]) for s in scan["aggregates"].values() for k in ("mean", "se")):
            failures.append(f"aggregates.json:{tag}:finite aggregates")
        fit = scan["empirical_area_bound"]
        if config.get("fit_decay") and fit is not None and not all(
            _finite(fit[k]) for k in ("eta", "prefactor", "constant")
        ):
            failures.append(f"aggregates.json:{tag}:finite decay fit")
        failures += _scan_row_invariants(used_rows, size, tag)
        if recompute:
            failures += _scan_recompute(used_rows, config, seed, region, tag)
    return failures


def _scan_row_invariants(rows: list[dict], region_size: int, tag: str) -> list[str]:
    failures = set()
    by_index: dict[int, dict[float, float]] = {}
    for r in rows:
        values = [r[k] for k in ("E_eps_ground", "log_negativity", "excited_computed_bound",
                                 "excited_theorem_bound", "gs_correlator_bound_p")]
        if not all(_finite(v) for v in values):
            failures.add(f"records.csv:{tag}:finite entropies and bounds")
            continue
        by_index.setdefault(r["realization_index"], {})[r["eps"]] = r["E_eps_ground"]
        if r["eps"] == 0.5 and not close(r["E_eps_ground"], r["log_negativity"], IDENTITY_TOL):
            failures.add(f"records.csv:{tag}:log_negativity = E_1/2")
        if 0.5 <= r["eps"] <= 1.0 and r["E_eps_ground"] > r["gs_correlator_bound_p"] + IDENTITY_TOL:
            failures.add(f"records.csv:{tag}:E_eps <= correlator bound")
        if r["excited_computed_bound"] > r["excited_theorem_bound"] + IDENTITY_TOL * abs(r["excited_theorem_bound"]):
            failures.add(f"records.csv:{tag}:computed bound <= theorem bound")
        if region_size > 1 and not close(
            r["excited_theorem_bound"], 2.0 * r["log_negativity"] + 4.0 * math.log(region_size), IDENTITY_TOL
        ):
            failures.add(f"records.csv:{tag}:theorem bound = 2 E_1/2 + 4 log|R|")
    for values in by_index.values():
        if 0.5 in values and 1.0 in values and values[1.0] > values[0.5] + IDENTITY_TOL:
            failures.add(f"records.csv:{tag}:E_1 <= E_1/2")
    return sorted(failures)


def _scan_recompute(rows, config, seed, region, tag) -> list[str]:
    lengths = config["lengths"]
    size = int(np.prod(lengths))
    indices = box_indices(lengths, region["corner"], region["lengths"])
    failures = set()
    mu_of: dict[int, np.ndarray] = {}
    for r in rows:
        index = r["realization_index"]
        if index not in mu_of:
            h = anderson_matrix(lengths, springs(seed, index, size, config["disorder"]["k_max"]))
            mu_of[index] = symplectic_mu(*roots(h), indices)
        mu = mu_of[index]
        if not close(r["E_eps_ground"], renyi(mu, r["eps"]), RECOMPUTE_TOL):
            failures.add(f"recompute:{tag}:E_eps_ground")
    return sorted(failures)


CHECKS = {
    "scan": check_scan,
    "ground-entropy": check_ground,
    "excited-entropy": check_excited,
    "correlators": check_correlators,
}


def check_op(command: str, out_dir: Path, config: dict, seed: int, recompute: bool,
             reference_dir: Path | None = None) -> list[str]:
    """Failure names for one operation's outputs; reference files when given."""
    try:
        failures = CHECKS[command](out_dir, config, seed, recompute)
        if reference_dir is not None:
            failures += compare_reference(command, out_dir, reference_dir)
    except (OSError, KeyError, TypeError, ValueError) as err:
        failures = [f"unreadable output: {type(err).__name__}: {err}"]
    return failures

