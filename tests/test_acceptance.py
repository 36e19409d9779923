"""End-to-end acceptance suite.

Each test prints one pass/fail line so the whole gate can be read off a
plain ``pytest -v -s tests/test_acceptance.py`` run. Tolerances are pinned
here, not configurable.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.linalg

import oscent as oc
from oscent.experiments import ExperimentConfig, RegionSpec, area_law_fit, run_scan, write_records_csv

pytestmark = pytest.mark.acceptance


def report(index, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index} [{name}]: {status} ({detail})")
    assert ok, f"criterion {index} ({name}) failed: {detail}"


def decompose(h, region):
    data = oc.eigensystem(h)
    blocks = oc.partition_blocks(oc.spd_sqrt(data), region)
    return data, blocks, oc.symplectic_spectrum(blocks)


def test_criterion_1_appendix_verification():
    start = time.time()
    rows = oc.verify_report(tolerance=1e-8)
    elapsed = time.time() - start
    worst = max(row.worst / row.tolerance for row in rows)
    ok = all(row.passed for row in rows) and elapsed < 60.0
    report(
        1,
        "appendix identity suite",
        ok,
        f"{len(rows)} identities, worst residual/tolerance {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_formula_vs_bruteforce():
    start = time.time()
    model = oc.DisorderModel(k_max=4.0, seed=7041)
    worst_ground = 0.0
    worst_excited = 0.0
    box3 = [(i, j) for i in range(3) for j in range(3)]
    for sites in (2, 3):
        lat = oc.build_box(1, [sites])
        splits = [[(0,)], [(1,)]] if sites == 2 else [[(0,)], [(0,), (1,)]]
        for draw in range(20):
            springs = oc.sample_springs(model, lat, draw + 100 * sites)
            h = oc.assemble_anderson(lat, springs)
            for split in splits:
                region = oc.make_region(lat, split)
                data, blocks, spec = decompose(h, region)
                n0 = region.size
                boxes = [(n,) for n in range(3)] if n0 == 1 else box3
                for n in boxes:
                    exact = float(
                        np.prod(
                            (2.0 / (1.0 + spec.mu))
                            * ((spec.mu - 1.0) / (spec.mu + 1.0)) ** np.array(n)
                        )
                    )
                    brute = oc.bruteforce_reduced_diagonal(
                        h, region, [0] * sites, list(n)
                    )
                    worst_ground = max(worst_ground, abs(exact - brute))
                weights = oc.excitation_weights(data, blocks, spec)
                for k in range(1, sites + 1):
                    alpha = [0] * sites
                    alpha[k - 1] = 1
                    for n in boxes:
                        formula = oc.excited_diagonal_element(weights[k - 1], spec, list(n))
                        brute = oc.bruteforce_reduced_diagonal(h, region, alpha, list(n))
                        worst_excited = max(worst_excited, abs(formula - brute))
    elapsed = time.time() - start
    ok = worst_ground <= 1e-6 and worst_excited <= 1e-6 and elapsed < 300.0
    report(
        2,
        "closed forms vs quadrature oracle",
        ok,
        f"ground {worst_ground:.2e}, excited {worst_excited:.2e}, {elapsed:.1f}s",
    )


def _random_realizations():
    """100 mixed 1d/2d disordered systems with sub-box regions, sizes <= 64."""
    systems = []
    model_1d = oc.DisorderModel(k_max=8.0, seed=5150)
    lat_1d = oc.build_box(1, [48])
    rng = np.random.default_rng(99)
    for index in range(50):
        length = int(rng.integers(3, 9))
        corner = int(rng.integers(1, 48 - length - 1))
        region = oc.box_region(lat_1d, (corner,), (length,))
        springs = oc.sample_springs(model_1d, lat_1d, index)
        systems.append((oc.assemble_anderson(lat_1d, springs), region))
    model_2d = oc.DisorderModel(k_max=8.0, seed=6160)
    lat_2d = oc.build_box(2, [8, 8])
    for index in range(50):
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        corner = (int(rng.integers(0, 8 - shape[0])), int(rng.integers(0, 8 - shape[1])))
        region = oc.box_region(lat_2d, corner, shape)
        springs = oc.sample_springs(model_2d, lat_2d, index)
        systems.append((oc.assemble_anderson(lat_2d, springs), region))
    return systems


def test_criterion_3_structural_identities():
    start = time.time()
    worst = {
        "mu": 0.0,
        "sigma_low": -1.0,
        "sigma_high": -1.0,
        "row": 0.0,
        "col": 0.0,
        "split": 0.0,
        "trace": 0.0,
        "sympl": 0.0,
    }
    for h, region in _random_realizations():
        data, blocks, spec = decompose(h, region)
        worst["mu"] = max(worst["mu"], 1.0 - float(spec.mu.min()))
        sigma = (1.0 - spec.mu**2) / (1.0 + spec.mu**2)
        worst["sigma_high"] = max(worst["sigma_high"], float(sigma.max()))
        worst["sigma_low"] = max(worst["sigma_low"], float(-1.0 - sigma.min()))
        weights = oc.excitation_weights(data, blocks, spec)
        worst["row"] = max(worst["row"], float(weights.sum(axis=1).max()) - 2.0)
        worst["col"] = max(worst["col"], float(np.abs(weights.sum(axis=0) - 2.0).max()))
        ri = region.indices
        ci = region.complement_indices
        v_r = data.vectors[ri, :]
        v_c = data.vectors[ci, :]
        b_factor = scipy.linalg.cho_factor(oc.spd_sqrt(data)[np.ix_(ci, ci)])
        b_inv_v = scipy.linalg.cho_solve(b_factor, v_c)
        nu = v_r - blocks.c @ b_inv_v
        split = data.frequencies * (
            np.einsum("ik,ik->k", nu, blocks.solve_schur(nu))
            + np.einsum("ik,ik->k", v_c, b_inv_v)
        )
        worst["split"] = max(worst["split"], float(np.abs(split - 1.0).max()))
        for row in weights:
            trace = oc.excited_diagonal_trace(row, spec)
            worst["trace"] = max(worst["trace"], abs(trace - 1.0))
        cov_mu = oc.oracle.symplectic_eigenvalues(h, region)
        worst["sympl"] = max(worst["sympl"], float(np.abs(cov_mu - spec.mu).max()))
    elapsed = time.time() - start
    ok = (
        worst["mu"] <= 0.0
        and worst["sigma_high"] <= 0.0
        and worst["sigma_low"] <= 0.0
        and worst["row"] <= 1e-9
        and worst["col"] <= 1e-8
        and worst["split"] <= 1e-8
        and worst["trace"] <= 1e-6
        and worst["sympl"] <= 1e-8
        and elapsed < 120.0
    )
    report(
        3,
        "structural identities on 100 realizations",
        ok,
        "mu_defect %.1e, row %.1e, col %.1e, energy split %.1e, trace %.1e, "
        "symplectic routes %.1e, %.1fs"
        % (worst["mu"], worst["row"], worst["col"], worst["split"], worst["trace"],
           worst["sympl"], elapsed),
    )


def test_criterion_4_bound_suite():
    start = time.time()
    lat = oc.build_box(1, [60])
    model = oc.DisorderModel(k_max=8.0, seed=8231)
    cap = oc.anderson_norm_bound(1, 8.0)
    violations = 0
    checks = 0
    for index in range(200):
        springs = oc.sample_springs(model, lat, index)
        h = oc.assemble_anderson(lat, springs)
        data = oc.eigensystem(h)
        hsqrt = oc.spd_sqrt(data)
        table = oc.correlator_table(h)
        for length in (4, 8):
            region = oc.box_region(lat, (30 - length // 2,), (length,))
            blocks = oc.partition_blocks(hsqrt, region)
            spec = oc.symplectic_spectrum(blocks)
            renyi = {eps: oc.ground_state_renyi(spec, eps) for eps in (0.5, 0.75, 1.0)}
            for p in (0.5, 1.0):
                bound = oc.ground_state_correlator_bound(table, region, p, cap)
                for eps in (0.5, 0.75, 1.0):
                    checks += 1
                    if renyi[eps] > bound + 1e-12:
                        violations += 1
            if not renyi[1.0] - 1e-12 <= renyi[0.75] <= renyi[0.5] + 1e-12:
                violations += 1
            checks += 1
            theorem = 2.0 * renyi[0.5] + 4.0 * math.log(region.size)
            weights = oc.excitation_weights(data, blocks, spec)
            f_half = oc.half_renyi_factor(spec.mu)
            log_product = float(np.sum(np.log(f_half)))
            computed = 2.0 * (np.log1p(np.sqrt(weights) @ f_half) + log_product)
            checks += 1
            if np.any(computed > theorem + 1e-12):
                violations += 1
            if region.size**2 <= lat.size:
                checks += 1
                value = oc.single_excitation_ensemble_bound(spec, lat.size, region.size)
                if abs(value - (math.log(3.0) + 2.0 * renyi[0.5])) > 1e-12:
                    violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 180.0
    report(
        4,
        "bound suite on 200 realizations",
        ok,
        f"{checks} checks, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_5_von_neumann_limit():
    rng = np.random.default_rng(515)
    worst = 0.0
    for _ in range(50):
        mu = 1.0 + rng.uniform(0.0, 2.5, size=int(rng.integers(1, 9)))
        near = oc.ground_state_renyi(mu, 0.999999)
        exact = oc.ground_state_renyi(mu, 1.0)
        worst = max(worst, abs(near - exact))
    ok = worst <= 1e-4
    report(5, "Renyi limit at eps -> 1", ok, f"worst gap {worst:.2e}")


def test_criterion_6_area_law_scaling():
    start = time.time()
    lengths = (4, 8, 16, 32, 64)
    config = ExperimentConfig(
        dimension=1,
        lengths=(160,),
        regions=tuple(RegionSpec(corner=(80 - length // 2,), lengths=(length,)) for length in lengths),
        k_max=8.0,
        realizations=50,
        eps=(0.5, 1.0),
        excitations="all",
        p=1.0,
        s=0.5,
        seed=606,
        threads=8,
    )
    results = run_scan(config)
    means = [r.aggregates["ground_renyi[0.5]"]["mean"] for r in results]
    plateau = [m for r, m in zip(results, means) if r.region_size >= 8]
    ratio = max(plateau) / min(plateau)
    fit = area_law_fit(results)
    slope_cap = 4.0 + 2.0 * fit.slope_vs_log_size_se
    elapsed = time.time() - start
    ok = ratio <= 2.0 and fit.slope_vs_log_size <= slope_cap and elapsed < 600.0
    report(
        6,
        "1d area-law scaling",
        ok,
        f"plateau ratio {ratio:.3f}, log-slope {fit.slope_vs_log_size:.4f} "
        f"(cap {slope_cap:.4f}), {elapsed:.1f}s",
    )


def test_criterion_7_correlator_decay():
    start = time.time()
    lat = oc.build_box(1, [60])
    model = oc.DisorderModel(k_max=8.0, seed=717)
    tables = []
    for index in range(200):
        springs = oc.sample_springs(model, lat, index)
        tables.append(oc.correlator_table(oc.assemble_anderson(lat, springs)))
    fit = oc.decay_fit(tables, s=0.5)
    dist = np.abs(np.subtract.outer(np.arange(12), np.arange(12)))
    synthetic = oc.correlators.CorrelatorTable(
        values=np.exp(-dist.astype(float)), lattice=oc.build_box(1, [12]), hsqrt_norm=1.0
    )
    exact = oc.decay_fit([synthetic], s=1.0)
    elapsed = time.time() - start
    ok = (
        fit.eta > 0.0
        and math.isfinite(fit.residual)
        and abs(exact.eta - 1.0) <= 1e-6
        and abs(exact.prefactor - 1.0) <= 1e-6
    )
    report(
        7,
        "correlator decay",
        ok,
        f"ensemble eta {fit.eta:.3f} (residual {fit.residual:.2e}), "
        f"synthetic recovery gaps {abs(exact.eta - 1.0):.1e}/{abs(exact.prefactor - 1.0):.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_scan_determinism(tmp_path):
    config = ExperimentConfig(
        dimension=1,
        lengths=(60,),
        regions=(RegionSpec(corner=(26,), lengths=(8,)),),
        k_max=8.0,
        realizations=20,
        eps=(0.5, 0.75, 1.0),
        excitations="all",
        p=1.0,
        s=0.5,
        seed=808,
        threads=1,
    )
    text_1 = write_records_csv(run_scan(config), tmp_path / "one.csv")
    text_8 = write_records_csv(
        run_scan(dataclasses.replace(config, threads=8)), tmp_path / "eight.csv"
    )
    identical = (tmp_path / "one.csv").read_bytes() == (tmp_path / "eight.csv").read_bytes()
    ok = identical and text_1 == text_8
    report(8, "thread-count determinism", ok, f"{len(text_1.splitlines())} CSV lines compared")
