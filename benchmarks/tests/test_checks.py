import json
import shutil
from pathlib import Path

import pytest

import checks
from workloads import WORKLOADS

REFERENCE = Path(__file__).resolve().parents[1] / "reference"


def test_reference_matches_itself():
    for name, workload in WORKLOADS.items():
        ref = REFERENCE / name
        assert checks.compare_reference(workload.command, ref, ref) == []


def test_perturbed_json_reference_value_is_flagged(tmp_path):
    ref = REFERENCE / "single-shot-ground"
    payload = json.loads((ref / "ground_entropy.json").read_text())
    payload["ground_renyi"][0] *= 1.0 + 1e-3
    (tmp_path / "ground_entropy.json").write_text(json.dumps(payload))
    assert checks.compare_reference("ground-entropy", tmp_path, ref) == ["ground_entropy.json.ground_renyi[0]"]


def test_perturbed_csv_reference_value_is_flagged(tmp_path):
    ref = REFERENCE / "area-law-chain"
    lines = (ref / "records.csv").read_text().split("\n")
    cells = lines[3].split(",")
    cells[5] = repr(float(cells[5]) + 1e-3)
    lines[3] = ",".join(cells)
    (tmp_path / "records.csv").write_text("\n".join(lines))
    shutil.copy(ref / "aggregates.json", tmp_path)
    assert checks.compare_reference("scan", tmp_path, ref) == ["records.csv[2].E_eps_ground"]


def test_values_within_tolerance_pass():
    assert checks.compare_values([1.0, {"a": 2.0}], [1.0 + 1e-9, {"a": 2.0}], "x") == []
    assert checks.compare_values({"a": 1}, {"b": 1}, "x") == ["x:keys"]
    assert checks.compare_values([1, 2], [1], "x") == ["x:length"]
    assert checks.compare_values(3, 4, "x") == ["x"]


def test_invariants_pass_on_reference_and_flag_a_broken_identity(tmp_path):
    config = WORKLOADS["single-shot-excited"].config
    ref = REFERENCE / "single-shot-excited"
    assert checks.check_excited(ref, config, 0, recompute=False) == []
    payload = json.loads((ref / "excited_bounds.json").read_text())
    payload["excited_computed_bounds"][7] = payload["excited_theorem_bounds"][7] + 1.0
    payload["mu"][0] = 0.5
    (tmp_path / "excited_bounds.json").write_text(json.dumps(payload))
    failures = checks.check_excited(tmp_path, config, 0, recompute=False)
    assert "invariant:computed bound <= theorem bound" in failures
    assert "invariant:mu >= 1, ascending, one per region site" in failures


def test_scan_invariants_on_reference():
    for name in ("area-law-chain", "bulk-3d"):
        workload = WORKLOADS[name]
        assert checks.check_scan(REFERENCE / name, workload.config, 0, recompute=False) == []


def test_independent_route_agrees_with_the_program_on_a_small_chain():
    import oscent as oc

    lattice = oc.build_box(1, [40])
    model = oc.DisorderModel(k_max=8.0, seed=5)
    h = oc.assemble_anderson(lattice, oc.sample_springs(model, lattice, 3))
    region = oc.box_region(lattice, (16,), (8,))
    spectrum = oc.symplectic_spectrum(oc.partition_blocks(oc.spd_sqrt(oc.eigensystem(h)), region))

    mine = checks.anderson_matrix([40], checks.springs(5, 3, 40, 8.0))
    assert mine == pytest.approx(h.matrix, abs=1e-15)
    mu = checks.symplectic_mu(*checks.roots(mine), checks.box_indices([40], [16], [8]))
    assert mu == pytest.approx(spectrum.mu, rel=1e-9)
    for eps in (0.5, 1.0):
        assert checks.renyi(mu, eps) == pytest.approx(oc.ground_state_renyi(spectrum, eps), abs=1e-6)
