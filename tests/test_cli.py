import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oscent.cli
import oscent.entanglement
import oscent.experiments
import oscent.spectral
from oscent import CouplingMatrix, ExperimentConfig, run_scan
from oscent.lapack import single_blas_thread
from oscent.spectral import SpectralData
from oscent.cli import main, parse_args


@pytest.fixture()
def two_site_config(tmp_path):
    matrix = tmp_path / "twosite.csv"
    np.savetxt(matrix, np.array([[2.0, -1.0], [-1.0, 2.0]]), delimiter=",")
    config = tmp_path / "ground.json"
    config.write_text(
        json.dumps(
            {
                "dimension": 1,
                "lengths": [2],
                "region": {"sites": [[0]]},
                "matrix_csv": str(matrix),
                "eps": [0.5, 1.0],
            }
        )
    )
    return config


@pytest.fixture()
def scan_config(tmp_path):
    config = tmp_path / "scan.json"
    config.write_text(
        json.dumps(
            {
                "dimension": 1,
                "lengths": [12],
                "region": {"corner": [4], "lengths": [3]},
                "disorder": {"k_max": 8.0},
                "seed": 11,
                "realizations": 3,
                "eps": [0.5, 1.0],
                "excitations": "all",
                "p": 1.0,
                "s": 0.5,
            }
        )
    )
    return config


def test_parse_requires_subcommand():
    with pytest.raises(SystemExit) as info:
        parse_args([])
    assert info.value.code == 2


def test_parse_rejects_unknown_command():
    with pytest.raises(SystemExit) as info:
        parse_args(["frobnicate"])
    assert info.value.code == 2


def test_the_parser_is_built_once_and_keeps_nothing_between_calls():
    first = parse_args(["scan", "--config", "a.json", "--seed", "3", "--threads", "2"])
    second = parse_args(["scan", "--config", "b.json"])
    assert (first.config, first.seed, first.threads) == ("a.json", 3, 2)
    assert (second.config, second.seed, second.threads) == ("b.json", None, None)
    assert parse_args(["verify"]).tolerance == 1e-8
    assert oscent.cli._parser() is oscent.cli._parser()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["scan", "--config", str(tmp_path / "missing.json")]) == 2
    assert "not found" in capsys.readouterr().err


def _with_eps(config, eps):
    """``config`` rewritten to hold the Renyi orders ``eps``."""
    return _write(config, dict(json.loads(config.read_text()), eps=eps))


def test_bad_eps_exits_2(two_site_config, tmp_path, capsys):
    code = main(["ground-entropy", "--config", str(_with_eps(two_site_config, [1.5])), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "eps" in capsys.readouterr().err


def test_a_subnormal_eps_exits_2(two_site_config, tmp_path, capsys):
    code = main(["ground-entropy", "--config", str(_with_eps(two_site_config, [1e-320])), "--out", str(tmp_path / "o")])
    assert code == 2
    assert repr(float(np.finfo(float).tiny)) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_tiny_normal_eps_gives_a_finite_entropy(two_site_config, tmp_path):
    out = tmp_path / "o"
    assert main(["ground-entropy", "--config", str(_with_eps(two_site_config, [1e-300])), "--out", str(out)]) == 0
    (value,) = json.loads((out / "ground_entropy.json").read_text(), parse_constant=float)["ground_renyi"]
    assert math.isfinite(value) and value == pytest.approx(689.39, abs=0.01)


def test_ground_entropy_two_site(two_site_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["ground-entropy", "--config", str(two_site_config), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "eps=0.5" in stdout
    payload = json.loads((out / "ground_entropy.json").read_text())
    # frozen value for the coupled two-site system (series oracle)
    assert payload["ground_renyi"][0] == pytest.approx(0.274653072167027, abs=1e-12)
    assert payload["log_negativity"] == pytest.approx(payload["ground_renyi"][0])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ground-entropy"
    assert "numpy" in manifest["versions"]


def test_excited_entropy_writes_bounds(two_site_config, tmp_path):
    out = tmp_path / "out"
    code = main(["excited-entropy", "--config", str(two_site_config), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "excited_bounds.json").read_text())
    assert payload["excited_modes"] == [1, 2]
    assert all(math.isfinite(v) for v in payload["excited_computed_bounds"])


def test_ensemble_bound_hypothesis_violation_exits_1(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(
        json.dumps(
            {
                "dimension": 1,
                "lengths": [9],
                "region": {"corner": [0], "lengths": [4]},
                "disorder": {"k_max": 4.0},
                "seed": 3,
            }
        )
    )
    assert main(["ensemble-bound", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "hypothesis" in capsys.readouterr().err


def test_ensemble_bound_checks_its_hypothesis_before_any_eigensolve(tmp_path, capsys, monkeypatch):
    calls = []
    decompose = oscent.experiments.decompose
    monkeypatch.setattr(oscent.experiments, "decompose", lambda h: calls.append(h) or decompose(h))
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(
        {"dimension": 1, "lengths": [400], "region": {"corner": [0], "lengths": [21]}, "disorder": {"k_max": 8.0}}
    ))
    assert main(["ensemble-bound", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "hypothesis" in capsys.readouterr().err
    assert calls == []


def test_scan_end_to_end(scan_config, tmp_path):
    out = tmp_path / "scan_out"
    code = main(["scan", "--config", str(scan_config), "--out", str(out)])
    assert code == 0
    for name in ("records.csv", "aggregates.json", "scaling.dat", "manifest.json"):
        assert (out / name).exists()
    header = (out / "records.csv").read_text().splitlines()[0]
    assert header.split(",")[:5] == [
        "realization_index",
        "lattice_size",
        "region_size",
        "boundary_size",
        "eps",
    ]


def test_scan_does_not_mutate_config(scan_config, tmp_path):
    before = scan_config.read_bytes()
    main(["scan", "--config", str(scan_config), "--out", str(tmp_path / "o")])
    assert scan_config.read_bytes() == before


def test_verify_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(["verify", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "pass" in stdout and "FAIL" not in stdout
    payload = json.loads((out / "verify.json").read_text())
    assert all(row["passed"] for row in payload)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["command", "tolerance", "versions"]
    assert (manifest["command"], manifest["tolerance"]) == ("verify", 1e-8)
    assert "scipy" in manifest["versions"]


def test_verify_fails_with_absurd_tolerance(capsys):
    assert main(["verify", "--tolerance", "1e-30"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_verify_rejects_a_tolerance_that_is_not_positive_and_finite(tolerance, capsys):
    assert main(["verify", "--tolerance", tolerance]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_verify_rejects_flags_it_does_not_read():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--seed", "3"])
    assert info.value.code == 2


def test_seed_override_changes_draw(two_site_config, tmp_path):
    # matrix-file config ignores seeds; use a disorder config instead
    config = tmp_path / "disorder.json"
    config.write_text(
        json.dumps(
            {
                "dimension": 1,
                "lengths": [6],
                "region": {"corner": [2], "lengths": [2]},
                "disorder": {"k_max": 6.0},
                "seed": 1,
                "eps": [0.5],
            }
        )
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["ground-entropy", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["ground-entropy", "--config", str(config), "--seed", "2", "--out", str(out2)]) == 0
    v1 = json.loads((out1 / "ground_entropy.json").read_text())["ground_renyi"][0]
    v2 = json.loads((out2 / "ground_entropy.json").read_text())["ground_renyi"][0]
    assert v1 != v2


def test_scan_excitation_range_beyond_mode_count_exits_2(scan_config, tmp_path, capsys):
    cfg = json.loads(scan_config.read_text())
    cfg["excitations"] = {"k_range": [1, 13]}
    scan_config.write_text(json.dumps(cfg))
    assert main(["scan", "--config", str(scan_config), "--out", str(tmp_path / "o")]) == 2
    assert "exceeds mode count 12" in capsys.readouterr().err


def _scan_seed(config_path, out, extra=()):
    assert main(["scan", "--config", str(config_path), "--out", str(out), *extra]) == 0
    return json.loads((out / "manifest.json").read_text())["seed"]


def test_scan_seed_precedence(scan_config, tmp_path):
    cfg = json.loads(scan_config.read_text())
    # the flag, then the file's seed, then 0
    assert _scan_seed(scan_config, tmp_path / "flag", ["--seed", "3"]) == 3
    assert _scan_seed(scan_config, tmp_path / "file") == 11
    del cfg["seed"]
    scan_config.write_text(json.dumps(cfg))
    assert _scan_seed(scan_config, tmp_path / "default") == 0


@pytest.mark.parametrize("command", ["scan", "excited-entropy"])
@pytest.mark.parametrize(
    "policy",
    [
        [1, 3],
        {"k_range": [1.7, 3]},
        {"k_range": [1.0, 3.0]},
        {"k_range": [1, 3], "step": 2},
        {"k_range": [0, 3]},
        {"k_range": [3, 1]},
        {"k_range": [1, 13]},
        {"range": [1, 3]},
        "some",
        3,
    ],
    ids=[
        "list", "fractional", "float", "extra-key", "zero-lo", "reversed",
        "beyond-modes", "wrong-key", "unknown-name", "bare-int",
    ],
)
def test_both_commands_reject_the_same_excitation_policies(
    command, policy, scan_config, tmp_path, capsys
):
    cfg = json.loads(scan_config.read_text())
    cfg["excitations"] = policy
    scan_config.write_text(json.dumps(cfg))
    assert main([command, "--config", str(scan_config), "--out", str(tmp_path / "o")]) == 2
    assert "excitation" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "excited-entropy"])
def test_both_commands_accept_an_integer_k_range(command, scan_config, tmp_path):
    cfg = json.loads(scan_config.read_text())
    cfg["excitations"] = {"k_range": [2, 3]}
    scan_config.write_text(json.dumps(cfg))
    assert main([command, "--config", str(scan_config), "--out", str(tmp_path / "o")]) == 0


def _write(path, cfg):
    path.write_text(json.dumps(cfg))
    return path


COMMANDS = ["ground-entropy", "excited-entropy", "ensemble-bound", "correlators", "scan"]

# Config shapes that must exit 2 with an error naming the key: (change, text the error holds)
_MALFORMED_SHAPES = {
    "list-config": ([1, 2], "config must be a JSON object"),
    "null-config": (None, "config must be a JSON object"),
    "empty-regions": ({"regions": []}, "regions"),
    # region outside the lattice, so a scan that read only regions would exit 0
    "region-and-regions": ({"region": {"corner": [99], "lengths": [2]}, "regions": [{"corner": [4], "lengths": [3]}]}, "both region and regions"),
    "number-matrix-csv": ({"matrix_csv": 5}, "matrix_csv must be a string"),
    "number-coupling": ({"coupling": 1}, "coupling must be a string"),
    "empty-eps": ({"eps": []}, "eps needs at least one value"),
    "string-eps-list": ({"eps": "0.5"}, "eps must be a list"),
    "bare-int-lengths": ({"lengths": 12}, "lengths must be a list"),
    # json reads Infinity, which must not reach a spring draw or an output
    "infinite-k_max": ({"disorder": {"k_max": math.inf}}, "disorder.k_max must be a finite number"),
    "infinite-bound": ({"bound": math.inf}, "bound must be a finite number"),
    "region-sites-and-box": ({"region": {"corner": [4], "lengths": [3], "sites": [[0]]}}, "region needs sites or corner + lengths"),
    # a disorder or region that is given is an object: [] and null are not an absent key
    "list-disorder": ({"disorder": []}, "disorder must be a JSON object"),
    "null-disorder": ({"disorder": None}, "disorder must be a JSON object"),
    "null-region": ({"region": None}, "region must be a JSON object"),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "change",
    [
        {"p": 2.0},
        {"s": 2.0},
        {"disorder": {"k_max": 0.0}},
        {"disorder": {}},
        {"threads": -1},
        {"bound": 0.0},
        {"region": {"corner": [10], "lengths": [3]}},
        {"realisations": 3},
        {"disorder": {"k_max": 8.0, "kmax": 8.0}},
        {"region": {"corner": [4], "lengths": [3], "size": 3}},
        {"lengths": [12, 0]},
        {"lengths": [12.7]},
        {"realizations": 2.5},
        {"threads": 1.9},
        {"realization_index": 0.5},
        {"seed": 1.5},
        {"seed": "7"},
        {"seed": True},
        {"region": {"corner": [4.0], "lengths": [3.5]}},
        {"fit_decay": "no"},
        {"disorder": {"k_max": True}},
        {"disorder": {"k_max": "8"}},
        {"p": "1"},
        {"s": False},
        {"bound": "9"},
        {"eps": [True]},
        {"eps": ["0.5"]},
        {"eps": 0.5},
        {"disorder": {"k_max": 8.0, "seed": 5}},
        {"master_seed": 12},
        {"region": {"corner": [0], "lengths": [12]}},
        {"region": {"sites": [[i] for i in range(12)]}},
        {"eps": [0.5, 1.0, 0.5]},
        {"eps": [0.5, 0.5000000000000001]},
        *(shape for shape, _ in _MALFORMED_SHAPES.values()),
    ],
    ids=[
        "p-above-1", "s-above-1", "zero-k_max", "no-k_max", "negative-threads", "zero-bound",
        "region-outside", "top-level-typo", "disorder-typo", "region-typo", "bad-lengths",
        "fractional-lengths", "fractional-realizations", "fractional-threads",
        "fractional-realization-index", "fractional-seed", "string-seed", "bool-seed",
        "float-region", "string-fit-decay", "bool-k_max", "string-k_max", "string-p", "bool-s",
        "string-bound", "bool-eps", "string-eps", "bare-eps", "conflicting-disorder-seed",
        "conflicting-master-seed", "whole-lattice-box", "whole-lattice-sites", "duplicate-eps",
        "eps-sharing-a-label", *_MALFORMED_SHAPES,
    ],
)
def test_every_command_rejects_bad_configs_with_exit_2(command, change, scan_config, tmp_path, capsys):
    # a dict changes the scan config's keys; anything else is the whole config
    cfg = dict(json.loads(scan_config.read_text()), **change) if isinstance(change, dict) else change
    _write(scan_config, cfg)
    assert main([command, "--config", str(scan_config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert all(named in err for shape, named in _MALFORMED_SHAPES.values() if shape == change)


@pytest.mark.parametrize("command", ["scan", "correlators"])
def test_a_decay_fit_on_too_few_distances_exits_2_before_any_realization(command, tmp_path, capsys, monkeypatch):
    # A 3-site chain holds distances 1 and 2 only; the fit needs three bins
    calls = []
    monkeypatch.setattr(oscent.experiments, "checked_realization", lambda *args: calls.append(args))
    config = _write(tmp_path / "chain.json", {
        "dimension": 1, "lengths": [3], "region": {"corner": [0], "lengths": [1]},
        "disorder": {"k_max": 8.0}, "realizations": 2, "fit_decay": True,
    })
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: bad config: need >= 3 distinct distances for a fit, the lattice has 2\n"
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,length,fit_decay",
    [("scan", 4, True), ("correlators", 4, True), ("scan", 3, False)],
    ids=["scan-4-sites", "correlators-4-sites", "scan-3-sites-without-fit"],
)
def test_a_chain_with_three_distances_or_no_fit_runs(command, length, fit_decay, tmp_path):
    config = _write(tmp_path / "chain.json", {
        "dimension": 1, "lengths": [length], "region": {"corner": [0], "lengths": [1]},
        "disorder": {"k_max": 8.0}, "realizations": 2, "fit_decay": fit_decay,
    })
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_compute_commands_reject_the_tolerance_flag(command, scan_config, tmp_path):
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(scan_config), "--out", str(tmp_path / "o"), "--tolerance", "5"])
    assert info.value.code == 2


@pytest.mark.parametrize("flag", ["--eps", "--p", "--s"], ids=["eps", "p", "s"])
@pytest.mark.parametrize("command", COMMANDS)
def test_compute_commands_reject_the_eps_p_and_s_flags(command, flag, scan_config, tmp_path, capsys):
    # The config file is the one place eps, p and s are set; "1" also parses as a --seed, were --s read as one
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(scan_config), "--out", str(tmp_path / "o"), flag, "1"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["0.5,x", "", "0.5,,1"])
def test_an_eps_flag_that_is_not_a_number_exits_2(flag, two_site_config, tmp_path, capsys):
    # --eps is no flag at all now, so a malformed one exits 2 before any value is read
    with pytest.raises(SystemExit) as info:
        main(["ground-entropy", "--config", str(two_site_config), "--eps", flag, "--out", str(tmp_path / "o")])
    assert info.value.code == 2
    assert f"unrecognized arguments: --eps {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _run_python(script: str, environ=os.environ, timeout=None) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter, with the variables ``environ``, that imports this checkout's ``oscent``.

    Raises subprocess.TimeoutExpired if it runs longer than ``timeout`` seconds.
    """
    src = Path(oscent.spectral.__file__).resolve().parents[1]
    env = dict(environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=timeout)


@pytest.mark.parametrize("command", COMMANDS)
def test_compute_commands_load_neither_scipy_linalg_nor_scipy_special(command, scan_config, tmp_path):
    script = (
        "import sys, oscent.cli\n"
        f"assert oscent.cli.main([{command!r}, '--config', {str(scan_config)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy' or name == 'oscent.oracle'))\n"
    )
    assert _run_python(script).stdout.splitlines()[-1] == "[]"


# Forces the cython_lapack binding, which numpy builds without scipy-openblas64 get.
_FALLBACK = "oscent.lapack._lapack = oscent.lapack._cython_binding()\n"


def test_verify_after_import_reuses_the_loaded_cython_lapack():
    script = (
        "import sys, oscent, oscent.cli, oscent.lapack\n"
        + _FALLBACK
        + "loaded = oscent.lapack._load_cython_lapack()\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "code = oscent.cli.main(['verify'])\n"
        "from scipy.linalg import cython_lapack\n"
        "assert cython_lapack is loaded is oscent.lapack._load_cython_lapack() is sys.modules['scipy.linalg.cython_lapack']\n"
        "print(code)\n"
    )
    assert _run_python(script).stdout.splitlines()[-1] == "0"


def test_importing_cython_lapack_after_oscent_binds_it_on_scipy_linalg():
    script = (
        "import sys, oscent, oscent.lapack\n"
        + _FALLBACK
        + "assert 'scipy.linalg.cython_lapack' not in sys.modules\n"
        "import scipy.linalg.cython_lapack\n"
        "import scipy.linalg\n"
        "print(scipy.linalg.cython_lapack is oscent.lapack._load_cython_lapack() is sys.modules['scipy.linalg.cython_lapack'])\n"
    )
    assert _run_python(script).stdout.splitlines()[-1] == "True"


def test_import_loads_no_scipy_oracle_or_thread_pool():
    script = (
        "import sys, oscent.cli\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] in ('scipy', 'concurrent', 'logging') or name == 'oscent.oracle'))\n"
    )
    assert _run_python(script).stdout.splitlines()[-1] == "[]"


def test_the_oracle_resolves_from_the_package_on_first_use():
    script = (
        "import sys, oscent\n"
        "assert 'oscent.oracle' not in sys.modules\n"
        "from oscent import verify_report\n"
        "import oscent.oracle\n"
        "assert verify_report is oscent.oracle.verify_report and oscent.hermite is oscent.oracle.hermite\n"
        "assert {'oracle', 'verify_report', 'GaussKernel'} <= set(dir(oscent))\n"
        "print(oscent.oracle is sys.modules['oscent.oracle'])\n"
    )
    assert _run_python(script).stdout.splitlines()[-1] == "True"
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        oscent.not_a_name


@pytest.mark.parametrize("fallback", [False, True], ids=["numpy-openblas", "cython-lapack"])
def test_compute_manifests_name_the_bound_lapack(fallback, scan_config, tmp_path):
    out = tmp_path / "o"
    script = (
        "import json, sys, oscent.cli, oscent.lapack\n"
        + (_FALLBACK if fallback else "")
        + f"assert oscent.cli.main(['ground-entropy', '--config', {str(scan_config)!r}, '--out', {str(out)!r}]) == 0\n"
        "print(json.dumps(oscent.lapack.lapack_versions()))\n"
    )
    bound = json.loads(_run_python(script).stdout.splitlines()[-1])
    versions = json.loads((out / "manifest.json").read_text())["versions"]
    assert sorted(versions) == sorted(["oscent", "numpy", "python", *bound])
    assert {key: versions[key] for key in bound} == bound
    assert ("scipy" in bound) == (bound["lapack"] == "scipy.linalg.cython_lapack")
    if fallback:
        assert bound["scipy"] == scipy.__version__


@pytest.mark.parametrize("command", ["scan", "correlators"])
def test_ensemble_commands_reject_matrix_csv(command, two_site_config, tmp_path, capsys):
    assert main([command, "--config", str(two_site_config), "--out", str(tmp_path / "o")]) == 2
    assert "matrix_csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, error",
    [
        ("2,-1,0\n-1,2,-1\n0,-1,2\n", "matrix size 3 != lattice size 2"),
        ("2,-1\n-0.5,2\n", "matrix asymmetry 5.000e-01 exceeds tolerance"),
        ("2,x\n-1,2\n", "could not convert string 'x'"),
        ("2,nan\nnan,2\n", "matrix has non-finite entries"),
        (None, "not found"),
        ("", "no data"),
        ("# a comment\n \n", "no data"),
    ],
    ids=["wrong-size", "asymmetric", "non-numeric", "nan", "missing", "empty", "comment-only"],
)
def test_a_bad_matrix_csv_exits_2(text, error, two_site_config, tmp_path, capsys):
    matrix = Path(json.loads(two_site_config.read_text())["matrix_csv"])
    if text is None:
        matrix.unlink()
    else:
        matrix.write_text(text)
    out = tmp_path / "o"
    assert main(["ground-entropy", "--config", str(two_site_config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad matrix_csv: {matrix}") and error in err
    assert not out.exists()


def test_an_empty_matrix_csv_exits_2_with_only_the_error_under_warnings_as_errors(two_site_config, tmp_path):
    matrix = Path(json.loads(two_site_config.read_text())["matrix_csv"])
    matrix.write_text("")
    argv = ["ground-entropy", "--config", str(two_site_config), "--out", str(tmp_path / "o")]
    ran = _run_python(f"import oscent.cli\nassert oscent.cli.main({argv!r}) == 2\n", dict(os.environ, PYTHONWARNINGS="error"))
    assert ran.stderr == f"error: bad matrix_csv: {matrix}: no data\n"


def test_an_indefinite_matrix_csv_exits_1(two_site_config, tmp_path, capsys):
    # positive definiteness is the paper's hypothesis on h, not a check on the file's shape
    Path(json.loads(two_site_config.read_text())["matrix_csv"]).write_text("1,2\n2,1\n")
    assert main(["ground-entropy", "--config", str(two_site_config), "--out", str(tmp_path / "o")]) == 1
    assert "coupling matrix is not positive definite" in capsys.readouterr().err


def test_a_matrix_csv_config_with_a_list_disorder_exits_2(two_site_config, tmp_path, capsys):
    # a matrix_csv config needs no disorder, but an empty list is not an absent one
    _write(two_site_config, dict(json.loads(two_site_config.read_text()), disorder=[]))
    assert main(["ground-entropy", "--config", str(two_site_config), "--out", str(tmp_path / "o")]) == 2
    assert "disorder must be a JSON object" in capsys.readouterr().err


def test_readme_names_every_config_key_and_compute_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (schema,) = re.findall(r"^```jsonc\n(.*?)^```", readme, re.S | re.M)
    # each line's JSON, a commented-out line included, without its trailing comment
    code = [line.strip().removeprefix("//").split("//")[0] for line in schema.splitlines()]
    keys = set(re.findall(r'"(\w+)"\s*:', "\n".join(code)))
    experiments = oscent.experiments
    assert keys == experiments._CONFIG_KEYS | experiments._DISORDER_KEYS | experiments._REGION_KEYS
    (paragraph,) = re.findall(r"^The five compute commands take .*?(?=\n\n)", readme, re.S | re.M)
    subcommands = oscent.cli._parser()._subparsers._group_actions[0].choices
    flags = {
        command: {flag for action in subcommands[command]._actions for flag in action.option_strings} - {"-h", "--help"}
        for command in COMMANDS
    }
    assert all(named == flags[COMMANDS[0]] for named in flags.values())
    assert set(re.findall(r"--[\w-]+", paragraph)) == flags[COMMANDS[0]]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parents[1]
    lines = re.findall(r"^oscent ([\w-]+)\s+--config (\S+)", (root / "README.md").read_text(), re.M)
    assert len(lines) == 5
    monkeypatch.chdir(root)
    for command, config in lines:
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == 0, command


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


_ONE_SITE = {"dimension": 1, "lengths": [12], "region": {"corner": [5], "lengths": [1]}, "disorder": {"k_max": 8.0},
             "seed": 3, "excitations": {"k_range": [1, 3]}}


@pytest.mark.parametrize("command", ["ground-entropy", "excited-entropy", "ensemble-bound"])
def test_single_realization_commands_write_strict_json(command, tmp_path, monkeypatch):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)  # two_site_ground.json names its matrix from the repository root
    one_site = tmp_path / "one_site.json"
    one_site.write_text(json.dumps(_ONE_SITE))
    names = ["chain_excited", "two_site_ground"]
    if command != "ensemble-bound":  # the other demos break the ensemble hypothesis
        names += ["box_scan", "chain_correlators"]
    for config in [*(root / "demos" / "configs" / f"{name}.json" for name in names), one_site]:
        out = tmp_path / config.stem
        assert main([command, "--config", str(config), "--out", str(out)]) == 0, config.name
        for path in out.glob("*.json"):
            _strict_json(path.read_text())
    if command == "excited-entropy":  # a one-site region has no theorem bound
        payload = _strict_json((tmp_path / "one_site" / "excited_bounds.json").read_text())
        assert payload["excited_theorem_bounds"] == [None] * 3
        assert all(math.isfinite(v) for v in payload["excited_computed_bounds"])


def _ground_entropy(config_path, out):
    assert main(["ground-entropy", "--config", str(config_path), "--out", str(out)]) == 0
    return json.loads((out / "ground_entropy.json").read_text())


def test_ground_entropy_reads_coupling_none(scan_config, tmp_path):
    cfg = dict(json.loads(scan_config.read_text()), coupling="none")
    payload = _ground_entropy(_write(scan_config, cfg), tmp_path / "o")
    assert payload["ground_renyi"] == [0.0, 0.0]
    assert payload["log_negativity"] == 0.0 and payload["von_neumann"] == 0.0


def test_scan_bound_below_the_norm_exits_1(scan_config, tmp_path, capsys):
    cfg = dict(json.loads(scan_config.read_text()), bound=0.5)
    assert main(["scan", "--config", str(_write(scan_config, cfg)), "--out", str(tmp_path / "o")]) == 1
    assert "below the actual square-root norm" in capsys.readouterr().err


def test_correlators_decay_matches_the_scan_fit(scan_config, tmp_path):
    out = tmp_path / "o"
    assert main(["correlators", "--config", str(scan_config), "--out", str(out)]) == 0
    payload = json.loads((out / "decay.json").read_text())
    cfg = dict(json.loads(scan_config.read_text()), fit_decay=True)
    (result,) = run_scan(ExperimentConfig.from_dict(cfg))
    decay = result.decay
    assert (payload["eta"], payload["prefactor"]) == (decay.eta, decay.prefactor)
    scan = tmp_path / "scan"
    assert main(["scan", "--config", str(_write(tmp_path / "fit.json", cfg)), "--out", str(scan), "--threads", "2"]) == 0
    (fit,) = [entry["empirical_area_bound"] for entry in json.loads((scan / "aggregates.json").read_text())]
    assert [payload[key] for key in ("eta", "prefactor", "residual", "area_law_constant")] == [
        fit[key] for key in ("eta", "prefactor", "residual", "constant")
    ]


def test_correlators_bound_below_the_norm_exits_1(scan_config, tmp_path, capsys):
    cfg = dict(json.loads(scan_config.read_text()), bound=0.5)
    out = tmp_path / "o"
    assert main(["correlators", "--config", str(_write(scan_config, cfg)), "--out", str(out)]) == 1
    assert "below the actual square-root norm" in capsys.readouterr().err
    assert not (out / "decay.json").exists()


def test_correlators_output_does_not_depend_on_pool_or_blas_threads(tmp_path):
    # A 3d box: dense BLAS calls at n = 216, whose bits move with unpinned BLAS threads (a chain's do not)
    cfg = {
        "dimension": 3, "lengths": [6, 6, 6], "region": {"corner": [1, 1, 1], "lengths": [2, 2, 2]},
        "disorder": {"k_max": 8.0}, "seed": 2024, "realizations": 4, "s": 0.5,
    }
    config = _write(tmp_path / "box.json", cfg)
    unpinned = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    runs = [(1, unpinned), (2, unpinned), (3, unpinned), (1, dict(unpinned, OPENBLAS_NUM_THREADS="1"))]
    outputs = []
    for position, (threads, environ) in enumerate(runs):
        out = tmp_path / f"run{position}"
        argv = ["correlators", "--config", str(config), "--out", str(out), "--threads", str(threads)]
        _run_python(f"import oscent.cli\nassert oscent.cli.main({argv!r}) == 0\n", environ)
        assert json.loads((out / "manifest.json").read_text())["execution"]["pool_threads"] == threads
        outputs.append([(out / name).read_bytes() for name in ("correlators.csv", "decay.json")])
    assert all(output == outputs[0] for output in outputs[1:])


def test_an_indefinite_realization_inside_the_ensemble_fails_correlators_at_every_pool_size(scan_config, tmp_path, monkeypatch, capsys):
    coupling_matrix = oscent.experiments.coupling_matrix

    def indefinite_at_two(config, index):
        h = coupling_matrix(config, index)
        if index == 2:
            return CouplingMatrix(matrix=np.diag(np.r_[-0.5, np.ones(h.size - 1)]), lattice=config.lattice)
        return h

    monkeypatch.setattr(oscent.experiments, "coupling_matrix", indefinite_at_two)
    cfg = dict(json.loads(scan_config.read_text()), realizations=5)
    errors = []
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}"
        argv = ["correlators", "--config", str(_write(scan_config, cfg)), "--out", str(out), "--threads", str(threads)]
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
        assert not (out / "decay.json").exists() and not (out / "correlators.csv").exists()
    assert errors[0] == errors[1]
    assert "coupling matrix is not positive definite (smallest eigenvalue -5.000e-01)" in errors[0]


SINGLE_SHOT_OUTPUTS = {
    "ground-entropy": "ground_entropy.json",
    "excited-entropy": "excited_bounds.json",
    "ensemble-bound": "ensemble.json",
    "correlators": "decay.json",
}


def _rerun_from_manifest(command, config, tmp_path, names) -> dict:
    """Run ``command`` with eps and s set in its config and ``--seed 5``, rerun it on its manifest config, check ``names`` and the manifest match; the manifest."""
    config = _write(config, dict(json.loads(config.read_text()), eps=[0.75], s=0.25))
    first = tmp_path / "first"
    assert main([command, "--config", str(config), "--out", str(first), "--seed", "5"]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["config"]["eps"] == [0.75]
    assert (manifest["config"]["seed"], manifest["config"]["s"], manifest["seed"]) == (5, 0.25, 5)
    again = tmp_path / "again"
    rerun = _write(tmp_path / "manifest-config.json", manifest["config"])
    assert main([command, "--config", str(rerun), "--out", str(again)]) == 0
    for name in ("manifest.json", *names):
        assert (again / name).read_bytes() == (first / name).read_bytes()
    return manifest


@pytest.mark.parametrize("command", sorted(SINGLE_SHOT_OUTPUTS))
def test_single_shot_manifest_reproduces_the_run(command, scan_config, tmp_path):
    _rerun_from_manifest(command, scan_config, tmp_path, [SINGLE_SHOT_OUTPUTS[command]])


def test_scan_manifest_reproduces_the_run(scan_config, tmp_path):
    cfg = json.loads(scan_config.read_text())
    regions = [cfg.pop("region"), {"corner": [2], "lengths": [5]}]
    config = _write(scan_config, dict(cfg, regions=regions, fit_decay=True))
    manifest = _rerun_from_manifest("scan", config, tmp_path, ["records.csv", "aggregates.json", "scaling.dat"])
    assert manifest["config"]["regions"] == regions and "region" not in manifest["config"]


@pytest.mark.parametrize("command", [command for command in COMMANDS if command != "scan"])
def test_only_scan_reads_regions(command, scan_config, tmp_path, capsys):
    cfg = json.loads(scan_config.read_text())
    _write(scan_config, dict(cfg, regions=[cfg.pop("region")]))
    assert main([command, "--config", str(scan_config), "--out", str(tmp_path / "o")]) == 2
    assert "regions is read by scan only" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_scan_reads_region_as_regions_of_one(scan_config, tmp_path):
    cfg = json.loads(scan_config.read_text())
    as_list = _write(tmp_path / "as-list.json", dict(cfg, regions=[cfg.pop("region")]))
    for name, config in (("one", scan_config), ("list", as_list)):
        assert main(["scan", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    for name in ("records.csv", "aggregates.json", "scaling.dat", "manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "list" / name).read_bytes(), name


def _count_full_eigensolves(monkeypatch, n, fail=False):
    """Count n x n symmetric eigensolves through every solver oscent can reach.

    ``spectral`` solves through ``syevr`` (dense) and ``stemr`` (a
    tridiagonal h, whose first argument is the length-n diagonal).
    """
    calls = []

    def counting(solver, shape=(n, n)):
        def wrapper(a, *args, **kwargs):
            if np.shape(a) == shape:
                calls.append(solver.__name__)
                if fail:
                    raise np.linalg.LinAlgError("eigenvalue solver did not converge")
            return solver(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(oscent.spectral, "syevr", counting(oscent.spectral.syevr))
    monkeypatch.setattr(oscent.spectral, "stemr", counting(oscent.spectral.stemr, (n,)))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return calls


@pytest.mark.parametrize("command", [*sorted(SINGLE_SHOT_OUTPUTS), "scan"])
def test_one_eigensolve_of_h_per_realization(command, scan_config, tmp_path, monkeypatch):
    calls = _count_full_eigensolves(monkeypatch, 12)
    argv = [command, "--config", str(scan_config), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert len(calls) == (3 if command in ("scan", "correlators") else 1)


@pytest.mark.parametrize("command", [*sorted(SINGLE_SHOT_OUTPUTS), "scan"])
def test_a_failed_eigensolve_fails_the_command(command, scan_config, tmp_path, monkeypatch, capsys):
    _count_full_eigensolves(monkeypatch, 12, fail=True)
    argv = [command, "--config", str(scan_config), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert "did not converge" in capsys.readouterr().err
    assert not (tmp_path / "o" / "records.csv").exists()


@pytest.mark.parametrize("command", [*sorted(SINGLE_SHOT_OUTPUTS), "scan", "scan-ground-only"])
def test_commands_factor_and_solve_through_oscent_lapack(command, scan_config, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy's Cholesky was called")

    # Both the scipy names and any copy bound into an oscent module (the
    # oracle's is the referee and stays scipy's).
    for module in [scipy.linalg, scipy.linalg._decomp_cholesky, *(
        module for name, module in sys.modules.items()
        if name.startswith("oscent") and name != "oscent.oracle"
    )]:
        for name in ("cho_factor", "cho_solve"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    factored = []
    potrf = oscent.spectral.potrf
    monkeypatch.setattr(oscent.spectral, "potrf", lambda a: factored.append(np.shape(a)) or potrf(a))
    # Only excited bounds factor the Schur complement (scan_config selects every
    # excitation): a report without them reads its region blocks off the
    # eigenvectors, and correlators needs none
    holds_excited_bounds = command in ("excited-entropy", "scan")
    config = scan_config
    if command == "scan-ground-only":
        command = "scan"
        config = _write(tmp_path / "ground.json", dict(json.loads(scan_config.read_text()), excitations="none"))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert bool(factored) == holds_excited_bounds


@pytest.mark.parametrize(
    "geometry",
    [
        {"dimension": 1, "lengths": [14], "region": {"corner": [5], "lengths": [4]}},
        {"dimension": 2, "lengths": [6, 6], "region": {"corner": [2, 1], "lengths": [2, 3]}},
        {"dimension": 3, "lengths": [4, 4, 4], "region": {"corner": [1, 1, 1], "lengths": [2, 2, 2]}},
    ],
    ids=["1d", "2d", "3d"],
)
@pytest.mark.parametrize("excitations", ["all", {"k_range": [2, 9]}], ids=["all", "range"])
def test_excited_entropy_worst_bound_is_the_scan_record_bit_for_bit(geometry, excitations, tmp_path):
    cfg = dict(
        geometry, disorder={"k_max": 8.0}, seed=2024, realizations=3, realization_index=2,
        excitations=excitations,
    )
    out = tmp_path / "o"
    with single_blas_thread():  # as inside the scan pool, so both see the same BLAS bits
        assert main(["excited-entropy", "--config", str(_write(tmp_path / "c.json", cfg)), "--out", str(out)]) == 0
    payload = json.loads((out / "excited_bounds.json").read_text())
    (result,) = run_scan(ExperimentConfig.from_dict(cfg))
    record = result.records[2]
    worst = int(np.argmax(payload["excited_computed_bounds"]))
    assert payload["excited_computed_bounds"][worst] == record.excited_computed_bound
    assert payload["excited_modes"][worst] == record.excited_mode
    assert payload["excited_theorem_bounds"][worst] == record.excited_theorem_bound
    assert payload["log_negativity"] == record.log_negativity


@pytest.mark.parametrize("part, message", [(1, "energy-split"), (2, "column sum")])
def test_excited_entropy_checks_the_modes_it_does_not_select(part, message, scan_config, tmp_path, monkeypatch, capsys):
    original = oscent.entanglement._profile_arrays

    def broken(*args):  # mode 10 is outside the selected range
        arrays = list(original(*args))
        arrays[part] = arrays[part].copy()
        if part == 1:
            arrays[1][9] += 1e-6
        else:
            arrays[2][9, 0] -= 1e-6
        return tuple(arrays)

    cfg = dict(json.loads(scan_config.read_text()), excitations={"k_range": [1, 3]})
    argv = ["excited-entropy", "--config", str(_write(scan_config, cfg)), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    monkeypatch.setattr(oscent.entanglement, "_profile_arrays", broken)
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SINGLE_SHOT_OUTPUTS))
def test_an_indefinite_realization_fails_every_single_shot_command_alike(command, scan_config, tmp_path, monkeypatch, capsys):
    decompose = oscent.experiments.decompose

    def indefinite(h):
        data = decompose(h)
        eigenvalues = data.eigenvalues.copy()
        eigenvalues[0] = -0.5
        with np.errstate(invalid="ignore"):
            return SpectralData(eigenvalues, np.sqrt(eigenvalues), data.vectors)

    monkeypatch.setattr(oscent.experiments, "decompose", indefinite)
    out = tmp_path / "o"
    assert main([command, "--config", str(scan_config), "--out", str(out)]) == 1
    assert "coupling matrix is not positive definite (smallest eigenvalue -5.000e-01)" in capsys.readouterr().err
    assert not (out / SINGLE_SHOT_OUTPUTS[command]).exists()
