import dataclasses
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oscent.experiments
import oscent.lapack
from oscent import (
    DisorderModel,
    ExperimentConfig,
    RegionSpec,
    assemble_anderson,
    box_region,
    build_box,
    correlator_ensemble,
    run_scan,
    sample_springs,
    write_aggregates_json,
    write_records_csv,
    write_scaling_data,
)
from oscent.cli import main
from oscent.lapack import bound_openblas, potrf, potrs, single_blas_thread, stemr, syevr
from oscent.spectral import partition_blocks
from test_cli import _FALLBACK, _run_python
from test_spectral import _read_only


def anderson(lengths, seed=2024):
    lat = build_box(len(lengths), lengths)
    return assemble_anderson(lat, sample_springs(DisorderModel(k_max=8.0, seed=seed), lat, 0)).matrix


def dense(n, seed=0):
    x = np.random.default_rng(seed).standard_normal((n, n))
    return x + x.T


def spd(n, seed=0):
    x = np.random.default_rng(seed).standard_normal((n, n))
    return x @ x.T + n * np.eye(n)


def assert_same_bits(actual, expected):
    for got, want in zip(actual, expected):
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()


TRIDIAGONAL = [
    pytest.param(lambda: anderson([1]), id="chain-1"),
    pytest.param(lambda: anderson([2]), id="chain-2"),
    pytest.param(lambda: anderson([160]), id="chain-160"),
    pytest.param(lambda: anderson([1, 2]), id="box-1x2"),
    pytest.param(lambda: anderson([1, 1, 2]), id="box-1x1x2"),
]
MATRICES = TRIDIAGONAL + [
    pytest.param(lambda: anderson([1, 1]), id="box-1x1"),
    pytest.param(lambda: anderson([12, 12]), id="box-12x12"),
    pytest.param(lambda: anderson([1, 1, 1]), id="box-1x1x1"),
    pytest.param(lambda: anderson([6, 6, 6]), id="box-6x6x6"),
    pytest.param(lambda: dense(120), id="dense-120"),
]


@pytest.mark.parametrize("matrix", MATRICES)
def test_syevr_is_scipy_eigh_bit_for_bit(matrix):
    matrix = matrix()
    assert_same_bits(syevr(matrix), scipy.linalg.eigh(matrix))


@pytest.mark.parametrize("matrix", TRIDIAGONAL)
def test_stemr_is_scipy_eigh_tridiagonal_bit_for_bit(matrix):
    matrix = matrix()
    d, e = np.diag(matrix), np.diag(matrix, -1)
    expected = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")
    if matrix.shape[0] == 1:  # scipy answers n = 1 without LAPACK, in C order
        assert [a.tobytes() for a in stemr(d, e)] == [a.tobytes() for a in expected]
    else:
        assert_same_bits(stemr(d, e), expected)


def test_syevr_reads_the_lower_triangle_like_eigh():
    matrix = np.random.default_rng(1).standard_normal((30, 30))
    assert_same_bits(syevr(matrix), scipy.linalg.eigh(matrix))


def test_solvers_reject_bad_input():
    with pytest.raises(ValueError, match="infs or NaNs"):
        syevr(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        syevr(np.ones((2, 3)))
    with pytest.raises(ValueError, match="infs or NaNs"):
        stemr([1.0, np.inf], [0.5])
    with pytest.raises(ValueError, match="len"):
        stemr([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="infs or NaNs"):
        potrf(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    for shape in [(2, 3), (4,)]:
        with pytest.raises(ValueError, match="square"):
            potrf(np.ones(shape))
    factor = potrf(spd(3))
    with pytest.raises(ValueError, match="infs or NaNs"):
        potrs(factor, [1.0, np.inf, 0.0])
    with pytest.raises(ValueError, match="infs or NaNs"):
        potrs(np.where(np.eye(3) > 0, np.nan, factor), np.ones(3))
    with pytest.raises(ValueError, match="square"):
        potrs(factor[:, :2], np.ones(3))
    for shape in [(4,), (3, 2, 2)]:
        with pytest.raises(ValueError, match="does not fit"):
            potrs(factor, np.ones(shape))


CHOLESKY_SIZES = [1, 2, 16, 150, 448]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", CHOLESKY_SIZES)
def test_potrf_is_scipy_cho_factor_bit_for_bit(n, order):
    matrix = np.asarray(spd(n), order=order)
    matrix[np.tril_indices(n, -1)] += 1.0  # the strict lower triangle is neither read nor cleaned
    expected, lower = scipy.linalg.cho_factor(matrix)
    assert not lower
    assert_same_bits([potrf(matrix)], [expected])


RIGHT_HAND_SIDES = {
    "vector": lambda n, rng: rng.standard_normal(n),
    "matrix-C": lambda n, rng: rng.standard_normal((n, 5)),
    "matrix-F": lambda n, rng: np.asfortranarray(rng.standard_normal((n, 5))),
    "transposed": lambda n, rng: rng.standard_normal((3, n)).T,
    "one-column": lambda n, rng: rng.standard_normal((n, 1)),
}


@pytest.mark.parametrize("rhs", sorted(RIGHT_HAND_SIDES))
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", CHOLESKY_SIZES)
def test_potrs_is_scipy_cho_solve_bit_for_bit(n, order, rhs):
    factor = np.asarray(scipy.linalg.cho_factor(spd(n))[0], order=order)
    b = RIGHT_HAND_SIDES[rhs](n, np.random.default_rng(n))
    assert_same_bits([potrs(factor, b)], [scipy.linalg.cho_solve((factor, False), b)])


def test_potrf_raises_like_cho_factor_unless_positive_definite():
    matrix = spd(6)
    matrix[3, 3] = -1.0
    with pytest.raises(np.linalg.LinAlgError) as ours:
        potrf(matrix)
    with pytest.raises(np.linalg.LinAlgError) as scipys:
        scipy.linalg.cho_factor(matrix)
    assert str(ours.value) == str(scipys.value) == "4-th leading minor of the array is not positive definite"


def test_solvers_run_on_read_only_inputs_and_give_the_bits_of_writable_ones():
    matrix, chain, positive = dense(40), anderson([30]), spd(40)
    d, e = np.diag(chain), np.diag(chain, -1)
    factor, rhs = potrf(positive), dense(40, 1)[:, :7]
    for solver, args in [
        (syevr, (matrix,)), (syevr, (np.asfortranarray(matrix),)), (stemr, (d, e)),
        (potrf, (positive,)), (potrf, (np.asfortranarray(positive),)), (potrs, (factor, rhs)),
    ]:
        frozen = [_read_only(a) for a in args]
        want = solver(*[np.array(a, order="K") for a in args])
        got = solver(*frozen)
        if solver is potrf or solver is potrs:
            got, want = [got], [want]
        assert_same_bits(got, want)
        for before, after in zip(args, frozen):
            assert after.tobytes() == np.asarray(before).tobytes()
    for solver in (syevr, potrf):  # a read-only input is copied even where it may be overwritten
        frozen = _read_only(np.asfortranarray(positive))
        solver(frozen, overwrite_a=True)
        assert frozen.tobytes() == np.asfortranarray(positive).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_overwrite_a_gives_the_default_bits_and_works_in_a_fortran_input(order):
    matrix, positive = np.asarray(dense(64), order=order), np.asarray(spd(64), order=order)
    overwritable = np.array(matrix, order=order)
    assert_same_bits(syevr(overwritable, overwrite_a=True), syevr(matrix))
    assert np.array_equal(overwritable, matrix) == (order == "C")  # dsyevr worked in the Fortran one
    overwritable = np.array(positive, order=order)
    factor = potrf(overwritable, overwrite_a=True)
    assert_same_bits([factor], [potrf(positive)])
    assert (factor is overwritable) == (order == "F")
    assert np.array_equal(positive, np.asarray(spd(64)))  # the default copies


def test_partition_blocks_names_the_block_that_is_not_positive_definite():
    lattice = build_box(1, [6])
    hsqrt = spd(6)
    hsqrt[5, 5] = -1.0  # a complement site
    with pytest.raises(np.linalg.LinAlgError, match="^complement block is not positive definite: 4-th leading minor"):
        partition_blocks(hsqrt, box_region(lattice, [0], [2]))


def test_concurrent_solves_give_the_serial_bits():
    jobs = [(syevr, (anderson([6, 6, 6], seed),)) for seed in range(4)]
    jobs += [(stemr, (np.diag(m), np.diag(m, -1))) for m in (anderson([400], seed) for seed in range(4))]
    jobs += [(syevr, (dense(200, seed),)) for seed in range(4)]
    jobs += [(potrf, (spd(300, seed),)) for seed in range(4)]
    jobs += [(potrs, (potrf(spd(300, seed)), dense(300, seed)[:, :40])) for seed in range(4)]
    # repeated mixed sizes, so most solves reuse a cached workspace size
    jobs += [(syevr, (dense(n, seed),)) for seed in range(3) for n in (16, 64, 17, 16)]
    jobs += [(stemr, (np.diag(m), np.diag(m, -1))) for m in (anderson([n], seed) for seed in range(3) for n in (16, 90, 16))]
    with single_blas_thread():  # as in the scan pool
        serial = [solver(*args) for solver, args in jobs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solver, *args) for solver, args in jobs]
            concurrent = [future.result(timeout=60) for future in futures]
    for got, want in zip(concurrent, serial):
        if isinstance(want, np.ndarray):
            got, want = [got], [want]
        assert_same_bits(got, want)


def test_a_cached_workspace_gives_the_bits_of_a_fresh_query(monkeypatch):
    matrices = [dense(n, seed) for seed in range(2) for n in (5, 40, 5, 130, 40)]
    warm = [syevr(m) for m in matrices]
    monkeypatch.setattr(oscent.lapack, "_workspace_sizes", {})
    cold = [syevr(m) for m in matrices]
    assert sorted(oscent.lapack._workspace_sizes) == [("dsyevr", 5), ("dsyevr", 40), ("dsyevr", 130)]
    for got, want, m in zip(warm, cold, matrices):
        assert_same_bits(got, want)
        assert_same_bits(got, scipy.linalg.eigh(m))


# The production solves of three realizations: dsyevr on an 8x8x8 box's h
# and on its 4x4x4 region's symplectic core, dpotrf/dpotrs on that region's
# complement and Schur blocks, dstemr on 160- and 400-site chains.
_SOLVES = """
import oscent.lapack
from oscent import DisorderModel, assemble_anderson, box_region, build_box, sample_springs
from oscent.spectral import decompose, partition_blocks, spd_sqrt, symplectic_spectrum


def solves():
    out = []
    for seed in (2024, 7, 99):
        for lengths in ([8, 8, 8], [160], [400]):
            lattice = build_box(len(lengths), lengths)
            h = assemble_anderson(lattice, sample_springs(DisorderModel(k_max=8.0, seed=seed), lattice, 0)).matrix
            data = decompose(h)
            out += [data.eigenvalues, data.vectors]
            if len(lengths) == 3:
                blocks = partition_blocks(spd_sqrt(data), box_region(lattice, [2, 2, 2], [4, 4, 4]))
                spectrum = symplectic_spectrum(blocks)
                out += [blocks.b_inv_ct, blocks.schur, blocks._schur_factor, spectrum.mu, spectrum.a_inv_sqrt]
    return [(a.shape, a.strides, a.tobytes()) for a in out]
"""


def test_numpy_openblas_and_cython_lapack_give_the_same_bits():
    if "scipy" in oscent.lapack.lapack_versions():
        pytest.skip("numpy's BLAS exports no scipy_*_64_ LAPACK routines")
    script = _SOLVES + (
        "numpy_bound = oscent.lapack.lapack_versions()\n"
        "assert 'scipy' not in numpy_bound, numpy_bound\n"
        "first = solves()\n"
        "oscent.lapack._lapack = oscent.lapack._cython_binding()\n"
        "oscent.lapack._workspace_sizes.clear()\n"
        "second = solves()\n"
        "assert oscent.lapack.lapack_versions()['lapack'] == 'scipy.linalg.cython_lapack'\n"
        "print(len(first), [k for k, (a, b) in enumerate(zip(first, second)) if a != b])\n"
    )
    assert _run_python(script).stdout.splitlines()[-1] == "33 []"


def test_the_binding_does_not_depend_on_what_was_imported_first():
    after = _run_python("import oscent.lapack; print(oscent.lapack.lapack_versions())").stdout
    before = _run_python("import scipy.linalg, oscent.lapack; print(oscent.lapack.lapack_versions())").stdout
    assert before == after
    assert oscent.lapack._numpy_binding(()) is None


def _counts():
    return [lib.get_threads() for lib in bound_openblas()]


@pytest.fixture
def blas_at_two_threads():
    """Every OpenBLAS the pin holds at two threads for the test, restored afterwards."""
    libraries = bound_openblas()
    if not libraries:
        pytest.skip("no OpenBLAS is bound")
    saved = _counts()
    for lib in libraries:
        lib.set_threads(2)
    try:
        yield libraries
    finally:
        for lib, count in zip(libraries, saved):
            lib.set_threads(count)


def test_the_pin_holds_the_openblas_the_binding_computes_with():
    binding = oscent.lapack._lapack
    names = [lib.name for lib in bound_openblas()]
    assert names == [Path(path).name for path in binding.openblas]
    assert names == sorted(names)
    assert all("openblas" in name.lower() for name in names)
    if binding.scipy is None:  # the routines are numpy's OpenBLAS
        assert binding.library in names


def test_single_blas_thread_pins_and_restores(blas_at_two_threads):
    with single_blas_thread() as names:
        assert names == [lib.name for lib in blas_at_two_threads]
        assert _counts() == [1] * len(names)
    assert _counts() == [2] * len(names)
    with pytest.raises(RuntimeError):
        with single_blas_thread():
            raise RuntimeError("boom")
    assert _counts() == [2] * len(names)


def test_overlapping_pins_restore_the_counts_when_the_last_exits(blas_at_two_threads):
    pinned, unpinned = [1] * len(blas_at_two_threads), [2] * len(blas_at_two_threads)
    first, second = single_blas_thread(), single_blas_thread()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    try:
        assert _counts() == pinned  # the second pool still runs
    finally:
        second.__exit__(None, None, None)
    assert _counts() == unpinned


def chain_config(**overrides):
    base = dict(
        dimension=1, lengths=(24,), regions=(RegionSpec(corner=(8,), lengths=(6,)),),
        k_max=8.0, realizations=4, seed=5, threads=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_scans_restores_blas_threads_after_it_returns(blas_at_two_threads, monkeypatch):
    seen = []
    coupling_matrix = oscent.experiments.coupling_matrix

    def recording(config, index):
        seen.append(_counts())
        return coupling_matrix(config, index)

    monkeypatch.setattr(oscent.experiments, "coupling_matrix", recording)
    (result,) = run_scan(chain_config())
    pinned = [1] * len(blas_at_two_threads)
    assert seen == [pinned] * 4
    assert _counts() == [2] * len(blas_at_two_threads)
    assert result.execution == {
        "pool_threads": 2,
        "blas_libraries": [lib.name for lib in blas_at_two_threads],
        "blas_threads": 1,
    }


def test_run_scans_restores_blas_threads_after_a_worker_raises(blas_at_two_threads, monkeypatch):
    coupling_matrix = oscent.experiments.coupling_matrix

    def failing(config, index):
        if index == 2:
            raise RuntimeError("worker failed")
        return coupling_matrix(config, index)

    monkeypatch.setattr(oscent.experiments, "coupling_matrix", failing)
    with pytest.raises(RuntimeError, match="worker failed"):
        run_scan(chain_config())
    assert _counts() == [2] * len(blas_at_two_threads)


def test_the_default_pool_has_one_thread_per_usable_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    (result,) = run_scan(chain_config(threads=None))
    assert result.execution["pool_threads"] == 1


def test_opening_a_pool_reads_no_process_map(blas_at_two_threads, monkeypatch):
    def unreadable():
        raise AssertionError("the process map was read")

    seen = []
    coupling_matrix = oscent.experiments.coupling_matrix

    def recording(config, index):
        seen.append(_counts())
        return coupling_matrix(config, index)

    monkeypatch.setattr(oscent.lapack, "_openblas_paths", unreadable)
    monkeypatch.setattr(oscent.experiments, "coupling_matrix", recording)
    config = chain_config()
    (result,) = run_scan(config)
    _, execution = correlator_ensemble(config)
    assert seen == [[1] * len(blas_at_two_threads)] * 8
    assert execution == result.execution
    assert execution["blas_libraries"] == [lib.name for lib in blas_at_two_threads]


def _scipy_brings_an_unbound_openblas():
    bundled = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] == "scipy-openblas"
    return bundled and "scipy" not in oscent.lapack.lapack_versions()


BOX_SCAN = {
    "dimension": 3, "lengths": [8, 8, 8], "region": {"corner": [2, 2, 2], "lengths": [4, 4, 4]},
    "disorder": {"k_max": 8.0}, "seed": 2024, "realizations": 4, "excitations": "all", "fit_decay": True,
}
SCAN_FILES = ("records.csv", "aggregates.json", "scaling.dat")


def test_an_openblas_imported_after_oscent_leaves_the_pin_and_the_bytes_alone(tmp_path):
    # scipy's OpenBLAS, mapped after the binding, stays unpinned at two
    # threads; the pool never calls it, so the 3d scan keeps its bytes.
    config = tmp_path / "box.json"
    config.write_text(json.dumps(BOX_SCAN))
    late, pinned = tmp_path / "late", tmp_path / "pinned"
    scan = ["scan", "--config", str(config), "--threads"]
    script = (
        "import json, oscent.cli, oscent.lapack\n"
        "from oscent import ExperimentConfig, RegionSpec, run_scan\n"
        "chain = ExperimentConfig(dimension=1, lengths=(24,), regions=(RegionSpec(corner=(8,), lengths=(6,)),),\n"
        "                         k_max=8.0, realizations=2, seed=5, threads=2)\n"
        "before = run_scan(chain)[0].execution\n"
        "import scipy.linalg\n"
        f"assert oscent.cli.main({[*scan, '2', '--out', str(late)]!r}) == 0\n"
        "print(json.dumps([before, [path.rsplit('/', 1)[-1] for path in oscent.lapack._openblas_paths()]]))\n"
    )
    ran = _run_python(script, dict(os.environ, OPENBLAS_NUM_THREADS="2"))
    before, mapped = json.loads(ran.stdout.splitlines()[-1])
    after = json.loads((late / "manifest.json").read_text())["execution"]
    assert after == before
    assert set(after["blas_libraries"]) <= set(mapped)
    if _scipy_brings_an_unbound_openblas():
        assert len(mapped) == len(after["blas_libraries"]) + 1  # scipy's, mapped and not pinned
    one = f"import oscent.cli\nassert oscent.cli.main({[*scan, '1', '--out', str(pinned)]!r}) == 0\n"
    _run_python(one, dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    for name in SCAN_FILES:
        assert (late / name).read_bytes() == (pinned / name).read_bytes(), name


def test_the_fallback_binding_pins_the_openblas_cython_lapack_maps():
    if not _scipy_brings_an_unbound_openblas():
        pytest.skip("scipy brings no OpenBLAS of its own, or the cython_lapack binding already mapped it")
    script = (
        "import json, oscent.lapack\n"
        "numpy_set = oscent.lapack._lapack.openblas\n"
        + _FALLBACK
        + "with oscent.lapack.single_blas_thread() as names:\n"
        "    pass\n"
        "print(json.dumps([numpy_set, oscent.lapack._lapack.openblas, oscent.lapack._openblas_paths(), names]))\n"
    )
    numpy_set, fallback_set, mapped, names = json.loads(_run_python(script).stdout.splitlines()[-1])
    assert fallback_set == mapped  # read once cython_lapack had mapped scipy's OpenBLAS
    assert set(numpy_set) < set(fallback_set)
    assert names == [Path(path).name for path in fallback_set]


def _scan_texts(config, tmp_path):
    results = run_scan(config)
    return [
        write(results, tmp_path / name)
        for write, name in (
            (write_records_csv, "records.csv"),
            (write_aggregates_json, "aggregates.json"),
            (write_scaling_data, "scaling.dat"),
        )
    ]


BULK = ExperimentConfig(
    dimension=3, lengths=(8, 8, 8), regions=(RegionSpec(corner=(2, 2, 2), lengths=(4, 4, 4)),),
    k_max=8.0, realizations=4, excitations="all", seed=2024, fit_decay=True, threads=1,
)


def test_a_3d_scan_is_byte_identical_at_one_and_two_threads(tmp_path):
    one = _scan_texts(BULK, tmp_path)
    two = _scan_texts(dataclasses.replace(BULK, threads=2), tmp_path)
    assert one == two


def test_a_3d_scan_does_not_depend_on_the_blas_threads_it_starts_with(blas_at_two_threads, tmp_path):
    two = _scan_texts(BULK, tmp_path)
    for lib in blas_at_two_threads:
        lib.set_threads(1)
    assert _scan_texts(BULK, tmp_path) == two


def test_scan_manifest_records_the_execution(tmp_path):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({
        "dimension": 1, "lengths": [16], "regions": [{"corner": [4], "lengths": [4]}],
        "disorder": {"k_max": 8.0}, "seed": 3, "realizations": 3,
    }))
    out = tmp_path / "out"
    assert main(["scan", "--config", str(config), "--out", str(out), "--threads", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["command", "config", "execution", "seed", "versions"]
    names = [lib.name for lib in bound_openblas()]
    assert manifest["execution"] == {
        "pool_threads": 3,
        "blas_libraries": names,
        "blas_threads": 1 if names else None,
    }
