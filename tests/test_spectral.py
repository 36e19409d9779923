import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oscent.experiments
import oscent.oracle
import oscent.spectral
from oscent import (
    CouplingMatrix,
    DisorderModel,
    ExperimentConfig,
    RegionSpec,
    assemble_anderson,
    assemble_custom,
    box_region,
    build_box,
    correlator_table,
    eigensystem,
    excitation_weights,
    ground_state_renyi,
    load_matrix_csv,
    make_region,
    partition_blocks,
    region_blocks,
    sample_springs,
    spd_inv_sqrt,
    spd_sqrt,
    symplectic_spectrum,
)
from oscent.correlators import MomentSum
from oscent.experiments import coupling_matrix, definite_realization, region_reports
from oscent.spectral import decompose

SQ3 = np.sqrt(3.0)


def two_site():
    lat = build_box(1, [2])
    return assemble_custom(lat, [[2.0, -1.0], [-1.0, 2.0]])


def random_chain(n, seed, k_max=8.0, index=0):
    lat = build_box(1, [n])
    springs = sample_springs(DisorderModel(k_max=k_max, seed=seed), lat, index)
    return lat, assemble_anderson(lat, springs)


def random_box(lengths, seed):
    lat = build_box(len(lengths), lengths)
    return assemble_anderson(lat, sample_springs(DisorderModel(k_max=8.0, seed=seed), lat, 0))


def test_eigensystem_identity():
    lat = build_box(1, [3])
    data = eigensystem(assemble_custom(lat, np.eye(3)))
    np.testing.assert_allclose(data.frequencies, 1.0)
    np.testing.assert_allclose(data.vectors, np.eye(3))


def test_eigensystem_two_site_hand_values():
    data = eigensystem(two_site())
    np.testing.assert_allclose(data.eigenvalues, [1.0, 3.0], atol=1e-14)
    inv_sq2 = 1.0 / np.sqrt(2.0)
    vectors = data.vectors * np.sign(data.vectors[0])  # each eigenvector is fixed only up to sign
    np.testing.assert_allclose(vectors[:, 0], [inv_sq2, inv_sq2], atol=1e-14)
    np.testing.assert_allclose(vectors[:, 1], [inv_sq2, -inv_sq2], atol=1e-14)


def test_eigensystem_diagonal():
    lat = build_box(1, [2])
    data = eigensystem(assemble_custom(lat, np.diag([4.0, 9.0])))
    np.testing.assert_allclose(data.frequencies, [2.0, 3.0])


def test_eigensystem_rejects_indefinite():
    lat = build_box(1, [2])
    with pytest.raises(np.linalg.LinAlgError):
        eigensystem(assemble_custom(lat, [[1.0, 2.0], [2.0, 1.0]]))


def test_sqrt_examples():
    lat = build_box(1, [2])
    np.testing.assert_allclose(
        spd_sqrt(assemble_custom(lat, np.diag([4.0, 9.0]))), np.diag([2.0, 3.0]), atol=1e-14
    )
    a = (SQ3 + 1.0) / 2.0
    b = (1.0 - SQ3) / 2.0
    np.testing.assert_allclose(spd_sqrt(two_site()), [[a, b], [b, a]], atol=1e-14)
    np.testing.assert_allclose(spd_sqrt(assemble_custom(lat, np.eye(2))), np.eye(2), atol=1e-15)


def test_sqrt_squares_back_on_large_random_spd():
    rng = np.random.default_rng(3)
    n = 400
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = basis @ np.diag(rng.uniform(0.1, 10.0, size=n)) @ basis.T
    m = 0.5 * (m + m.T)
    root = spd_sqrt(m)
    np.testing.assert_allclose(root @ root, m, rtol=0, atol=1e-8 * np.linalg.norm(m, 2))
    np.testing.assert_allclose(spd_inv_sqrt(m) @ root, np.eye(n), atol=1e-8)


def test_partition_two_site_scalars():
    region = make_region(build_box(1, [2]), [(0,)])
    blocks = partition_blocks(spd_sqrt(two_site()), region)
    a = (SQ3 + 1.0) / 2.0
    b = (1.0 - SQ3) / 2.0
    assert blocks.a[0, 0] == pytest.approx(a, abs=1e-14)
    assert blocks.c[0, 0] == pytest.approx(b, abs=1e-14)
    assert blocks.b_inv_ct[0, 0] == pytest.approx(b / a, abs=1e-14)  # complement block is a too
    assert blocks.schur[0, 0] == pytest.approx(a - b * b / a, abs=1e-14)


def test_partition_decoupled_schur_equals_a():
    lat = build_box(1, [4])
    hsqrt = np.diag([1.0, 2.0, 3.0, 4.0])
    region = make_region(lat, [(0,), (1,)])
    blocks = partition_blocks(hsqrt, region)
    assert np.array_equal(blocks.schur, blocks.a)


def test_partition_rejects_full_region():
    lat = build_box(1, [3])
    region = make_region(lat, lat.sites)
    with pytest.raises(ValueError):
        partition_blocks(np.eye(3), region)


def test_symplectic_decoupled_modes_are_exactly_one():
    lat = build_box(1, [3])
    region = make_region(lat, [(0,), (1,)])
    blocks = partition_blocks(np.diag([1.0, 2.0, 3.0]), region)
    spec = symplectic_spectrum(blocks)
    np.testing.assert_array_equal(spec.mu, [1.0, 1.0])


def test_symplectic_two_site_value():
    region = make_region(build_box(1, [2]), [(0,)])
    blocks = partition_blocks(spd_sqrt(two_site()), region)
    spec = symplectic_spectrum(blocks)
    mu_sq_expected = 1.0 / (1.0 - (2.0 - SQ3) ** 2)
    assert spec.mu[0] ** 2 == pytest.approx(mu_sq_expected, abs=1e-12)
    assert spec.mu[0] == pytest.approx(1.0380, abs=1e-4)


def test_symplectic_spectrum_reconstructs_core_and_is_orthogonal():
    lat, h = random_chain(8, seed=17)
    region = make_region(lat, [(2,), (3,), (4,)])
    blocks = partition_blocks(spd_sqrt(h), region)
    spec = symplectic_spectrum(blocks)
    np.testing.assert_allclose(spec.f2.T @ spec.f2, np.eye(3), atol=1e-8)
    a_sqrt = spd_sqrt(blocks.a)
    core = a_sqrt @ np.linalg.solve(blocks.schur, a_sqrt)
    np.testing.assert_allclose(
        spec.f2 @ np.diag(spec.mu**2) @ spec.f2.T, core, atol=1e-8
    )


def test_mu_at_least_one_across_realizations():
    for index in range(20):
        lat, h = random_chain(8, seed=31, index=index)
        region = make_region(lat, [(1,), (2,), (3,)])
        spec = symplectic_spectrum(partition_blocks(spd_sqrt(h), region))
        assert np.all(spec.mu >= 1.0 - 1e-12)
        sigma = (1.0 - spec.mu**2) / (1.0 + spec.mu**2)
        kappa = 2.0 * spec.mu / (1.0 + spec.mu**2)
        assert np.all(sigma <= 0.0) and np.all(sigma > -1.0)
        assert np.all(kappa > 0.0) and np.all(kappa <= 1.0)


def test_change_of_variables_diagonalizes_reduced_form():
    # The oracle's frame F is A^{-1/2} f2 diag(sqrt(2 mu^2/(1+mu^2))) up to column
    # signs, so F F^T is fixed, and F takes a and schur^{-1} to diagonal forms.
    lat, h = random_chain(6, seed=13)
    region = make_region(lat, [(0,), (1,)])
    blocks = partition_blocks(spd_sqrt(h), region)
    spec = symplectic_spectrum(blocks)
    f = oscent.oracle._reduced_ground_state(h, region).f
    mu_sq = spec.mu**2
    expected = spec.a_inv_sqrt @ spec.f2 @ np.diag(2.0 * mu_sq / (1.0 + mu_sq))
    np.testing.assert_allclose(f @ f.T, expected @ spec.f2.T @ spec.a_inv_sqrt, atol=1e-12)
    np.testing.assert_allclose(f.T @ blocks.a @ f, np.diag(2.0 * mu_sq / (1.0 + mu_sq)), atol=1e-12)
    f_inv = np.linalg.inv(f)
    np.testing.assert_allclose(
        f_inv @ np.linalg.inv(blocks.schur) @ f_inv.T, np.diag((1.0 + mu_sq) / 2.0), atol=1e-10
    )


def test_sigma_theta_lemma_identities():
    lat, h = random_chain(9, seed=41)
    region = make_region(lat, [(3,), (4,), (5,)])
    blocks = partition_blocks(spd_sqrt(h), region)
    spec = symplectic_spectrum(blocks)
    sigma = (1.0 - spec.mu**2) / (1.0 + spec.mu**2)
    ci = region.complement_indices
    b_factor = scipy.linalg.cho_factor(spd_sqrt(h)[np.ix_(ci, ci)])
    a_inv_sqrt = spec.a_inv_sqrt
    theta = a_inv_sqrt @ blocks.c @ scipy.linalg.cho_solve(b_factor, blocks.c.T) @ a_inv_sqrt
    theta = 0.5 * (theta + theta.T)
    eye = np.eye(region.size)
    lhs_b = np.linalg.inv(eye - 0.5 * theta)
    np.testing.assert_allclose(
        spec.f2 @ np.diag(1.0 - sigma) @ spec.f2.T, lhs_b, atol=1e-8
    )
    lhs_c = eye - theta
    np.testing.assert_allclose(
        spec.f2 @ np.diag((1.0 + sigma) / (1.0 - sigma)) @ spec.f2.T,
        lhs_c,
        atol=1e-8,
    )
    # coupling strength strictly between 0 and 1 when the complement dominates
    theta_eigs = np.linalg.eigvalsh(theta)
    assert np.all(theta_eigs > 0.0) and np.all(theta_eigs < 1.0)


def test_eigenvectors_are_deterministic():
    lat, h = random_chain(12, seed=71)
    first = eigensystem(h).vectors
    second = eigensystem(h).vectors
    assert np.array_equal(first, second)


def _negate_half(columns, rng):
    """``columns`` with a random half of its columns negated, which is exact."""
    signs = np.ones(columns.shape[1])
    signs[rng.permutation(columns.shape[1])[: columns.shape[1] // 2]] = -1.0
    return columns * signs


@pytest.mark.parametrize(
    "shape",
    [
        dict(dimension=1, lengths=(40,), regions=(RegionSpec(corner=(16,), lengths=(8,)),)),
        dict(dimension=3, lengths=(4, 4, 4), regions=(RegionSpec(corner=(1, 1, 1), lengths=(2, 2, 2)),)),
    ],
    ids=["chain", "box"],
)
def test_no_output_reads_the_sign_of_an_eigenvector_or_a_mode(shape, monkeypatch):
    # Every output sums products of two entries of one column of V or f2,
    # or squares a projection on one; negating a column moves no bit.
    config = ExperimentConfig(k_max=8.0, master_seed=2024, **shape)
    lattice = build_box(config.dimension, config.lengths)
    region = config.regions[0].on(lattice)
    modes = list(range(1, lattice.size + 1))

    def outputs(data):
        reports = [region_reports(config, data, [region], chosen)[0].to_json() for chosen in ((), modes)]
        blocks = partition_blocks(spd_sqrt(data), region)
        weights = excitation_weights(data, blocks, oscent.experiments.symplectic_spectrum(blocks))
        return reports, weights.tobytes(), correlator_table(lattice, data).values.tobytes()

    data = definite_realization(config, lattice, 0)
    expected = outputs(data)
    rng = np.random.default_rng(5)
    spectrum_of = oscent.experiments.symplectic_spectrum
    negated = []

    def negated_frame(blocks):
        spectrum = spectrum_of(blocks)
        negated.append(spectrum.size)
        return dataclasses.replace(spectrum, f2=_negate_half(spectrum.f2, rng))

    monkeypatch.setattr(oscent.experiments, "symplectic_spectrum", negated_frame)
    assert outputs(dataclasses.replace(data, vectors=_negate_half(data.vectors, rng))) == expected
    assert negated == [region.size] * 3


def test_a_chain_decomposes_holding_little_more_than_its_eigenvectors():
    n = 400
    _, h = random_chain(n, seed=2024)
    decompose(h)  # warm: the binding and its workspace queries
    tracemalloc.start()
    try:
        decompose(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * n * n * 8


def test_decompose_never_raises_and_eigensystem_checks_it():
    indefinite = assemble_custom(build_box(1, [2]), [[1.0, 2.0], [2.0, 1.0]])
    data = decompose(indefinite)
    np.testing.assert_allclose(data.eigenvalues, [-1.0, 3.0], atol=1e-12)
    assert np.isnan(data.frequencies[0])
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        eigensystem(data)
    lat, h = random_chain(12, seed=71)
    data = decompose(h)
    assert eigensystem(data) is data
    fresh = eigensystem(h)
    for name in ("eigenvalues", "frequencies", "vectors"):
        assert np.array_equal(getattr(fresh, name), getattr(data, name))


def test_partition_blocks_keeps_the_complement_solve():
    lat, h = random_chain(10, seed=5)
    region = make_region(lat, [(3,), (4,), (5,)])
    hsqrt = spd_sqrt(h)
    blocks = partition_blocks(hsqrt, region)
    assert blocks.b_inv_ct.shape == (7, 3)
    ci = region.complement_indices
    np.testing.assert_allclose(hsqrt[np.ix_(ci, ci)] @ blocks.b_inv_ct, blocks.c.T, atol=1e-13)


def _spy(monkeypatch, name, fail=False):
    """Record the shapes of the first argument of ``oscent.spectral.<name>``.

    ``stemr`` is the tridiagonal route (its first argument is the length-n
    diagonal), ``syevr`` the dense one.
    """
    solver = getattr(oscent.spectral, name)
    shapes = []

    def wrapper(a, *args, **kwargs):
        shapes.append(np.shape(a))
        if fail:
            raise np.linalg.LinAlgError("dstemr failed")
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(oscent.spectral, name, wrapper)
    return shapes


def _assert_dense_bits(data, matrix):
    """``data`` carries the exact bits of dense eigh."""
    eigenvalues, vectors = scipy.linalg.eigh(0.5 * (matrix + matrix.T))
    assert data.eigenvalues.tobytes() == eigenvalues.tobytes()
    assert data.vectors.tobytes() == vectors.tobytes()
    assert data.frequencies.tobytes() == np.sqrt(eigenvalues).tobytes()


@pytest.mark.parametrize("n", [2, 3, 12, 160, 400])
def test_a_chain_takes_the_tridiagonal_route_bit_for_bit(n, monkeypatch):
    tridiagonal = _spy(monkeypatch, "stemr")
    dense = _spy(monkeypatch, "syevr")
    for seed in (2024, 7):
        _, h = random_chain(n, seed)
        _assert_dense_bits(decompose(h), h.matrix)
    assert tridiagonal == [(n,), (n,)]
    assert dense == []


@pytest.mark.parametrize("n", [2, 3, 12, 160, 400])
def test_decoupled_springs_take_the_tridiagonal_route_bit_for_bit(n, monkeypatch):
    tridiagonal = _spy(monkeypatch, "stemr")
    config = ExperimentConfig(
        dimension=1, lengths=(n,), regions=(RegionSpec(corner=(0,), lengths=(1,)),),
        k_max=8.0, master_seed=5, coupling_kind="none",
    )
    h = coupling_matrix(config, build_box(1, [n]), 0)
    _assert_dense_bits(decompose(h), h.matrix)
    assert tridiagonal == [(n,)]


@pytest.mark.parametrize("n", [2, 3, 12, 160, 400])
def test_a_tridiagonal_matrix_csv_takes_the_route_bit_for_bit(n, tmp_path, monkeypatch):
    tridiagonal = _spy(monkeypatch, "stemr")
    lat, h = random_chain(n, seed=31)
    path = tmp_path / "chain.csv"
    np.savetxt(path, h.matrix, delimiter=",")
    loaded = load_matrix_csv(path, lat)
    _assert_dense_bits(decompose(loaded), loaded.matrix)
    assert tridiagonal == [(n,)]


def _tridiagonal_with_gaps(n):
    """A random chain with three of its bonds set to exactly zero: still tridiagonal."""
    _, h = random_chain(n, seed=13)
    matrix = h.matrix.copy()
    for i in (0, n // 2, n - 2):
        matrix[i, i + 1] = matrix[i + 1, i] = 0.0
    return matrix


def _one_entry_off_the_band(n):
    """A random chain plus one symmetric pair of entries at |i - j| = 2."""
    _, h = random_chain(n, seed=17)
    matrix = h.matrix.copy()
    matrix[3, 5] = matrix[5, 3] = -0.25
    return matrix


def _ring(n):
    _, h = random_chain(n, seed=3)
    matrix = h.matrix.copy()
    matrix[0, -1] = matrix[-1, 0] = -1.0
    return matrix


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param(lambda: random_box([6, 6], seed=2024).matrix, id="2d-box"),
        pytest.param(lambda: _ring(12), id="ring"),
        pytest.param(lambda: _one_entry_off_the_band(12), id="one-entry-at-distance-2"),
        pytest.param(lambda: np.array([[2.5]]), id="one-site"),
    ],
)
def test_other_matrices_keep_the_dense_route(matrix, monkeypatch):
    matrix = matrix()
    tridiagonal = _spy(monkeypatch, "stemr")
    dense = _spy(monkeypatch, "syevr")
    _assert_dense_bits(decompose(matrix), matrix)
    assert tridiagonal == []
    assert dense == [matrix.shape]


def test_a_failed_dstemr_falls_back_to_dense_eigh(monkeypatch):
    tridiagonal = _spy(monkeypatch, "stemr", fail=True)
    dense = _spy(monkeypatch, "syevr")
    _, h = random_chain(40, seed=9)
    _assert_dense_bits(decompose(h), h.matrix)
    assert tridiagonal == [(40,)]
    assert dense == [(40, 40)]


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param(lambda: _tridiagonal_with_gaps(12), id="tridiagonal-with-zero-bonds"),
        pytest.param(lambda: np.array([[2.0, -0.5], [-0.5, 3.0]]), id="two-site"),
        pytest.param(lambda: np.diag([3.0, 1.0, 2.0]), id="diagonal"),
    ],
)
def test_tridiagonal_matrices_take_the_tridiagonal_route(matrix, monkeypatch):
    matrix = matrix()
    tridiagonal = _spy(monkeypatch, "stemr")
    dense = _spy(monkeypatch, "syevr")
    _assert_dense_bits(decompose(matrix), matrix)
    assert tridiagonal == [(matrix.shape[0],)]
    assert dense == []


def test_nan_off_the_band_counts_as_an_entry(monkeypatch):
    tridiagonal = _spy(monkeypatch, "stemr")
    dense = _spy(monkeypatch, "syevr")
    matrix = _tridiagonal_with_gaps(8)
    matrix[0, 2] = matrix[2, 0] = np.nan
    with pytest.raises(ValueError):
        decompose(matrix)
    assert tridiagonal == []
    assert dense == [(8, 8)]


def _read_only(value):
    """A read-only copy of an array, or the dataclass with each of its arrays so copied."""
    if isinstance(value, np.ndarray):
        value = np.array(value, order="K")
        value.flags.writeable = False
        return value
    arrays = {f.name: _read_only(getattr(value, f.name)) for f in dataclasses.fields(value)
              if isinstance(getattr(value, f.name), np.ndarray)}
    return dataclasses.replace(value, **arrays)


def _writable(value):
    return value if not isinstance(value, np.ndarray) else np.array(value, order="K")


def _bits(value):
    if isinstance(value, np.ndarray):
        return [value.shape, value.strides, value.tobytes()]
    return [_bits(getattr(value, f.name)) for f in dataclasses.fields(value) if isinstance(getattr(value, f.name), np.ndarray)]


def _every_step(given, lengths, corner, sides):
    """Each step of a realization that works in place, every input passed through ``given``; all their outputs."""
    lattice = build_box(len(lengths), lengths)
    region = box_region(lattice, corner, sides)
    h = CouplingMatrix(given(random_box(lengths, 11).matrix), lattice)
    data = decompose(h)
    hsqrt = spd_sqrt(given(data))
    blocks = partition_blocks(given(hsqrt), region)
    spectrum = symplectic_spectrum(given(blocks))
    rows = region_blocks(given(data), region)
    table = correlator_table(h)
    moments = MomentSum()
    moments.add(given(table.values))
    moments.add(given(table.values))
    return [
        data, eigensystem(h), eigensystem(given(data)), hsqrt, spd_inv_sqrt(given(data)), blocks, spectrum,
        rows, symplectic_spectrum(given(rows)),
        excitation_weights(given(data), given(blocks), given(spectrum)),
        table.values, correlator_table(lattice, given(data)).values, moments.total,
    ]


@pytest.mark.parametrize("lengths, corner, sides", [((20,), (6,), (5,)), ((4, 4, 4), (1, 1, 1), (2, 2, 2))], ids=["chain", "box"])
def test_every_step_runs_on_read_only_inputs_and_gives_the_bits_of_writable_ones(lengths, corner, sides):
    frozen = _every_step(_read_only, lengths, corner, sides)
    writable = _every_step(_writable, lengths, corner, sides)
    assert [_bits(value) for value in frozen] == [_bits(value) for value in writable]


DEMOS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# One realization each: the single-shot chain, a 2d and a 3d box, decoupled
# springs, a 1-site region, and (no disorder, so once) the two-site demo.
_ROUTE_CASES = {
    "chain-400": dict(dimension=1, lengths=(400,), regions=(RegionSpec(corner=(192,), lengths=(16,)),)),
    "2d-20x20": dict(dimension=2, lengths=(20, 20), regions=(RegionSpec(corner=(6, 6), lengths=(8, 8)),)),
    "3d-8x8x8": dict(dimension=3, lengths=(8, 8, 8), regions=(RegionSpec(corner=(2, 2, 2), lengths=(4, 4, 4)),)),
    "decoupled": dict(dimension=1, lengths=(60,), regions=(RegionSpec(corner=(26,), lengths=(8,)),), coupling_kind="none"),
    "one-site": dict(dimension=1, lengths=(3,), regions=(RegionSpec(sites=((1,),)),)),
}


def _route_config(case, seed):
    if case == "two-site-demo":
        raw = json.loads((DEMOS / "two_site_ground.json").read_text())
        return ExperimentConfig.from_dict(dict(raw, matrix_csv=str(DEMOS / "two_site_matrix.csv")))
    return ExperimentConfig(k_max=8.0, master_seed=seed, **_ROUTE_CASES[case])


@pytest.mark.parametrize(
    "case, seed",
    [(case, seed) for case in _ROUTE_CASES for seed in (2024, 7, 99)] + [("two-site-demo", None)],
)
def test_the_region_route_gives_the_schur_routes_spectrum(case, seed):
    config = _route_config(case, seed)
    lattice = build_box(config.dimension, config.lengths)
    region = config.regions[0].on(lattice)
    data = definite_realization(config, lattice, config.realization_index)
    region_mu = symplectic_spectrum(region_blocks(data, region)).mu
    schur_mu = symplectic_spectrum(partition_blocks(spd_sqrt(data), region)).mu
    np.testing.assert_allclose(region_mu, schur_mu, rtol=0, atol=1e-12)
    for eps in (0.5, 0.75, 1.0):
        # modes whose mu^2 - 1 is roundoff move E_eps by up to about 3e-7 at
        # eps = 1/2; at smaller eps they weigh more (2e-2 relative at eps = 0.1)
        expected = ground_state_renyi(schur_mu, eps)
        assert abs(ground_state_renyi(region_mu, eps) - expected) <= 1e-6 * max(1.0, abs(expected))
    if lattice.size <= 3:
        oracle_mu = oscent.oracle.symplectic_eigenvalues(coupling_matrix(config, lattice, config.realization_index), region)
        np.testing.assert_allclose(region_mu, oracle_mu, rtol=0, atol=1e-8)
        np.testing.assert_allclose(schur_mu, oracle_mu, rtol=0, atol=1e-8)


def test_region_blocks_are_the_region_blocks_of_both_roots():
    data = eigensystem(random_box((5, 5), 3))
    region = box_region(build_box(2, (5, 5)), (1, 1), (3, 2))
    blocks = region_blocks(data, region)
    ri = np.ix_(region.indices, region.indices)
    np.testing.assert_allclose(blocks.a, spd_sqrt(data)[ri], rtol=0, atol=1e-13)
    np.testing.assert_allclose(blocks.x, spd_inv_sqrt(data)[ri], rtol=0, atol=1e-13)
    np.testing.assert_allclose(blocks.x, np.linalg.inv(partition_blocks(spd_sqrt(data), region).schur), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(blocks.a, blocks.a.T)
    np.testing.assert_array_equal(blocks.x, blocks.x.T)
    with pytest.raises(ValueError, match="does not match lattice size"):
        region_blocks(data, box_region(build_box(2, (4, 4)), (1, 1), (2, 2)))
