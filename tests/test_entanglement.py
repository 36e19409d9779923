import json
import math
import re

import numpy as np
import pytest
import scipy.linalg

import oscent.entanglement
from oscent import (
    DisorderModel,
    assemble_anderson,
    assemble_custom,
    box_region,
    bruteforce_reduced_diagonal,
    build_box,
    eigensystem,
    entropy_report,
    excitation_profile,
    excitation_weights,
    excited_diagonal_element,
    excited_diagonal_trace,
    excited_half_renyi_bounds,
    ground_state_renyi,
    half_renyi_factor,
    log_negativity,
    log_renyi_factor,
    make_region,
    occupation_cutoffs,
    partition_blocks,
    renyi_factor,
    sample_springs,
    single_excitation_ensemble_bound,
    spd_sqrt,
    symplectic_spectrum,
)
from oscent.entanglement import EPS_MIN
from oscent.spectral import SpectralData


def series_renyi(mu, eps, terms=400):
    """Independent oracle: sum the reduced-state eigenvalue series directly."""
    total_log = 0.0
    for m in np.atleast_1d(mu):
        n = np.arange(terms)
        lam = (2.0 / (1.0 + m)) * ((m - 1.0) / (m + 1.0)) ** n
        total_log += math.log(np.sum(lam**eps))
    return total_log / (1.0 - eps)


def coupled_system(springs=(1.0, 1.0), region_sites=((0,),)):
    lat = build_box(1, [len(springs)])
    h = assemble_anderson(lat, np.asarray(springs, dtype=float))
    data = eigensystem(h)
    blocks = partition_blocks(spd_sqrt(data), make_region(lat, region_sites))
    return lat, h, data, blocks, symplectic_spectrum(blocks)


def decoupled_system(freqs=(1.5, 2.5), region_sites=((0,),)):
    lat = build_box(1, [len(freqs)])
    h = assemble_custom(lat, np.diag(np.square(freqs)))
    data = eigensystem(h)
    blocks = partition_blocks(spd_sqrt(data), make_region(lat, region_sites))
    return lat, h, data, blocks, symplectic_spectrum(blocks)


def test_renyi_factor_at_one_is_one():
    for eps in (0.1, 0.5, 0.9):
        assert renyi_factor(1.0, eps) == pytest.approx(1.0, abs=1e-15)


def test_renyi_factor_exact_value_at_five_fourths():
    # sqrt(9/8) - sqrt(1/8) = 1/sqrt(2), hence f = sqrt(2)
    assert renyi_factor(1.25, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_renyi_factor_domain_errors():
    with pytest.raises(ValueError):
        renyi_factor(0.9, 0.5)
    with pytest.raises(ValueError):
        renyi_factor(2.0, 1.0)
    with pytest.raises(ValueError):
        renyi_factor(2.0, 0.0)


def test_subnormal_eps_is_rejected_by_both_entry_points():
    mu = np.array([1.5, 3.0])
    assert np.all(np.isfinite(renyi_factor(mu, EPS_MIN)))
    assert math.isfinite(ground_state_renyi(mu, EPS_MIN))
    for eps in (1e-320, EPS_MIN / 2):
        with pytest.raises(ValueError, match=re.escape(repr(EPS_MIN))):
            renyi_factor(mu, eps)  # the factor itself would overflow to inf
        with pytest.raises(ValueError, match=re.escape(repr(EPS_MIN))):
            ground_state_renyi(mu, eps)


@pytest.mark.parametrize("x", [1.1, 2.0, 10.0])
def test_half_factor_upper_bound(x):
    assert renyi_factor(x, 0.5) <= math.sqrt(x * x - 1.0) + 1.0


def test_half_factor_closed_form_identity():
    xs = np.array([1.0, 1.01, 1.25, 2.0, 7.5, 40.0])
    np.testing.assert_allclose(renyi_factor(xs, 0.5), half_renyi_factor(xs), rtol=1e-14)


def _mp_renyi_factor(x, eps):
    """f_eps(x) at 50 digits, from the difference of powers as defined."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x, eps = mpmath.mpf(x), mpmath.mpf(eps)
        return 1 / (((x + 1) / 2) ** eps - ((x - 1) / 2) ** eps)


@pytest.mark.parametrize("x", [1.0, 1.0 + 1e-7, 30.0, 1e10])
@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_renyi_factor_matches_mpmath(x, eps):
    expected = _mp_renyi_factor(x, eps)
    assert abs(renyi_factor(x, eps) - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("x", [1.0, 1.0 + 1e-7, 30.0, 1e10])
def test_half_renyi_factor_matches_mpmath(x):
    expected = _mp_renyi_factor(x, 0.5)
    assert abs(half_renyi_factor(x) - expected) <= 1e-13 * abs(expected)


def test_ground_renyi_is_zero_for_product_state():
    mu = np.ones(5)
    for eps in (0.2, 0.5, 0.9, 1.0):
        assert ground_state_renyi(mu, eps) == 0.0


def test_ground_renyi_two_site_value_against_series_oracle():
    *_, spec = coupled_system()
    value = ground_state_renyi(spec, 0.5)
    assert value == pytest.approx(series_renyi(spec.mu, 0.5), abs=1e-12)
    # frozen from the series oracle (two coupled unit-spring oscillators)
    assert value == pytest.approx(0.274653072167027, abs=1e-12)
    assert value == pytest.approx(2.0 * math.log(half_renyi_factor(spec.mu[0])), abs=1e-14)


@pytest.mark.parametrize("eps", [0.25, 0.6, 0.85])
def test_ground_renyi_matches_series_on_random_spectra(eps):
    rng = np.random.default_rng(5)
    for _ in range(10):
        mu = 1.0 + rng.uniform(0.0, 1.5, size=4)
        assert ground_state_renyi(mu, eps) == pytest.approx(series_renyi(mu, eps), rel=1e-10)


def test_renyi_non_increasing_in_eps():
    values = [ground_state_renyi(np.array([1.5]), e) for e in (0.3, 0.5, 0.9, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_von_neumann_limit_consistency():
    rng = np.random.default_rng(29)
    for _ in range(50):
        mu = 1.0 + rng.uniform(0.0, 2.0, size=5)
        near = ground_state_renyi(mu, 1.0 - 1e-6)
        exact = ground_state_renyi(mu, 1.0)
        assert abs(near - exact) <= 1e-4


def test_bound_chain_orders_renyi_values():
    rng = np.random.default_rng(31)
    for _ in range(20):
        mu = 1.0 + rng.uniform(0.0, 1.0, size=3)
        logneg = log_negativity(mu)
        vn = ground_state_renyi(mu, 1.0)
        for eps in (0.55, 0.7, 0.9):
            value = ground_state_renyi(mu, eps)
            assert vn - 1e-12 <= value <= logneg + 1e-12


def test_log_negativity_equals_half_renyi():
    *_, spec = coupled_system(springs=(0.3, 2.0))
    assert log_negativity(spec) == ground_state_renyi(spec, 0.5)
    assert log_negativity(np.array([1.25])) == pytest.approx(math.log(2.0), abs=1e-14)


def test_profile_decoupled_examples():
    lat, h, data, blocks, spec = decoupled_system()
    nu, _, _ = oscent.entanglement._profile_arrays(data, blocks, spec)
    inside = excitation_profile(data, blocks, spec, 1)
    assert nu[0, 0] == pytest.approx(1.0)
    assert inside[0] == pytest.approx(2.0, abs=1e-12)  # saturates the row-sum cap
    outside = excitation_profile(data, blocks, spec, 2)
    assert outside[0] == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(data.vectors[blocks.region.indices, 1], 0.0, atol=1e-14)
    np.testing.assert_allclose(nu[:, 1], 0.0, atol=1e-14)
    with pytest.raises(IndexError):
        excitation_profile(data, blocks, spec, 3)


def test_weight_column_sums_equal_two():
    lat = build_box(1, [10])
    springs = sample_springs(DisorderModel(k_max=8.0, seed=3), lat, 0)
    h = assemble_anderson(lat, springs)
    data = eigensystem(h)
    blocks = partition_blocks(spd_sqrt(data), make_region(lat, [(3,), (4,), (5,), (6,)]))
    spec = symplectic_spectrum(blocks)
    weights = excitation_weights(data, blocks, spec)
    assert weights.shape == (10, 4)
    assert np.all(weights >= 0.0)
    np.testing.assert_allclose(weights.sum(axis=0), 2.0, atol=1e-8)
    assert np.all(weights.sum(axis=1) <= 2.0 + 1e-9)


def test_energy_split_identity_per_mode():
    lat, h, data, blocks, spec = coupled_system(springs=(0.7, 1.9, 0.2), region_sites=((0,),))
    nu, complement_energy, _ = oscent.entanglement._profile_arrays(data, blocks, spec)
    for k in range(3):
        frequency = data.frequencies[k]
        split = frequency * float(nu[:, k] @ blocks.solve_schur(nu[:, k])) + complement_energy[k]
        assert split == pytest.approx(1.0, abs=1e-8)
        # definition route agrees with the Schur route
        direct = frequency ** -1.0 * blocks.schur @ data.vectors[blocks.region.indices, k]
        np.testing.assert_allclose(nu[:, k], direct.ravel(), atol=1e-10)


def _chain_system():
    lat = build_box(1, [10])
    springs = sample_springs(DisorderModel(k_max=8.0, seed=3), lat, 0)
    data = eigensystem(assemble_anderson(lat, springs))
    blocks = partition_blocks(spd_sqrt(data), make_region(lat, [(3,), (4,), (5,)]))
    return data, blocks, symplectic_spectrum(blocks)


def test_selected_profiles_are_bit_identical_to_single_profiles():
    data, blocks, spec = _chain_system()
    weights = excitation_weights(data, blocks, spec)
    for mode in range(1, 11):
        assert np.array_equal(excitation_profile(data, blocks, spec, mode), weights[mode - 1])
    for mode in (0, 11):
        with pytest.raises(IndexError):
            excitation_profile(data, blocks, spec, mode)


def _break_arrays(monkeypatch, part):
    original = oscent.entanglement._profile_arrays

    def broken(*args):
        arrays = list(original(*args))
        arrays[part] = arrays[part].copy()
        if part == 1:  # complement energy of mode 4
            arrays[1][3] += 1e-6
        else:  # weight row of mode 4
            arrays[2][3, 0] += 2.1 - arrays[2][3].sum()
        return tuple(arrays)

    monkeypatch.setattr(oscent.entanglement, "_profile_arrays", broken)


@pytest.mark.parametrize("part, message", [(1, "energy-split"), (2, "exceeds 2")])
def test_every_batched_path_checks_the_identities(monkeypatch, part, message):
    data, blocks, spec = _chain_system()
    _break_arrays(monkeypatch, part)
    with pytest.raises(ArithmeticError, match=message):
        excitation_weights(data, blocks, spec)
    # every mode is checked, also by a call that returns another one
    for mode in (3, 4):
        with pytest.raises(ArithmeticError, match=message):
            excitation_profile(data, blocks, spec, mode)


def test_excited_diagonal_decoupled_limit():
    lat, h, data, blocks, spec = decoupled_system()
    weights = excitation_profile(data, blocks, spec, 1)
    assert excited_diagonal_element(weights, spec, [0]) == 0.0
    assert excited_diagonal_element(weights, spec, [1]) == pytest.approx(1.0, abs=1e-12)
    assert excited_diagonal_element(weights, spec, [2]) == 0.0


def test_excited_diagonals_take_one_weight_row_per_mode():
    lat, h, data, blocks, spec = coupled_system(springs=(0.5, 3.0, 1.2), region_sites=((0,), (1,)))
    weights = excitation_weights(data, blocks, spec)
    assert excited_diagonal_trace(list(weights[0]), spec) == excited_diagonal_trace(weights[0], spec)
    for bad in (weights, weights[0, :1], np.append(weights[0], 0.0), weights[0, 0]):
        with pytest.raises(ValueError, match="one row of 2 entries"):
            excited_diagonal_element(bad, spec, [0, 0])
        with pytest.raises(ValueError, match="one row of 2 entries"):
            excited_diagonal_trace(bad, spec)


def test_excited_diagonal_matches_bruteforce():
    lat, h, data, blocks, spec = coupled_system()
    region = blocks.region
    for k in (1, 2):
        weights = excitation_profile(data, blocks, spec, k)
        alpha = [0, 0]
        alpha[k - 1] = 1
        for n in range(4):
            formula = excited_diagonal_element(weights, spec, [n])
            brute = bruteforce_reduced_diagonal(h, region, alpha, [n])
            assert formula == pytest.approx(brute, abs=1e-6)


def test_excited_diagonals_are_nonnegative():
    rng = np.random.default_rng(37)
    lat = build_box(1, [8])
    model = DisorderModel(k_max=8.0, seed=11)
    for index in range(5):
        h = assemble_anderson(lat, sample_springs(model, lat, index))
        data = eigensystem(h)
        blocks = partition_blocks(spd_sqrt(data), make_region(lat, [(2,), (3,), (4,)]))
        spec = symplectic_spectrum(blocks)
        for k in (1, 4, 8):
            weights = excitation_profile(data, blocks, spec, k)
            for _ in range(10):
                n = rng.integers(0, 4, size=3)
                assert excited_diagonal_element(weights, spec, n) >= 0.0


def test_excited_trace_normalizes():
    lat, h, data, blocks, spec = coupled_system(springs=(0.5, 3.0, 1.2), region_sites=((0,), (1,)))
    for k in (1, 2, 3):
        trace = excited_diagonal_trace(excitation_profile(data, blocks, spec, k), spec)
        assert trace == pytest.approx(1.0, abs=1e-6)
    cutoffs = occupation_cutoffs(spec)
    assert np.all(cutoffs >= 1)


def test_half_renyi_bounds_decoupled_values():
    lat, h, data, blocks, spec = decoupled_system()
    inside = excitation_profile(data, blocks, spec, 1)
    computed, theorem = excited_half_renyi_bounds(inside, spec)
    assert computed == pytest.approx(2.0 * math.log(1.0 + math.sqrt(2.0)), abs=1e-12)
    assert math.isnan(theorem)  # single-site region: theorem route needs size > 1
    outside = excitation_profile(data, blocks, spec, 2)
    computed, _ = excited_half_renyi_bounds(outside, spec)
    assert computed == pytest.approx(0.0, abs=1e-12)


def test_half_renyi_bounds_ordering_on_realizations():
    lat = build_box(1, [10])
    model = DisorderModel(k_max=8.0, seed=19)
    region = make_region(lat, [(3,), (4,), (5,), (6,)])
    for index in range(8):
        h = assemble_anderson(lat, sample_springs(model, lat, index))
        data = eigensystem(h)
        blocks = partition_blocks(spd_sqrt(data), region)
        spec = symplectic_spectrum(blocks)
        logneg = log_negativity(spec)
        intermediate = 2.0 * logneg + 2.0 * math.log(1.0 + math.sqrt(2.0) * region.size)
        computed, theorem = excited_half_renyi_bounds(excitation_weights(data, blocks, spec), spec)
        assert computed.shape == (10,)
        assert np.all(computed <= intermediate + 1e-12)
        assert np.all(computed <= theorem + 1e-12)
        assert theorem == pytest.approx(2.0 * logneg + 4.0 * math.log(region.size))


def test_theorem_bound_dominates_bruteforce_half_renyi():
    # reconstruct the reduced single-excitation state as a matrix in the
    # mode basis, take its actual 1/2-Renyi entropy, and compare with both
    # bounds; the region has two sites so the theorem bound applies
    from oscent import bruteforce_reduced_matrix_element

    lat, h, data, blocks, spec = coupled_system(
        springs=(1.5, 0.4, 2.0), region_sites=((0,), (1,))
    )
    weights = excitation_profile(data, blocks, spec, 2)
    box = [(i, j) for i in range(5) for j in range(5)]
    matrix = np.zeros((len(box), len(box)))
    for a, bra in enumerate(box):
        for b in range(a, len(box)):
            value = bruteforce_reduced_matrix_element(h, blocks.region, [0, 1, 0], bra, box[b])
            matrix[a, b] = matrix[b, a] = value
    assert np.trace(matrix) == pytest.approx(1.0, abs=1e-6)
    eigenvalues = np.linalg.eigvalsh(matrix)
    positive = eigenvalues[eigenvalues > 1e-14]
    brute_half_renyi = 2.0 * math.log(np.sum(np.sqrt(positive)))
    computed, theorem = excited_half_renyi_bounds(weights, spec)
    assert brute_half_renyi <= computed + 1e-9
    assert computed <= theorem + 1e-12


def test_ensemble_bound_values_and_hypothesis():
    *_, spec = decoupled_system()
    assert single_excitation_ensemble_bound(spec, 2, 1) == pytest.approx(math.log(3.0))
    with pytest.raises(ValueError):
        single_excitation_ensemble_bound(spec, 9, 4)
    lat = build_box(1, [100])
    h = assemble_anderson(lat, sample_springs(DisorderModel(k_max=8.0, seed=23), lat, 0))
    data = eigensystem(h)
    region = make_region(lat, [(i,) for i in range(45, 55)])
    spec_big = symplectic_spectrum(partition_blocks(spd_sqrt(data), region))
    value = single_excitation_ensemble_bound(spec_big, 100, 10)
    assert value == pytest.approx(math.log(3.0) + 2.0 * ground_state_renyi(spec_big, 0.5))
    assert math.isfinite(value)


def test_entropy_report_serialization():
    lat, h, data, blocks, spec = coupled_system(springs=(1.0, 2.0, 0.5), region_sites=((0,), (1,)))
    weights = excitation_weights(data, blocks, spec)
    report = entropy_report(spec, [0.5, 0.75, 1.0], [1, 2, 3], weights, lattice_size=lat.size)
    payload = json.loads(report.to_json())
    assert payload["eps"] == [0.5, 0.75, 1.0]
    assert payload["ground_renyi"][0] == pytest.approx(report.log_negativity)
    assert payload["excited_modes"] == [1, 2, 3]
    assert len(payload["excited_computed_bounds"]) == len(payload["excited_theorem_bounds"]) == 3
    assert payload["ensemble_bound"] is None  # 2^2 > 3
    values = report.ground_renyi
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


_BOXES = {
    "1d": ((24,), (9,), (5,)),
    "2d": ((7, 7), (2, 2), (3, 3)),
    "3d": ((5, 5, 5), (1, 1, 1), (2, 2, 2)),
}


def _box_system(name, seed=2024):
    lengths, corner, region_lengths = _BOXES[name]
    lat = build_box(len(lengths), lengths)
    springs = sample_springs(DisorderModel(k_max=8.0, seed=seed), lat, 0)
    data = eigensystem(assemble_anderson(lat, springs))
    blocks = partition_blocks(spd_sqrt(data), box_region(lat, corner, region_lengths))
    return data, blocks, symplectic_spectrum(blocks)


@pytest.mark.parametrize("name", sorted(_BOXES))
def test_profile_arrays_match_the_complement_block_solve(name):
    data, blocks, spec = _box_system(name)
    nu, complement_energy, _ = oscent.entanglement._profile_arrays(data, blocks, spec)
    v_region = data.vectors[blocks.region.indices, :]
    v_complement = data.vectors[blocks.region.complement_indices, :]
    # reference: solve the complement block against every eigenvector
    ci = blocks.region.complement_indices
    b_factor = scipy.linalg.cho_factor(spd_sqrt(data)[np.ix_(ci, ci)])
    b_inv_v = scipy.linalg.cho_solve(b_factor, v_complement)
    np.testing.assert_allclose(nu, v_region - blocks.c @ b_inv_v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        complement_energy,
        data.frequencies * np.einsum("ik,ik->k", v_complement, b_inv_v),
        rtol=0,
        atol=1e-12,
    )
    split = data.frequencies * np.einsum("ik,ik->k", nu, blocks.solve_schur(nu))
    assert np.abs(split + complement_energy - 1.0).max() < 1e-12


@pytest.mark.parametrize("name", sorted(_BOXES))
def test_an_eigenvector_off_by_one_part_in_a_million_fails_the_energy_split(name):
    data, blocks, spec = _box_system(name)
    excitation_weights(data, blocks, spec)
    for k in range(data.size):
        vectors = data.vectors.copy()
        vectors[:, k] *= 1.0 + 1e-6
        perturbed = SpectralData(data.eigenvalues, data.frequencies, vectors)
        with pytest.raises(ArithmeticError, match="energy-split"):
            excitation_weights(perturbed, blocks, spec)


def test_weight_columns_must_sum_to_two(monkeypatch):
    data, blocks, spec = _chain_system()
    original = oscent.entanglement._profile_arrays
    shift = {"value": 1e-6}

    def corrupted(*args):
        *rest, weights = original(*args)
        weights = weights.copy()
        weights[3, 0] -= shift["value"]  # row 4 only shrinks; column 1 misses 2
        return (*rest, weights)

    monkeypatch.setattr(oscent.entanglement, "_profile_arrays", corrupted)
    with pytest.raises(ArithmeticError, match="column sum"):
        excitation_weights(data, blocks, spec)
    # every profile call checks every column, also one that returns a single mode
    with pytest.raises(ArithmeticError, match="column sum"):
        excitation_profile(data, blocks, spec, 9)
    shift["value"] = 1e-10  # inside the 1e-9 tolerance
    assert excitation_weights(data, blocks, spec).shape == (10, 3)


NEAR_ONE_MU = np.array([1.0 + 1e-7, 1.3, 4.0, 30.0])


def _mp_renyi(mu, eps):
    """E_eps at 50 digits from the definition 1/(1-eps) sum log f_eps(mu)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        total = sum(mpmath.log(_mp_renyi_factor(float(m), eps)) for m in mu)
        return total / (1 - mpmath.mpf(eps))


def _mp_renyi_deep(mu, eps):
    """E_eps from the definition at 400 digits, enough to resolve a^eps - b^eps down to eps = EPS_MIN."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(400):
        eps = mpmath.mpf(eps)
        total = sum(-mpmath.log(((mpmath.mpf(m) + 1) / 2) ** eps - ((mpmath.mpf(m) - 1) / 2) ** eps) for m in mu)
        return total / (1 - eps)


@pytest.mark.parametrize("eps", [EPS_MIN, 1e-300, 1e-8, 0.25, 0.5, 0.9])
def test_renyi_matches_mpmath_from_eps_min_to_the_series(eps):
    mu = np.array([1.0, 1.0 + 1e-7, 1.3, 4.0, 30.0, 1e3])
    expected = _mp_renyi_deep(mu, eps)
    assert abs(ground_state_renyi(mu, eps) - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize(
    "eps, tolerance",
    [
        (1e-300, 1e-13),
        # eps * log((mu-1)/(mu+1)) = -4.4e-318 is subnormal: rounding it to
        # the 4.9e-324 grid costs up to 5.6e-7 relative, which its log turns
        # into up to 5.6e-7 absolute out of 731
        (EPS_MIN, 1e-9),
    ],
)
def test_renyi_is_finite_where_the_factor_overflows(eps, tolerance):
    mu = np.array([1e10])
    with np.errstate(over="ignore"):
        assert np.isinf(renyi_factor(mu, eps)).all()  # f_eps itself exceeds the largest double
    expected = _mp_renyi_deep(mu, eps)
    assert abs(log_renyi_factor(mu, eps)[0] - expected) <= tolerance * abs(expected)
    assert abs(ground_state_renyi(mu, eps) - expected) <= tolerance * abs(expected)


@pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-8, 1e-10, 1e-13, 1e-15])
def test_renyi_near_von_neumann_matches_mpmath(delta):
    eps = 1.0 - delta
    assert abs(ground_state_renyi(NEAR_ONE_MU, eps) - _mp_renyi(NEAR_ONE_MU, eps)) < 2e-14


@pytest.mark.parametrize("delta", [1.0001e-4, 0.9999e-4, 1e-3])
def test_renyi_both_branches_agree_with_mpmath_at_the_crossover(delta):
    eps = 1.0 - delta
    assert abs(ground_state_renyi(NEAR_ONE_MU, eps) - _mp_renyi(NEAR_ONE_MU, eps)) < 1e-11


def test_renyi_near_von_neumann_skips_pure_modes():
    mixed = NEAR_ONE_MU
    padded = np.concatenate([np.ones(3), mixed])
    for eps in (1.0 - 1e-6, 1.0 - 1e-12):
        assert ground_state_renyi(padded, eps) == ground_state_renyi(mixed, eps)
        assert ground_state_renyi(np.ones(4), eps) == 0.0


def _mp_von_neumann(mu):
    """E_1 of one mode at 400 digits, from the definition (m+1) log(m+1) - m log m with m = (mu-1)/2."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(400):
        m = (mpmath.mpf(mu) - 1) / 2
        return (m + 1) * mpmath.log(m + 1) - (m * mpmath.log(m) if m else 0)


# Above about mu = 1.3e154, (mu-1)(mu+1) overflows: no factor of the series' cumulants may hold it
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", [1.0, 1.0 + 1e-15, 1.0 + 1e-7, 1.3, 3.0, 30.0, 1e3, 1e10, 1e15, 1e100, 1e154, 1e155, 1e300])
@pytest.mark.parametrize("eps", [1.0, 0.9999])
def test_entropy_at_and_near_eps_1_matches_mpmath_over_every_mu(mu, eps):
    if eps == 1.0:
        expected, tolerance = _mp_von_neumann(mu), 3e-16
    else:
        # the series branch drops delta^3 k4/24, relatively largest near mu = 1,
        # where the cumulants carry powers of log((mu-1)/(mu+1))
        expected, tolerance = _mp_renyi_deep([mu], eps), (2e-9 if mu - 1.0 < 1e-6 else 1e-12)
    assert abs(ground_state_renyi(np.array([mu]), eps) - expected) <= tolerance * abs(expected)


@pytest.mark.parametrize("seed", range(4))
def test_renyi_does_not_increase_in_eps(seed):
    rng = np.random.default_rng(seed)
    mu = np.concatenate([[1.0, 1.0 + 1e-9], 1.0 + rng.exponential(2.0, size=12), [1e4]])
    eps = np.concatenate(
        [np.linspace(0.05, 0.999, 60), 1.0 - np.geomspace(1e-3, 1e-15, 49), [1.0]]
    )
    values = np.array([ground_state_renyi(mu, e) for e in eps])
    assert np.all(np.diff(values) <= 0.0)


@pytest.mark.parametrize("name", sorted(_BOXES))
def test_entropy_report_computes_the_shared_bound_terms_once(name, monkeypatch):
    data, blocks, spec = _box_system(name)
    weights = excitation_weights(data, blocks, spec)[[4, 0, 2]]
    computed, theorem = excited_half_renyi_bounds(weights, spec)
    calls = []
    for fn in ("half_renyi_factor", "ground_state_renyi"):
        original = getattr(oscent.entanglement, fn)
        monkeypatch.setattr(
            oscent.entanglement, fn, lambda *a, f=original, fn=fn: calls.append(fn) or f(*a)
        )
    report = entropy_report(spec, [0.5, 0.75, 1.0, 0.5], [5, 1, 3], weights)
    assert calls.count("half_renyi_factor") == 1
    # one E_eps per distinct eps, one more inside the theorem bound's log-negativity
    assert calls.count("ground_state_renyi") == 3 + 1
    assert report.excited_modes == [5, 1, 3]
    assert report.excited_computed_bounds == computed.tolist()  # the same floats, bit for bit
    assert report.excited_theorem_bounds == [theorem] * 3
    # one row alone gives its row of the batched call to the last bits (a
    # dot product against a matrix-vector product)
    for row, bound in zip(weights, computed):
        single, single_theorem = excited_half_renyi_bounds(row, spec)
        assert isinstance(single, float) and single_theorem == theorem
        assert abs(single - bound) <= 2 * np.spacing(bound)
