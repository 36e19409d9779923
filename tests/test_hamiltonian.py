import math

import numpy as np
import pytest

from oscent import (
    DisorderModel,
    anderson_norm_bound,
    assemble_anderson,
    assemble_custom,
    build_box,
    eigensystem,
    l1_distance,
    load_matrix_csv,
    sample_springs,
    validate_coupling,
)
from oscent.correlators import correlator_table, require_norm_bound
from oscent.hamiltonian import PD_TOLERANCE
from oscent.spectral import decompose


def test_springs_stay_in_support():
    lat = build_box(1, [50])
    model = DisorderModel(k_max=1.0, seed=123)
    springs = sample_springs(model, lat, 0)
    assert springs.shape == (50,)
    assert np.all(springs >= 0) and np.all(springs <= 1.0)


def test_springs_are_deterministic_and_order_independent():
    lat = build_box(2, [4, 4])
    model = DisorderModel(k_max=3.0, seed=99)
    # sampling realization 5 first, then 0, must agree with the sorted order
    first = sample_springs(model, lat, 5)
    zeroth = sample_springs(model, lat, 0)
    assert np.array_equal(sample_springs(model, lat, 5), first)
    assert np.array_equal(sample_springs(model, lat, 0), zeroth)
    assert not np.array_equal(first, zeroth)


def test_springs_mean_matches_uniform_law():
    k_max = 2.0
    lat = build_box(1, [100000])
    springs = sample_springs(DisorderModel(k_max=k_max, seed=7), lat, 0)
    tolerance = 3.0 * k_max / np.sqrt(12.0 * springs.size)
    assert abs(springs.mean() - k_max / 2.0) < tolerance


def test_anderson_two_site_example():
    lat = build_box(1, [2])
    h = assemble_anderson(lat, [1.0, 1.0])
    assert np.array_equal(h.matrix, [[2.0, -1.0], [-1.0, 2.0]])
    np.testing.assert_allclose(np.linalg.eigvalsh(h.matrix), [1.0, 3.0], atol=1e-14)


def test_anderson_three_site_zero_springs_is_marginal():
    lat = build_box(1, [3])
    h = assemble_anderson(lat, [0.0, 0.0, 0.0])
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(h.matrix, expected)
    assert np.linalg.eigvalsh(h.matrix)[0] >= -1e-12


def test_anderson_matrix_is_exactly_symmetric():
    lat = build_box(2, [3, 3])
    springs = sample_springs(DisorderModel(k_max=5.0, seed=1), lat, 3)
    h = assemble_anderson(lat, springs)
    assert np.array_equal(h.matrix, h.matrix.T)


def test_anderson_norm_bound_holds_on_realizations():
    lat = build_box(2, [4, 4])
    model = DisorderModel(k_max=5.0, seed=21)
    cap = 4 * 2 + 5.0
    for index in range(10):
        h = assemble_anderson(lat, sample_springs(model, lat, index))
        assert np.linalg.norm(h.matrix, 2) <= cap + 1e-12
    assert anderson_norm_bound(2, 5.0) == pytest.approx(np.sqrt(cap))


def test_positive_springs_give_positive_definite_matrix():
    lat = build_box(1, [20])
    model = DisorderModel(k_max=8.0, seed=5)
    for index in range(10):
        springs = sample_springs(model, lat, index)
        h = assemble_anderson(lat, springs)
        assert np.linalg.eigvalsh(h.matrix)[0] > 0


def test_spring_free_part_has_zero_row_sums():
    lat = build_box(2, [3, 4])
    springs = np.linspace(0.5, 2.0, lat.size)
    h = assemble_anderson(lat, springs)
    laplacian = h.matrix - np.diag(springs)
    np.testing.assert_allclose(laplacian.sum(axis=1), 0.0, atol=1e-14)


def test_anderson_rejects_bad_springs():
    lat = build_box(1, [3])
    with pytest.raises(ValueError):
        assemble_anderson(lat, [1.0, 2.0])
    with pytest.raises(ValueError):
        assemble_anderson(lat, [1.0, -0.5, 2.0])


def test_custom_identity_and_errors():
    lat = build_box(1, [2])
    h = assemble_custom(lat, np.eye(2))
    assert np.array_equal(h.matrix, np.eye(2))
    with pytest.raises(ValueError):
        assemble_custom(lat, np.ones((2, 3)))
    with pytest.raises(ValueError):
        assemble_custom(lat, [[1.0, 2.0], [1.0, 1.0]])  # asymmetry 1


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_custom_rejects_non_finite_entries(entry):
    # nan passes the asymmetry test (nan > tol is False), so it needs its own
    with pytest.raises(ValueError, match="non-finite"):
        assemble_custom(build_box(1, [2]), [[2.0, entry], [entry, 2.0]])


def test_custom_symmetrizes_roundoff_noise():
    lat = build_box(1, [2])
    noise = 1e-14
    h = assemble_custom(lat, [[1.0, 0.5 + noise], [0.5, 1.0]])
    assert h.matrix[0, 1] == h.matrix[1, 0]


def test_matrix_csv_roundtrip(tmp_path):
    lat = build_box(1, [3])
    m = np.array([[2.0, -1.0, 0.0], [-1.0, 2.5, -1.0], [0.0, -1.0, 3.0]])
    path = tmp_path / "h.csv"
    np.savetxt(path, m, delimiter=",")
    h = load_matrix_csv(path, lat)
    np.testing.assert_allclose(h.matrix, m)


def test_validate_identity():
    lat = build_box(1, [2])
    report = validate_coupling(decompose(assemble_custom(lat, np.eye(2))), 1.0)
    assert report.is_positive_definite
    assert report.hsqrt_norm == pytest.approx(1.0)
    assert report.bound_satisfied


def test_validate_coupled_example():
    lat = build_box(1, [2])
    report = validate_coupling(decompose(assemble_custom(lat, [[2.0, -1.0], [-1.0, 2.0]])), 2.0)
    assert report.hsqrt_norm == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert report.bound_satisfied


def test_validate_indefinite_matrix():
    lat = build_box(1, [2])
    report = validate_coupling(decompose(assemble_custom(lat, [[1.0, 2.0], [2.0, 1.0]])), 10.0)
    assert not report.is_positive_definite
    assert report.smallest_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_disorder_model_validation():
    with pytest.raises(ValueError):
        DisorderModel(k_max=0.0, seed=1)
    with pytest.raises(ValueError):
        DisorderModel(k_max=1.0, seed=2**64)
    with pytest.raises(ValueError):
        sample_springs(DisorderModel(k_max=1.0, seed=1), build_box(1, [2]), -1)


def _loop_anderson(lattice, springs):
    """Pairwise reference assembly: -1 on every l1-distance-1 pair."""
    n = lattice.size
    h = np.zeros((n, n))
    for i, a in enumerate(lattice.sites):
        for j in range(i + 1, n):
            if l1_distance(a, lattice.sites[j]) == 1:
                h[i, j] = h[j, i] = -1.0
    degrees = -h.sum(axis=1)
    h[np.diag_indices(n)] = degrees + springs
    return h


@pytest.mark.parametrize("lengths", [[7], [3, 1, 4], [4, 4, 4], [1], [2, 1]])
def test_assembly_is_bit_identical_to_pair_loop(lengths):
    lat = build_box(len(lengths), lengths)
    springs = sample_springs(DisorderModel(k_max=8.0, seed=5), lat, 0)
    assert np.array_equal(assemble_anderson(lat, springs).matrix, _loop_anderson(lat, springs))


@pytest.mark.parametrize("relative, holds", [(1e-13, True), (-1e-13, True), (1e-11, False)])
def test_report_and_correlator_bound_share_one_norm_bound_rule(relative, holds):
    bound = 3.0
    h = assemble_custom(build_box(1, [2]), np.diag([1.0, (bound * (1.0 + relative)) ** 2]))
    report = validate_coupling(decompose(h), bound)
    assert report.hsqrt_norm == pytest.approx(bound * (1.0 + relative), rel=1e-15)
    assert report.bound_satisfied is holds
    table = correlator_table(h)
    if holds:
        assert require_norm_bound(table, bound) is table
    else:
        with pytest.raises(ValueError, match="below the actual square-root norm"):
            require_norm_bound(table, bound)


def test_one_positive_definiteness_floor_for_the_report_and_the_eigensystem():
    lat = build_box(1, [2])
    for smallest in (2e-10, 1e-10, 5e-11):
        h = assemble_custom(lat, np.diag([smallest, 1.0]))
        verdict = validate_coupling(decompose(h), 1.0).is_positive_definite
        assert verdict == (smallest > PD_TOLERANCE)
        if verdict:
            eigensystem(h)
        else:
            with pytest.raises(np.linalg.LinAlgError):
                eigensystem(h)
