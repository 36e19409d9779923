import math
import sys

import numpy as np
import pytest

import oscent.lapack
import oscent.spectral
from oscent import (
    GaussKernel,
    QuadratureRule,
    assemble_anderson,
    assemble_custom,
    bruteforce_reduced_diagonal,
    bruteforce_reduced_matrix_element,
    build_box,
    double_factorial,
    gaussian_poly_integral,
    generalized_gaussian_integral,
    hermite,
    hermite_gaussian,
    kernel_eigenpair_residual,
    kernel_moment_formulas,
    kernel_moments,
    kernel_trace,
    make_region,
    verify_report,
)
from oscent.oracle import _reduced_ground_state, symplectic_eigenvalues


def test_hermite_low_orders():
    assert hermite(0, 0.7) == 1.0
    assert hermite(1, 0.7) == pytest.approx(1.4)
    assert hermite(2, 3.0) == pytest.approx(34.0)  # 4*9 - 2


def test_hermite_matches_numpy_basis():
    x = np.linspace(-2.5, 2.5, 11)
    for n in range(10):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        np.testing.assert_allclose(
            hermite(n, x), np.polynomial.hermite.hermval(x, coeffs), rtol=1e-12, atol=1e-9
        )
    with pytest.raises(ValueError):
        hermite(-1, 0.0)


def test_hermite_gaussian_peak_value():
    assert hermite_gaussian(0, 1.0, 0.0) == pytest.approx(math.pi**-0.25, abs=1e-14)


def test_hermite_gaussian_frozen_point():
    # (1/sqrt 2)(4/pi)^{1/4} e^{-2} H_1(2), evaluated from the definition
    expected = (1 / math.sqrt(2)) * (4 / math.pi) ** 0.25 * math.exp(-2.0) * 4.0
    assert expected == pytest.approx(0.406615153225672, abs=1e-12)
    assert hermite_gaussian(1, 4.0, 1.0) == pytest.approx(expected, abs=1e-13)


def test_hermite_gaussian_orthonormal_under_quadrature():
    rule = QuadratureRule.gauss_hermite(200)
    for gamma in (0.5, 1.0, 4.0):
        psi2 = hermite_gaussian(2, gamma, rule.nodes)
        psi3 = hermite_gaussian(3, gamma, rule.nodes)
        assert rule.weights @ (psi2 * psi2) == pytest.approx(1.0, abs=1e-10)
        assert rule.weights @ (psi2 * psi3) == pytest.approx(0.0, abs=1e-10)


def test_hermite_gaussian_stays_finite_at_high_order():
    value = hermite_gaussian(250, 1.0, 1.3)
    assert math.isfinite(value)
    with pytest.raises(ValueError):
        hermite_gaussian(301, 1.0, 0.0)
    with pytest.raises(ValueError):
        hermite_gaussian(2, 0.0, 0.0)


@pytest.mark.parametrize("n,value", [(-1, 1), (0, 1), (1, 1), (5, 15), (6, 48), (9, 945)])
def test_double_factorial(n, value):
    assert double_factorial(n) == value


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_gauss_hermite_sanity():
    rule = QuadratureRule.gauss_hermite(40)
    assert rule.integrate(lambda x: np.exp(-x * x)) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    assert rule.integrate(lambda x: x * x * np.exp(-x * x)) == pytest.approx(
        math.sqrt(math.pi) / 2.0, abs=1e-12
    )


def test_stripped_weights_match_scipy_at_moderate_order():
    from scipy.special import roots_hermite

    rule = QuadratureRule.gauss_hermite(80)
    nodes, raw = roots_hermite(80)
    np.testing.assert_allclose(rule.weights, raw * np.exp(nodes**2), rtol=1e-11)


def test_stripped_weights_survive_high_order():
    rule = QuadratureRule.gauss_hermite(480)
    assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights > 0)
    assert rule.integrate(lambda x: np.exp(-x * x)) == pytest.approx(math.sqrt(math.pi), abs=1e-11)


def test_gauss_legendre_box():
    rule = QuadratureRule.gauss_legendre(60, halfwidth=8.0)
    assert rule.integrate(lambda x: np.exp(-x * x)) == pytest.approx(math.sqrt(math.pi), abs=1e-13)
    assert rule.integrate(lambda x: x**2) == pytest.approx(2 * 8.0**3 / 3.0, rel=1e-13)


def test_kernel_validation_and_trace():
    with pytest.raises(ValueError):
        GaussKernel(1.0)
    kernel = GaussKernel(0.0)
    assert kernel.trace_formula() == pytest.approx(math.sqrt(math.pi))
    assert kernel_trace(kernel) == pytest.approx(math.sqrt(math.pi), abs=1e-12)


def test_eigencheck_separable_kernel():
    kernel = GaussKernel(0.0)
    residual, xi = kernel_eigenpair_residual(kernel, 0)
    assert xi == pytest.approx(math.sqrt(math.pi))
    assert residual < 1e-12
    for n in (1, 2, 5):
        residual, xi = kernel_eigenpair_residual(kernel, n)
        assert xi == 0.0
        assert residual < 1e-12


def test_eigencheck_frozen_eigenvalue():
    kernel = GaussKernel(-0.6)
    assert kernel.kappa == pytest.approx(0.8)
    residual, xi = kernel_eigenpair_residual(kernel, 0)
    assert xi == pytest.approx(math.sqrt(2.0 * math.pi / 1.8), abs=1e-14)
    assert xi == pytest.approx(1.868330405466, abs=1e-10)
    assert residual < 1e-10


def test_moment_frozen_values():
    kernel = GaussKernel(-0.6)
    m_x, m_xx, m_xy = kernel_moments(kernel, 0)
    xi0 = kernel.eigenvalue(0)
    assert m_x == pytest.approx(0.0, abs=1e-10)
    assert m_xx == pytest.approx(xi0 / 1.6, abs=1e-10)      # 1.167707
    assert m_xy == pytest.approx(xi0 / 1.6 / 3.0, abs=1e-10)  # mu = 2 -> (mu-1)/(mu+1) = 1/3
    f_x, f_xx, f_xy = kernel_moment_formulas(kernel, 0)
    assert (f_x, f_xx, f_xy) == pytest.approx((0.0, 1.16770650342, 0.38923550114), abs=1e-10)


def test_moment_formulas_match_quadrature():
    for sigma in (-0.9, -0.5, -0.1):
        kernel = GaussKernel(sigma)
        for n in range(9):
            quad = kernel_moments(kernel, n)
            exact = kernel_moment_formulas(kernel, n)
            np.testing.assert_allclose(quad, exact, atol=1e-8)


def test_moment_formulas_require_negative_sigma():
    with pytest.raises(ValueError):
        kernel_moment_formulas(GaussKernel(0.3), 1)


def test_generalized_gaussian_trivial_values():
    analytic, numeric = generalized_gaussian_integral(np.eye(1), [0.0], [1.0], 0)
    assert analytic == pytest.approx(math.sqrt(2 * math.pi))
    assert numeric == pytest.approx(analytic, rel=1e-12)
    analytic, numeric = generalized_gaussian_integral(np.eye(1), [0.0], [1.0], 1)
    assert analytic == 0.0
    assert numeric == pytest.approx(0.0, abs=1e-12)
    analytic, numeric = generalized_gaussian_integral(np.eye(1), [0.0], [1.0], 4)
    assert analytic == pytest.approx(3.0 * math.sqrt(2 * math.pi))
    assert numeric == pytest.approx(analytic, rel=1e-12)


def test_generalized_gaussian_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = basis @ np.diag(rng.uniform(0.5, 3.0, size=d)) @ basis.T
        analytic, numeric = generalized_gaussian_integral(
            a, rng.standard_normal(d), rng.standard_normal(d), int(rng.integers(0, 7))
        )
        assert numeric == pytest.approx(analytic, rel=1e-8, abs=1e-10)


def test_generalized_gaussian_guards():
    with pytest.raises(np.linalg.LinAlgError):
        generalized_gaussian_integral([[-1.0]], [0.0], [1.0], 2)
    with pytest.raises(ValueError):
        generalized_gaussian_integral(np.eye(5), np.zeros(5), np.ones(5), 2)
    with pytest.raises(ValueError):
        generalized_gaussian_integral(np.eye(2), np.zeros(2), np.ones(2), 9)


def test_gaussian_poly_integral_with_linear_term():
    # 1d moments of exp(-x^2/2 + 0.7 x) against known closed forms
    b = 0.7
    norm = math.sqrt(2 * math.pi) * math.exp(b * b / 2.0)
    value = gaussian_poly_integral(np.eye(1), [b], lambda z: np.ones(z.shape[1]), 12)
    assert value == pytest.approx(norm, rel=1e-13)
    mean = gaussian_poly_integral(np.eye(1), [b], lambda z: z[0], 12)
    assert mean == pytest.approx(b * norm, rel=1e-13)


def test_bruteforce_product_ground_state():
    lat = build_box(1, [2])
    h = assemble_custom(lat, np.diag([2.25, 6.25]))
    region = make_region(lat, [(0,)])
    assert bruteforce_reduced_diagonal(h, region, [0, 0], [0]) == pytest.approx(1.0, abs=1e-10)
    for n in (1, 2, 3):
        assert bruteforce_reduced_diagonal(h, region, [0, 0], [n]) == pytest.approx(0.0, abs=1e-10)


def test_bruteforce_coupled_ground_state_matches_mu_formula():
    from oscent import eigensystem, partition_blocks, spd_sqrt, symplectic_spectrum

    lat = build_box(1, [2])
    h = assemble_anderson(lat, [1.0, 1.0])
    region = make_region(lat, [(0,)])
    spec = symplectic_spectrum(partition_blocks(spd_sqrt(eigensystem(h)), region))
    mu = spec.mu[0]
    value = bruteforce_reduced_diagonal(h, region, [0, 0], [0])
    assert value == pytest.approx(2.0 / (1.0 + mu), abs=1e-10)
    assert value == pytest.approx(0.9814, abs=1e-4)


def test_bruteforce_guards():
    lat = build_box(1, [4])
    h = assemble_anderson(lat, [1.0] * 4)
    region = make_region(lat, [(0,)])
    with pytest.raises(ValueError):
        bruteforce_reduced_diagonal(h, region, [0, 0, 0, 0], [0])
    lat2 = build_box(1, [2])
    h2 = assemble_anderson(lat2, [1.0, 1.0])
    region2 = make_region(lat2, [(0,)])
    with pytest.raises(ValueError):
        bruteforce_reduced_diagonal(h2, region2, [1, 1], [0])
    with pytest.raises(ValueError):
        bruteforce_reduced_diagonal(h2, region2, [0, 0], [0, 0])
    with pytest.raises(ValueError, match="whole lattice"):
        bruteforce_reduced_diagonal(h2, make_region(lat2, lat2.sites), [0, 0], [0, 0])


def test_bruteforce_offdiagonal_parity_selection():
    lat = build_box(1, [2])
    h = assemble_anderson(lat, [0.8, 1.7])
    region = make_region(lat, [(0,)])
    odd = bruteforce_reduced_matrix_element(h, region, [1, 0], [0], [1])
    assert odd == pytest.approx(0.0, abs=1e-12)
    even = bruteforce_reduced_matrix_element(h, region, [1, 0], [0], [2])
    assert abs(even) > 1e-6  # same parity couples


def test_covariance_examples():
    # decoupled scalar: schur^{-1} = 1/a on the diagonal of Gamma, symplectic value 1
    lat = build_box(1, [2])
    region = make_region(lat, [(0,)])
    h = assemble_custom(lat, np.diag([4.0, 25.0]))
    state = _reduced_ground_state(h, region)
    np.testing.assert_allclose(state.schur_inv, [[0.5]])
    np.testing.assert_allclose(state.a, [[2.0]])
    np.testing.assert_allclose(symplectic_eigenvalues(h, region), [1.0], atol=1e-12)
    # identity blocks
    state_id = _reduced_ground_state(assemble_custom(lat, np.eye(2)), region)
    np.testing.assert_allclose(state_id.schur_inv, [[1.0]])
    np.testing.assert_allclose(state_id.a, [[1.0]])


def test_covariance_route_matches_schur_route():
    from oscent import DisorderModel, eigensystem, partition_blocks, sample_springs, spd_sqrt
    from oscent import symplectic_spectrum

    def production_mu(h, region):
        return symplectic_spectrum(partition_blocks(spd_sqrt(eigensystem(h)), region)).mu

    lat = build_box(1, [2])
    h = assemble_custom(lat, [[2.0, -1.0], [-1.0, 2.0]])
    region = make_region(lat, [(0,)])
    np.testing.assert_allclose(symplectic_eigenvalues(h, region), production_mu(h, region), atol=1e-8)
    lat = build_box(1, [10])
    region = make_region(lat, [(2,), (3,), (4,), (5,)])
    for index in range(5):
        h = assemble_anderson(lat, sample_springs(DisorderModel(k_max=8.0, seed=53), lat, index))
        np.testing.assert_allclose(
            symplectic_eigenvalues(h, region), production_mu(h, region), atol=1e-8
        )


def test_the_oracle_calls_no_production_solver(monkeypatch):
    lat = build_box(1, [3])
    h = assemble_anderson(lat, [1.5, 0.4, 2.0])
    region = make_region(lat, [(0,), (1,)])
    diagonal = bruteforce_reduced_diagonal(h, region, [0, 1, 0], [1, 0])
    mu = symplectic_eigenvalues(h, region)

    guarded = [getattr(oscent.spectral, name) for name in
               ("eigensystem", "spd_sqrt", "partition_blocks", "symplectic_spectrum")]
    guarded += [getattr(oscent.lapack, name) for name in ("syevr", "stemr", "potrf", "potrs")]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached a production solver")

    # every binding of a guarded function in the package, wherever it was imported
    for name, module in list(sys.modules.items()):
        if name == "oscent" or name.startswith("oscent."):
            for attr, value in list(vars(module).items()):
                if any(value is g for g in guarded):
                    monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError, match="production solver"):
        oscent.spectral.eigensystem(h)
    assert bruteforce_reduced_diagonal(h, region, [0, 1, 0], [1, 0]) == diagonal
    np.testing.assert_array_equal(symplectic_eigenvalues(h, region), mu)


def test_verify_report_all_pass():
    rows = verify_report()
    assert len(rows) == 7
    assert all(row.passed for row in rows)
    assert {row.name for row in rows} >= {
        "kernel eigenpair residual",
        "generalized gaussian integrals",
    }
