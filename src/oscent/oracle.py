"""Brute-force verification engine: special functions, quadrature, kernels.

Everything here is deliberately independent of the closed-form entropy
machinery: kernels are evaluated from their explicit formulas and integrated
numerically, and the reduced ground state and its Williamson frame are
rebuilt from scipy alone, so agreement with the analytic route is evidence,
not tautology. One-dimensional and two-dimensional checks use weight-stripped
Gauss-Hermite quadrature with adaptive order doubling; higher-dimensional
integrals (up to five axes for the reduced-state brute force) diagonalize
the joint Gaussian once and apply tensor Gauss-Hermite in whitened
coordinates, where the quadrature is exact for the polynomial factor.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .lattice import Region

# scipy.linalg and scipy.special are imported inside the functions that use
# them: the oracle serves ``verify``, and the compute commands load neither.

DEFAULT_ORDER = 120
MAX_ORDER = 480
AGREEMENT_TOL = 1e-9

# Above this the log-domain normalization of the Hermite-Gaussian functions
# is no longer trustworthy end to end; nothing in the package needs it.
MAX_HERMITE_GAUSSIAN_ORDER = 300


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n via the three-term recurrence."""
    if n < 0:
        raise ValueError("Hermite order must be nonnegative")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def _hermite_function(n: int, t):
    """Orthonormal Hermite function phi_n(t) by its stable recurrence."""
    t = np.asarray(t, dtype=float)
    phi_prev = np.zeros_like(t)
    phi = np.pi ** (-0.25) * np.exp(-0.5 * t * t)
    for k in range(n):
        phi, phi_prev = (
            t * np.sqrt(2.0 / (k + 1)) * phi - np.sqrt(k / (k + 1.0)) * phi_prev,
            phi,
        )
    return phi


def hermite_gaussian(n: int, gamma: float, y):
    """Normalized Hermite-Gaussian function of frequency gamma at y.

    These are the eigenfunctions of a single oscillator mode and of the
    reduced-state Gaussian kernels. Unit L2 norm for every n and gamma.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > MAX_HERMITE_GAUSSIAN_ORDER:
        raise ValueError(f"order {n} exceeds supported maximum {MAX_HERMITE_GAUSSIAN_ORDER}")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    y = np.asarray(y, dtype=float)
    value = gamma**0.25 * _hermite_function(n, np.sqrt(gamma) * y)
    return value if value.ndim else float(value)


def double_factorial(n: int) -> int:
    """n!! for integer n >= -1, with (-1)!! = 1."""
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for integrals over the whole line or a box.

    For the Gauss-Hermite kind the stored weights are total weights (the
    e^{x^2} factor already stripped), so sum(weights * f(nodes)) approximates
    the plain integral of f. The Gauss-Legendre kind integrates over
    [-halfwidth, halfwidth].
    """

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    halfwidth: float | None = None

    @staticmethod
    def gauss_hermite(order: int) -> "QuadratureRule":
        nodes, total = _gh_nodes_total_weights(order)
        return QuadratureRule(kind="gauss-hermite", order=order, nodes=nodes, weights=total)

    @staticmethod
    def gauss_legendre(order: int, halfwidth: float) -> "QuadratureRule":
        nodes, weights = np.polynomial.legendre.leggauss(order)
        return QuadratureRule(
            kind="gauss-legendre",
            order=order,
            nodes=halfwidth * nodes,
            weights=halfwidth * weights,
            halfwidth=halfwidth,
        )

    def integrate(self, f) -> float:
        return float(self.weights @ f(self.nodes))


@functools.lru_cache(maxsize=64)
def _gh_raw(order: int):
    """Plain Gauss-Hermite nodes and weights (weight function exp(-x^2))."""
    from scipy.special import roots_hermite

    return roots_hermite(order)


@functools.lru_cache(maxsize=32)
def _gh_nodes_total_weights(order: int):
    """Gauss-Hermite nodes with stripped weights w_i * exp(x_i^2).

    The product is computed stably as 1/(order * phi_{order-1}(x_i)^2) with
    phi the orthonormal Hermite function; the raw weights underflow beyond
    order ~380 while the stripped ones are O(1).
    """
    if order < 1:
        raise ValueError("quadrature order must be positive")
    nodes, _ = _gh_raw(order)
    phi = _hermite_function(order - 1, nodes)
    return nodes, 1.0 / (order * phi * phi)


@dataclass(frozen=True)
class GaussKernel:
    """Gaussian integral kernel exp(-(x^2 + 2 sigma x y + y^2)/2), |sigma| < 1."""

    sigma: float

    def __post_init__(self):
        if not -1.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must lie in (-1, 1), got {self.sigma}")

    @property
    def kappa(self) -> float:
        return math.sqrt(1.0 - self.sigma**2)

    def __call__(self, x, y):
        return np.exp(-0.5 * (np.square(x) + 2.0 * self.sigma * np.multiply(x, y) + np.square(y)))

    def eigenvalue(self, n: int) -> float:
        """Analytic eigenvalue on the n-th Hermite-Gaussian eigenfunction."""
        kappa = self.kappa
        return math.sqrt(2.0 * math.pi / (1.0 + kappa)) * (-self.sigma / (1.0 + kappa)) ** n

    def trace_formula(self) -> float:
        return math.sqrt(math.pi / (1.0 + self.sigma))


def _adaptive_orders(rule: QuadratureRule | None):
    start = rule.order if rule is not None else DEFAULT_ORDER
    orders = [start]
    while orders[-1] * 2 <= MAX_ORDER:
        orders.append(orders[-1] * 2)
    return orders


def _warn_unconverged(name: str, delta: float):
    warnings.warn(
        f"{name}: quadrature did not stabilize below {AGREEMENT_TOL:g} "
        f"(last change {delta:.3e}); result may be truncation-limited",
        stacklevel=3,
    )


def _stabilized(evaluate, orders, name: str) -> np.ndarray:
    """Evaluate at increasing orders until two successive values agree.

    A single-entry order list skips the agreement check (the caller pinned
    the order); running out of orders warns instead of failing silently.
    """
    current = evaluate(orders[0])
    for order in orders[1:]:
        upgraded = evaluate(order)
        delta = float(np.max(np.abs(upgraded - current)))
        current = upgraded
        if delta <= AGREEMENT_TOL:
            return current
    if len(orders) > 1:
        _warn_unconverged(name, delta)
    return current


def kernel_eigenpair_residual(kernel: GaussKernel, n: int, rule: QuadratureRule | None = None):
    """Residual of the eigenpair claim for the Gaussian kernel.

    Applies the kernel to the n-th Hermite-Gaussian function by quadrature
    and compares with the analytic eigenvalue times the function, on a fixed
    grid of check points. Returns (sup residual, analytic eigenvalue).
    """
    check_points = np.linspace(-4.0, 4.0, 17)
    xi = kernel.eigenvalue(n)
    target = xi * hermite_gaussian(n, kernel.kappa, check_points)

    def apply_kernel(order: int) -> np.ndarray:
        q = QuadratureRule.gauss_hermite(order)
        values = kernel(check_points[:, None], q.nodes[None, :])
        return values @ (q.weights * hermite_gaussian(n, kernel.kappa, q.nodes))

    current = _stabilized(apply_kernel, _adaptive_orders(rule), "kernel_eigenpair_residual")
    return float(np.max(np.abs(current - target))), xi


def kernel_trace(kernel: GaussKernel, rule: QuadratureRule | None = None) -> float:
    """Trace of the kernel by quadrature along the diagonal."""

    def evaluate(order: int) -> np.ndarray:
        q = QuadratureRule.gauss_hermite(order)
        return np.array([q.weights @ kernel(q.nodes, q.nodes)])

    return float(_stabilized(evaluate, _adaptive_orders(rule), "kernel_trace")[0])


def kernel_moments(kernel: GaussKernel, n: int, rule: QuadratureRule | None = None):
    """Quadrature values of the x, x^2 and xy moments of the kernel.

    The moments are diagonal matrix elements of g(x, y) * kernel against the
    n-th Hermite-Gaussian eigenfunction, computed by two-dimensional
    weight-stripped Gauss-Hermite quadrature.
    """

    def evaluate(order: int) -> np.ndarray:
        q = QuadratureRule.gauss_hermite(order)
        psi = hermite_gaussian(n, kernel.kappa, q.nodes)
        wx = q.weights * psi
        base = kernel(q.nodes[:, None], q.nodes[None, :])
        m_x = wx @ (base * q.nodes[:, None]) @ wx
        m_xx = wx @ (base * np.square(q.nodes)[:, None]) @ wx
        m_xy = wx @ (base * np.outer(q.nodes, q.nodes)) @ wx
        return np.array([m_x, m_xx, m_xy])

    current = _stabilized(evaluate, _adaptive_orders(rule), "kernel_moments")
    return tuple(float(v) for v in current)


def kernel_moment_formulas(kernel: GaussKernel, n: int):
    """Closed forms of the three moments for sigma in (-1, 0)."""
    if not kernel.sigma < 0.0:
        raise ValueError("moment formulas are stated for sigma in (-1, 0)")
    kappa = kernel.kappa
    mu_sq = (1.0 - kernel.sigma) / (1.0 + kernel.sigma)
    mu = math.sqrt(mu_sq)
    xi = kernel.eigenvalue(n)
    m_xx = (2 * n + 1) / (2.0 * kappa) * xi
    m_xy = (2.0 * (mu_sq + 1.0) / (mu_sq - 1.0) * n + (mu - 1.0) / (mu + 1.0)) * xi / (2.0 * kappa)
    return 0.0, m_xx, m_xy


def gaussian_poly_integral(quad_form, linear, poly, order: int, degree_hint: int | None = None) -> float:
    """Integral of poly(z) * exp(-z^T M z / 2 + J^T z) over R^d.

    Diagonalizes M, completes the square and integrates on a whitened tensor
    Gauss-Hermite grid; exact (up to rounding) whenever poly is a polynomial
    of per-axis degree at most 2*order - 1. ``poly`` maps an array of shape
    (d, npoints) to (npoints,).
    """
    from scipy.linalg import eigh

    m = np.asarray(quad_form, dtype=float)
    m = 0.5 * (m + m.T)
    d = m.shape[0]
    j = np.zeros(d) if linear is None else np.asarray(linear, dtype=float)
    values, vectors = eigh(m)
    if values[0] <= 0:
        raise np.linalg.LinAlgError("quadratic form must be positive definite")
    center = vectors @ ((vectors.T @ j) / values)
    transform = math.sqrt(2.0) * (vectors / np.sqrt(values))
    prefactor = math.exp(0.5 * float(j @ center)) * 2 ** (d / 2.0) / math.sqrt(np.prod(values))

    nodes, weights = _gh_raw(order)
    if order**d > 2 * 10**7:
        raise ValueError(f"refusing tensor grid of {order}^{d} points")
    if d == 1:
        z = center[:, None] + transform @ nodes[None, :]
        return prefactor * float(weights @ poly(z))
    rest = np.meshgrid(*([nodes] * (d - 1)), indexing="ij")
    rest = np.stack([r.ravel() for r in rest])
    w_rest = np.meshgrid(*([weights] * (d - 1)), indexing="ij")
    w_rest = np.prod(np.stack([w.ravel() for w in w_rest]), axis=0)
    total = 0.0
    slab = np.empty((d, rest.shape[1]))
    for x0, w0 in zip(nodes, weights):
        slab[0, :] = x0
        slab[1:, :] = rest
        z = center[:, None] + transform @ slab
        total += w0 * float(w_rest @ poly(z))
    return prefactor * total


def generalized_gaussian_integral(a, j_vec, k_vec, power: int, rule: QuadratureRule | None = None):
    """Moment integral of (K^T u)^power against exp(-u^T A u / 2 + J^T u).

    Returns (analytic, numeric): the closed-form double-factorial sum and an
    independent tensor-quadrature evaluation. Dimension is capped at 4 and
    the power at 8.
    """
    a = np.asarray(a, dtype=float)
    j_vec = np.asarray(j_vec, dtype=float)
    k_vec = np.asarray(k_vec, dtype=float)
    d = a.shape[0]
    if d > 4:
        raise ValueError("dimension capped at 4")
    if not 0 <= power <= 8:
        raise ValueError("power must lie in 0..8")
    from scipy.linalg import cho_factor, cho_solve

    try:
        factor = cho_factor(0.5 * (a + a.T))
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"matrix must be symmetric positive definite: {err}")
    a_inv_j = cho_solve(factor, j_vec)
    a_inv_k = cho_solve(factor, k_vec)
    kj = float(k_vec @ a_inv_j)
    kk = float(k_vec @ a_inv_k)
    det = float(np.prod(np.square(np.diag(factor[0]))))
    series = sum(
        double_factorial(2 * i - 1) * math.comb(power, 2 * i) * kj ** (power - 2 * i) * kk**i
        for i in range(power // 2 + 1)
    )
    analytic = math.sqrt((2.0 * math.pi) ** d / det) * math.exp(0.5 * float(j_vec @ a_inv_j)) * series

    order = rule.order if rule is not None else max(8, power // 2 + 3)
    order = min(order, 48) if d >= 3 else order

    def poly(z):
        return (k_vec @ z) ** power

    numeric = gaussian_poly_integral(a, j_vec, poly, order)
    check = gaussian_poly_integral(a, j_vec, poly, order + 3)
    if abs(check - numeric) > AGREEMENT_TOL * max(1.0, abs(check)):
        _warn_unconverged("generalized_gaussian_integral", abs(check - numeric))
    return analytic, check


# The ground state of h reduced to a region: the spectrum of h (scipy's signs),
# the blocks a, b, c of h^{1/2}, schur^{-1} = (a - c b^{-1} c^T)^{-1}, and the
# Williamson frame f = a^{-1/2} f2 diag(sqrt(2 mu^2/(1+mu^2))) with kappa = 2 mu/(1+mu^2).
_ReducedGroundState = namedtuple("_ReducedGroundState", "frequencies vectors a b c schur_inv f kappa")


def _spd_power(m: np.ndarray, power: float) -> np.ndarray:
    from scipy.linalg import eigh

    values, vectors = eigh(m)
    return (vectors * values**power) @ vectors.T


def _reduced_ground_state(h, region: Region) -> _ReducedGroundState:
    """Blocks of h^{1/2}, the Schur complement and the frame, from scipy's eigh and Cholesky alone."""
    from scipy.linalg import cho_factor, cho_solve, eigh

    m = np.asarray(getattr(h, "matrix", h), dtype=float)
    values, vectors = eigh(0.5 * (m + m.T))
    if values[0] <= 0:
        raise np.linalg.LinAlgError("coupling matrix must be positive definite")
    if region.complement_size == 0:
        raise ValueError("region equals the whole lattice; the complement block is empty")
    frequencies = np.sqrt(values)
    root = (vectors * frequencies) @ vectors.T
    root = 0.5 * (root + root.T)
    ri, ci = region.indices, region.complement_indices
    a, b, c = root[np.ix_(ri, ri)], root[np.ix_(ci, ci)], root[np.ix_(ri, ci)]
    schur = a - c @ cho_solve(cho_factor(b), c.T)
    schur_inv = cho_solve(cho_factor(schur), np.eye(region.size))
    a_sqrt = _spd_power(a, 0.5)
    mu_sq, f2 = eigh(a_sqrt @ schur_inv @ a_sqrt)
    f = _spd_power(a, -0.5) @ f2 * np.sqrt(2.0 * mu_sq / (1.0 + mu_sq))
    kappa = 2.0 * np.sqrt(mu_sq) / (1.0 + mu_sq)
    return _ReducedGroundState(frequencies, vectors, a, b, c, schur_inv, f, kappa)


def symplectic_eigenvalues(h, region: Region) -> np.ndarray:
    """Symplectic eigenvalues mu_j of the reduced ground state, ascending.

    The positive spectrum of i J Gamma, through the Hermitian i Gamma^{1/2} J Gamma^{1/2},
    for the 2n x 2n covariance matrix Gamma = diag(schur^{-1}, a) of the oracle's own
    reduced state: a route to mu independent of the Williamson frame.
    """
    from scipy.linalg import block_diag, eigh

    state = _reduced_ground_state(h, region)
    root = _spd_power(block_diag(state.schur_inv, state.a), 0.5)
    j = np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(region.size))
    spectrum = eigh(1j * (root @ j @ root), eigvals_only=True)
    return np.sort(spectrum[spectrum > 0])


def bruteforce_reduced_diagonal(h, region: Region, alpha, occupations, rule: QuadratureRule | None = None) -> float:
    """Diagonal element of the reduced eigenstate by direct tensor quadrature.

    Builds the explicit position-space kernel of the eigenstate with
    occupation vector ``alpha`` (at most one excitation in total), reduces it
    over the complement by integration, changes variables with the mode
    frame and takes the diagonal element against the Hermite-Gaussian basis
    state ``occupations``. Cost grows as order^(2 region + complement), so
    lattices are capped at 3 sites.
    """
    return bruteforce_reduced_matrix_element(h, region, alpha, occupations, occupations, rule)


def bruteforce_reduced_matrix_element(
    h, region: Region, alpha, bra, ket, rule: QuadratureRule | None = None
) -> float:
    """Matrix element <bra| reduced eigenstate |ket> by direct tensor quadrature.

    ``bra`` and ``ket`` are occupation vectors of the Hermite-Gaussian mode
    basis of the reduced ground state; equal vectors give the diagonal
    elements. Everything is evaluated from the explicit position-space
    kernel, so this is the package's independent oracle.
    """
    lattice = region.lattice
    if lattice.size > 3:
        raise ValueError("brute force is capped at 3 sites (tensor quadrature cost)")
    alpha = np.asarray(alpha, dtype=int)
    if alpha.shape != (lattice.size,) or np.any(alpha < 0):
        raise ValueError("alpha must be a nonnegative vector, one entry per site")
    if alpha.sum() > 1:
        raise ValueError("at most one excitation in total is supported")
    n0 = region.size
    bra = np.asarray(bra, dtype=int)
    ket = np.asarray(ket, dtype=int)
    if bra.shape != (n0,) or ket.shape != (n0,) or np.any(bra < 0) or np.any(ket < 0):
        raise ValueError("occupations must be nonnegative vectors, one entry per region site")

    state = _reduced_ground_state(h, region)
    f_mat, kappa = state.f, state.kappa

    # Joint Gaussian of kernel(x, u; y, u) * basis(x) * basis(y) in z = (x, y, u).
    faf = f_mat.T @ state.a @ f_mat + np.diag(kappa)
    fc = f_mat.T @ state.c
    zero = np.zeros((n0, n0))
    quad_form = np.block([[faf, zero, fc], [zero, faf, fc], [fc.T, fc.T, 2.0 * state.b]])

    perm = np.concatenate([region.indices, region.complement_indices])
    vectors = state.vectors[perm, :]
    excited = [k for k in range(lattice.size) if alpha[k] >= 1]

    norms = [
        math.sqrt(math.sqrt(kappa[j] / math.pi) / (2.0 ** m[j] * math.factorial(m[j])))
        for m in (bra, ket)
        for j in range(n0)
    ]
    constant = (
        math.sqrt(np.prod(state.frequencies) / math.pi**lattice.size)
        * abs(np.linalg.det(f_mat))
        * float(np.prod(norms))
    )

    def poly(z):
        x = f_mat @ z[:n0]
        y = f_mat @ z[n0 : 2 * n0]
        u = z[2 * n0 :]
        value = np.ones(z.shape[1])
        for j in range(n0):
            root = math.sqrt(kappa[j])
            value *= hermite(bra[j], root * z[j]) * hermite(ket[j], root * z[n0 + j])
        for k in excited:
            v = vectors[:, k]
            w1 = v[:n0] @ x + v[n0:] @ u
            w2 = v[:n0] @ y + v[n0:] @ u
            value *= 2.0 * state.frequencies[k] * w1 * w2
        return value

    degree = int(bra.sum()) + int(ket.sum()) + 2 * int(alpha.sum())
    if rule is not None:
        orders = [rule.order, rule.order + 3]
    else:
        base = max(6, degree // 2 + 2)
        orders = [base, base + 3]
    first = gaussian_poly_integral(quad_form, None, poly, orders[0])
    second = gaussian_poly_integral(quad_form, None, poly, orders[1])
    if abs(second - first) > AGREEMENT_TOL * max(1.0, abs(second)):
        _warn_unconverged("bruteforce_reduced_diagonal", abs(second - first))
    return constant * second


@dataclass(frozen=True)
class VerifyRow:
    """One line of the verification table."""

    name: str
    worst: float
    tolerance: float
    passed: bool


def verify_report(tolerance: float = 1e-8, seed: int = 20240801) -> list[VerifyRow]:
    """Run the appendix identity suite and return one row per identity.

    Covers the Gaussian-kernel eigenpairs and trace, the three moment
    formulas, the generalized Gaussian moment integrals on random SPD
    instances, and a plain quadrature sanity check.
    """
    rows = []

    q40 = QuadratureRule.gauss_hermite(40)
    sanity = abs(q40.integrate(lambda x: np.exp(-x * x)) - math.sqrt(math.pi))
    rows.append(VerifyRow("gaussian normalization integral", float(sanity), 1e-12, bool(sanity <= 1e-12)))

    sigmas = (-0.9, -0.5, -0.1)
    worst = 0.0
    for sigma in sigmas:
        kernel = GaussKernel(sigma)
        for n in range(11):
            residual, _ = kernel_eigenpair_residual(kernel, n)
            worst = max(worst, residual)
    rows.append(VerifyRow("kernel eigenpair residual", float(worst), tolerance, bool(worst <= tolerance)))

    worst = max(
        abs(kernel_trace(GaussKernel(sigma)) - GaussKernel(sigma).trace_formula())
        for sigma in sigmas
    )
    rows.append(VerifyRow("kernel trace formula", float(worst), tolerance, bool(worst <= tolerance)))

    worst_x = worst_xx = worst_xy = 0.0
    for sigma in sigmas:
        kernel = GaussKernel(sigma)
        for n in range(9):
            m_x, m_xx, m_xy = kernel_moments(kernel, n)
            f_x, f_xx, f_xy = kernel_moment_formulas(kernel, n)
            worst_x = max(worst_x, abs(m_x - f_x))
            worst_xx = max(worst_xx, abs(m_xx - f_xx))
            worst_xy = max(worst_xy, abs(m_xy - f_xy))
    rows.append(VerifyRow("first moments vanish", float(worst_x), tolerance, bool(worst_x <= tolerance)))
    rows.append(VerifyRow("squared-coordinate moment formula", float(worst_xx), tolerance, bool(worst_xx <= tolerance)))
    rows.append(VerifyRow("cross-coordinate moment formula", float(worst_xy), tolerance, bool(worst_xy <= tolerance)))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = basis @ np.diag(rng.uniform(0.5, 3.0, size=d)) @ basis.T
        j_vec = rng.standard_normal(d)
        k_vec = rng.standard_normal(d)
        power = int(rng.integers(0, 7))
        analytic, numeric = generalized_gaussian_integral(a, j_vec, k_vec, power)
        scale = max(abs(analytic), abs(numeric), 1e-30)
        worst = max(worst, abs(analytic - numeric) / scale)
    rows.append(VerifyRow("generalized gaussian integrals", float(worst), tolerance, bool(worst <= tolerance)))

    return rows
