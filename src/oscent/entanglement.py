"""Entropy formulas and entanglement bounds.

Ground state: the eps-Renyi entanglement entropy is an explicit function of
the symplectic eigenvalues mu_j,

    E_eps = 1/(1-eps) * sum_j log f_eps(mu_j),
    f_eps(x) = (((x+1)/2)^eps - ((x-1)/2)^eps)^(-1),

with eps = 1 the von Neumann limit and eps = 1/2 the logarithmic
negativity. Single-excitation eigenstates are not gaussian; for those only
the diagonal matrix elements in the ground-state mode basis are available
in closed form, and they yield a computable upper bound on the 1/2-Renyi
entropy plus the coarser bound 2 N(ground) + 4 log(region size).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .spectral import BipartitionBlocks, SpectralData, SymplecticSpectrum

# Modes with mu below this threshold take the analytic mu -> 1 limit in the
# excited-state diagonal formula (the (mu-1)^n zero cancels the pole).
MU_ONE_THRESHOLD = 1.0 + 1e-8

# Diagonal elements more negative than this indicate a formula misuse
# rather than rounding noise.
NEGATIVE_FLOOR = -1e-12

# Below this distance 1 - eps from the von Neumann point, E_eps takes its
# cumulant series: the 1/(1-eps) prefactor would amplify the cancellation in
# log f_eps, and the neglected delta^3 term is below 1e-12 per mode here.
SERIES_DELTA = 1e-4

# Occupation cutoffs truncate each mode's geometric tail below this mass.
OCCUPATION_TAIL = 1e-12

# Tolerance of both weight sum rules: a row (one excitation) sums to at
# most 2, a column (one symplectic mode, over all excitations) to exactly 2.
WEIGHT_SUM_TOLERANCE = 1e-9

# The smallest eps the Renyi factor accepts: the smallest normal double.
# Below it eps * log((mu-1)/(mu+1)) is subnormal and f_eps, its reciprocal
# up to O(1), overflows to inf.
EPS_MIN = float(np.finfo(float).tiny)


def renyi_factor(x, eps: float):
    """Per-mode factor f_eps(x) of the ground-state Renyi formula.

    Defined for x >= 1 and EPS_MIN <= eps < 1; f_eps(1) = 1 for every eps.
    The exponential of log_renyi_factor, so it overflows to inf where f_eps
    exceeds the largest double (small eps at large x); ground_state_renyi
    sums the logarithm, which stays finite there.
    """
    value = np.exp(log_renyi_factor(x, eps))
    return value if value.ndim else float(value)


def log_renyi_factor(x, eps: float):
    """log f_eps(x), for x >= 1 and EPS_MIN <= eps < 1; 0 at x = 1.

    With a = (x+1)/2 the difference of powers a^eps - ((x-1)/2)^eps is
    -a^eps * expm1(eps * log((x-1)/(x+1))), which does not cancel at large
    x, so log f_eps = -eps log a - log(-expm1(eps log((x-1)/(x+1)))). The
    ratio's logarithm is log1p(-2/(x+1)) from x = 3 on, where the ratio is
    near 1, and a plain log below, where log1p would cancel instead.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1.0):
        raise ValueError("renyi_factor requires x >= 1")
    if not EPS_MIN <= eps < 1.0:
        raise ValueError(f"eps must lie in [{EPS_MIN!r}, 1), got {eps}")
    # At x = 1 the ratio's logarithm is -inf and expm1(-inf) = -1, so log f_eps(1) = 0.
    value = -eps * np.log((x + 1.0) / 2.0) - np.log(-np.expm1(eps * _log_ratio(x)))
    return value if value.ndim else float(value)


def _log_ratio(x: np.ndarray) -> np.ndarray:
    """log((x-1)/(x+1)): log1p(-2/(x+1)) from x = 3 on, a plain log below; -inf at x = 1."""
    with np.errstate(divide="ignore"):
        return np.where(x < 3.0, np.log((x - 1.0) / (x + 1.0)), np.log1p(-2.0 / (x + 1.0)))


def half_renyi_factor(x):
    """Closed form of f_{1/2}: sqrt(2)/(sqrt(x+1) - sqrt(x-1)).

    Evaluated as (sqrt(x+1) + sqrt(x-1))/sqrt(2), the same value without
    the cancellation in the denominator at large x.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1.0):
        raise ValueError("half_renyi_factor requires x >= 1")
    value = (np.sqrt(x + 1.0) + np.sqrt(x - 1.0)) / np.sqrt(2.0)
    return value if value.ndim else float(value)


def _mu_of(spectrum) -> np.ndarray:
    if isinstance(spectrum, SymplecticSpectrum):
        return spectrum.mu
    return np.asarray(spectrum, dtype=float)


def ground_state_renyi(spectrum, eps: float) -> float:
    """eps-Renyi entanglement entropy of the ground state, eps in [EPS_MIN, 1].

    eps = 1 takes the separate von Neumann branch rather than a numerical
    limit; both closed forms come straight from the symplectic eigenvalues.
    For 1 - eps below SERIES_DELTA the value is the von Neumann entropy plus
    the first two terms of its series in 1 - eps. Accepts a
    SymplecticSpectrum or a bare array of mu values.
    """
    mu = _mu_of(spectrum)
    if np.any(mu < 1.0):
        raise ValueError("symplectic eigenvalues must all be >= 1")
    if eps == 1.0:
        return _von_neumann(mu)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    delta = 1.0 - eps
    if delta < SERIES_DELTA:
        return _near_von_neumann(mu, delta)
    return float(np.sum(log_renyi_factor(mu, eps)) / delta)


def _von_neumann(mu: np.ndarray) -> float:
    """Sum over modes of (m+1) log(m+1) - m log m, m = (mu-1)/2; a mode at mu = 1 adds 0.

    Evaluated as log1p(m) - m log(m/(m+1)), with m/(m+1) = (mu-1)/(mu+1):
    two terms of one sign, so nothing cancels at large mu, where the two
    products of the plain form each grow like mu log mu.
    """
    minus = (mu - 1.0) / 2.0
    with np.errstate(invalid="ignore"):  # 0 * -inf at mu = 1, replaced by 0
        terms = np.where(minus > 0, np.log1p(minus) - minus * _log_ratio(mu), 0.0)
    return float(np.sum(terms))


def _near_von_neumann(mu: np.ndarray, delta: float) -> float:
    """E_eps at delta = 1 - eps from its expansion S + delta k2/2 + delta^2 k3/6.

    Mode j is a thermal state with occupation ratio r = (mu-1)/(mu+1); k2
    and k3 sum the second and third cumulants of -log p over those states:
    k2 = (log r)^2 m (m+1) and k3 = -(log r)^3 mu m (m+1) per mode, with
    m = (mu-1)/2. Each power of log r, which falls like 2/mu, is paired
    with one factor m, m+1 or mu, so no factor overflows at large mu. A
    mode at mu = 1 is pure and adds 0.
    """
    mixed = mu[mu > 1.0]
    log_r = _log_ratio(mixed)
    minus = (mixed - 1.0) / 2.0
    second = (log_r * minus) * (log_r * (minus + 1.0))
    k2 = np.sum(second)
    k3 = -np.sum(second * (log_r * mixed))
    return _von_neumann(mu) + float(delta * k2 / 2.0 + delta**2 * k3 / 6.0)


def log_negativity(spectrum) -> float:
    """Logarithmic negativity of the ground state: the 1/2-Renyi entropy."""
    return ground_state_renyi(spectrum, 0.5)


def _profile_arrays(data: SpectralData, blocks: BipartitionBlocks, spectrum: SymplecticSpectrum):
    """Vectorized nu vectors, complement energies and weights for all modes.

    Column k of ``nu`` is the region part of eigenvector k pushed through the
    Schur complement, entry k of ``complement_energy`` the complement
    quadratic form gamma_k (v_k)_c^T b^{-1} (v_k)_c, and row k of ``weights``
    the couplings Q_{k,j} of excitation k to the symplectic modes. No
    complement-block solve: the complement rows of h^{1/2} v = gamma v give
    gamma b^{-1} v_C = v_C + b^{-1} c^T v_R.
    """
    v_region = data.vectors[blocks.region.indices, :]
    v_complement = data.vectors[blocks.region.complement_indices, :]
    scaled = v_complement + blocks.b_inv_ct @ v_region  # gamma_k b^{-1} (v_k)_c
    nu = v_region - (blocks.c @ scaled) / data.frequencies
    complement_energy = np.einsum("ik,ik->k", v_complement, scaled)
    frame = spectrum.f2.T @ spectrum.a_inv_sqrt
    x = frame @ nu
    y = frame @ v_region
    weights = data.frequencies[None, :] * (
        spectrum.mu[:, None] ** 2 * x**2 + y**2
    )
    return nu, complement_energy, weights.T


def excitation_weights(
    data: SpectralData, blocks: BipartitionBlocks, spectrum: SymplecticSpectrum
) -> np.ndarray:
    """Weights Q_{k,j} for every excitation at once, shape (modes, region size).

    Row k - 1 is the weight row of 1-based excitation k. Raises
    ArithmeticError unless every mode satisfies the defining identities:
    each row (one excitation) sums to at most 2, each column (one
    symplectic mode) to 2 within WEIGHT_SUM_TOLERANCE, and the
    frequency-weighted energy split
    gamma_k (nu^T schur^{-1} nu + (v)_c^T b^{-1} (v)_c) equals 1.
    """
    nu, complement_energy, weights = _profile_arrays(data, blocks, spectrum)
    sums = weights.sum(axis=1)
    over = np.flatnonzero(sums > 2.0 + WEIGHT_SUM_TOLERANCE)
    if over.size:
        raise ArithmeticError(f"weight sum {sums[over].max()} exceeds 2")
    split = data.frequencies * np.einsum("ik,ik->k", nu, blocks.solve_schur(nu))
    residual = split + complement_energy - 1.0
    off = np.flatnonzero(np.abs(residual) > 1e-8)
    if off.size:
        worst = off[np.argmax(np.abs(residual[off]))]
        raise ArithmeticError(f"energy-split identity violated by {residual[worst]:.3e}")
    residual = weights.sum(axis=0) - 2.0
    worst = np.argmax(np.abs(residual))
    if not abs(residual[worst]) <= WEIGHT_SUM_TOLERANCE:  # a nan fails too
        raise ArithmeticError(f"weight column sum is off 2 by {residual[worst]:.3e}")
    return weights


def excitation_profile(
    data: SpectralData,
    blocks: BipartitionBlocks,
    spectrum: SymplecticSpectrum,
    mode: int,
) -> np.ndarray:
    """The weight row Q_{mode,.} of 1-based excitation ``mode``.

    Checks the defining identities of every mode, as excitation_weights
    does, and raises IndexError for a mode outside 1..data.size.
    """
    if not 1 <= mode <= data.size:
        raise IndexError(f"mode must lie in 1..{data.size}, got {mode}")
    return excitation_weights(data, blocks, spectrum)[mode - 1]


def _weight_row(weights, spectrum: SymplecticSpectrum) -> np.ndarray:
    """``weights`` as one excitation's weight row; ValueError unless it has one entry per mode."""
    q = np.asarray(weights, dtype=float)
    if q.shape != (spectrum.size,):
        raise ValueError(f"weights must be one row of {spectrum.size} entries, got shape {q.shape}")
    return q


def excited_diagonal_element(weights, spectrum: SymplecticSpectrum, occupations) -> float:
    """Diagonal matrix element of the reduced single-excitation state.

    ``weights`` is the excitation's weight row and ``occupations`` the
    vector of mode occupation numbers in the symplectic mode basis. Modes at
    mu = 1 are handled by the analytic limit: occupied decoupled modes kill
    every term except their own weight/2 contribution at occupation 1.
    """
    n = np.asarray(occupations, dtype=int)
    if n.shape != (spectrum.size,) or np.any(n < 0):
        raise ValueError("occupations must be a nonnegative vector, one entry per mode")
    mu = spectrum.mu
    q = _weight_row(weights, spectrum)
    at_one = mu < MU_ONE_THRESHOLD
    singular = at_one & (n > 0)
    ratio = np.where(at_one, 0.0, (mu - 1.0) / (mu + 1.0))
    base_factors = (2.0 / (1.0 + mu)) * ratio**n
    if not np.any(singular):
        pole_terms = np.zeros(spectrum.size)
        regular = ~at_one
        pole_terms[regular] = 2.0 * mu[regular] / (mu[regular] ** 2 - 1.0)
        bracket = 1.0 - np.sum(mu / (mu + 1.0) * q) + np.sum(pole_terms * q * n)
        value = float(np.prod(base_factors) * bracket)
    elif np.count_nonzero(singular) == 1 and n[singular][0] == 1:
        # The (mu-1)^{n_j} zero cancels the 2 mu/(mu^2-1) pole; in the limit
        # only this mode's term survives with value q_j/2.
        j = int(np.nonzero(singular)[0][0])
        others = np.ones(spectrum.size, dtype=bool)
        others[j] = False
        value = float(np.prod(base_factors[others]) * q[j] / 2.0)
    else:
        # Two or more occupied decoupled modes, or occupation >= 2 there:
        # every term carries an uncancelled zero.
        value = 0.0
    if value < NEGATIVE_FLOOR:
        raise ArithmeticError(f"diagonal element {value} is negative beyond rounding noise")
    return max(value, 0.0)


def occupation_cutoffs(spectrum: SymplecticSpectrum) -> np.ndarray:
    """Per-mode occupation cutoffs with geometric tail below OCCUPATION_TAIL."""
    ratio = (spectrum.mu - 1.0) / (spectrum.mu + 1.0)
    cutoffs = np.ones(spectrum.size, dtype=int)
    positive = ratio > 0
    cutoffs[positive] = np.ceil(np.log(OCCUPATION_TAIL) / np.log(ratio[positive])).astype(int)
    return np.maximum(cutoffs, 1)


def excited_diagonal_trace(weights, spectrum: SymplecticSpectrum) -> float:
    """Sum of the diagonal elements of excitation weight row ``weights`` over the occupation_cutoffs box.

    Factorizes the box sum over modes exactly (the summand is a ground-state
    product times an affine function of the occupations), so the cost is
    quadratic in the region size rather than exponential. Converges to 1 as
    the cutoffs grow.
    """
    mu = spectrum.mu
    q = _weight_row(weights, spectrum)
    cutoffs = occupation_cutoffs(spectrum)
    at_one = mu < MU_ONE_THRESHOLD
    ratio = np.where(at_one, 0.0, (mu - 1.0) / (mu + 1.0))
    # Per-mode truncated moments of the ground factor (2/(1+mu)) ratio^n.
    s0 = np.empty(spectrum.size)
    s1_weighted = np.empty(spectrum.size)  # sum of (2 mu/(mu^2-1)) n ratio^n terms
    for j in range(spectrum.size):
        n = np.arange(cutoffs[j] + 1)
        p = (2.0 / (1.0 + mu[j])) * ratio[j] ** n
        s0[j] = p.sum()
        if at_one[j]:
            # limit of (2 mu/(mu^2-1)) * sum n p(n): only n = 1 survives.
            s1_weighted[j] = 0.5 if cutoffs[j] >= 1 else 0.0
        else:
            s1_weighted[j] = 2.0 * mu[j] / (mu[j] ** 2 - 1.0) * (n * p).sum()
    prod_all = np.prod(s0)
    total = prod_all * (1.0 - np.sum(mu / (mu + 1.0) * q))
    for j in range(spectrum.size):
        total += q[j] * s1_weighted[j] * prod_all / s0[j]
    return float(total)


def excited_half_renyi_bounds(weights, spectrum: SymplecticSpectrum):
    """(computed, theorem) upper bounds on the 1/2-Renyi entropy of excitations.

    ``weights`` is one excitation's weight row, which gives a float computed
    bound, or one row per excitation, which gives an array of them. The
    computed bound sums the square roots of the diagonal elements in closed
    form, 2 (log(1 + sqrt(Q_k) . f_{1/2}(mu)) + sum_j log f_{1/2}(mu_j)); the
    theorem bound, the same for every excitation, is
    2 N(ground) + 4 log(region size), and nan for single-site regions, where
    its derivation needs region size > 1.
    """
    f_half = half_renyi_factor(spectrum.mu)
    log_product = float(np.sum(np.log(f_half)))
    computed = 2.0 * (np.log1p(np.sqrt(weights) @ f_half) + log_product)
    if spectrum.size > 1:
        theorem = 2.0 * log_negativity(spectrum) + 4.0 * math.log(spectrum.size)
    else:
        theorem = math.nan
    return (computed if computed.ndim else float(computed)), theorem


def single_excitation_ensemble_bound(
    spectrum, lattice_size: int, region_size: int
) -> float:
    """Bound log 3 + 2 E_{1/2}(ground) for the uniform one-excitation ensemble.

    Only valid when region_size^2 <= lattice_size; violating that hypothesis
    raises rather than returning a number the derivation does not cover.
    """
    if region_size**2 > lattice_size:
        raise ValueError(
            f"hypothesis violated: region size squared {region_size**2} exceeds "
            f"lattice size {lattice_size}"
        )
    return math.log(3.0) + 2.0 * ground_state_renyi(spectrum, 0.5)


@dataclass
class EntropyReport:
    """Serializable bundle of entropies and bounds for one realization."""

    eps: list[float]
    ground_renyi: list[float]
    von_neumann: float
    log_negativity: float
    excited_modes: list[int] = field(default_factory=list)
    excited_computed_bounds: list[float] = field(default_factory=list)
    excited_theorem_bounds: list[float] = field(default_factory=list)
    ensemble_bound: float | None = None
    mu: list[float] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def entropy_report(
    spectrum: SymplecticSpectrum,
    eps_values,
    modes=(),
    weights=None,
    lattice_size: int | None = None,
) -> EntropyReport:
    """Assemble an EntropyReport; Renyi values are non-increasing in eps.

    ``modes`` lists 1-based excitations and ``weights`` holds their weight
    rows, a 2d array with one row per mode, for the excited bounds. Each
    distinct E_eps is computed once.
    """
    eps_values = [float(e) for e in eps_values]
    renyi = {eps: ground_state_renyi(spectrum, eps) for eps in {*eps_values, 0.5, 1.0}}
    report = EntropyReport(
        eps=eps_values,
        ground_renyi=[renyi[e] for e in eps_values],
        von_neumann=renyi[1.0],
        log_negativity=renyi[0.5],
        mu=spectrum.mu.tolist(),
    )
    if len(modes):
        computed, theorem = excited_half_renyi_bounds(weights, spectrum)
        report.excited_modes = [int(k) for k in modes]
        report.excited_computed_bounds = computed.tolist()
        report.excited_theorem_bounds = [theorem] * len(modes)
    if lattice_size is not None and spectrum.size**2 <= lattice_size:
        report.ensemble_bound = single_excitation_ensemble_bound(
            spectrum, lattice_size, spectrum.size
        )
    return report
