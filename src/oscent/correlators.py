"""Singular eigenfunction correlators, decay fits and the area-law constant.

The correlator matrix holds |<delta_j, h^{-1/2} delta_k>| for all site
pairs. Its fractional moments decay exponentially in the localized regime;
fitting that decay over a disorder ensemble produces the (C, eta) pair that
feeds the averaged area-law constant. Ensemble means are summed in index
order by ``MomentSum``, and ``line_fit`` is the one least-squares line,
shared with the scaling fits of ``experiments``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonian import norm_bound_holds
from .lattice import Lattice, Region
from .spectral import SpectralData, eigensystem, spd_inv_sqrt

# Distance bins whose empirical mean falls below this are dropped from the
# decay fit; deep-localization tails underflow long before they matter.
UNDERFLOW_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class CorrelatorTable:
    """Absolute inverse-square-root matrix elements for one realization."""

    values: np.ndarray
    lattice: Lattice
    hsqrt_norm: float


@dataclass(frozen=True)
class DecayFit:
    """Exponential-decay fit of averaged correlator moments.

    ``eta`` is minus the fitted slope of log(mean moment) against distance,
    ``prefactor`` the exponentiated intercept. The fit window and residual
    are reported because a finite-volume fit conflates boundary effects with
    the true asymptotic exponent.
    """

    eta: float
    prefactor: float
    s: float
    residual: float
    distances: tuple[int, ...]


def correlator_table(h, data: SpectralData | None = None) -> CorrelatorTable:
    """Correlator matrix of one coupling matrix ``h``, reusing its eigensystem ``data`` if given.

    With ``data`` only the lattice of ``h`` is read, so ``h`` may be that
    ``Lattice`` itself.
    """
    data = eigensystem(h) if data is None else data
    values = spd_inv_sqrt(data)  # exactly symmetric
    return CorrelatorTable(
        values=np.abs(values, out=values),
        lattice=h if isinstance(h, Lattice) else h.lattice,
        hsqrt_norm=float(data.frequencies[-1]),
    )


def require_norm_bound(table: CorrelatorTable, bound: float) -> CorrelatorTable:
    """Return ``table``; raise ValueError if ``bound`` does not dominate its ||h^{1/2}||."""
    if not norm_bound_holds(table.hsqrt_norm, bound):
        raise ValueError(f"bound {bound} is below the actual square-root norm {table.hsqrt_norm}")
    return table


def ground_state_correlator_bound(table: CorrelatorTable, region: Region, p: float, bound: float) -> float:
    """Cross-region correlator bound on the ground-state Renyi entropies.

    Computes bound^{p/2}/p times the sum of |<delta_k, h^{-1/2} delta_j>|^{p/2}
    over region sites k and complement sites j. Valid for every eps in
    [1/2, 1], any p in (0, 1], and any bound dominating ||h^{1/2}||.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    require_norm_bound(table, bound)
    cross = table.values[np.ix_(region.indices, region.complement_indices)]
    return float(bound ** (p / 2.0) / p * np.sum(cross ** (p / 2.0)))


def distance_bins(lattice: Lattice) -> dict[int, np.ndarray]:
    """Index pairs (as flat masks) grouped by l1 distance >= 1.

    Each bin holds flat indices into the size x size matrix in row-major
    order, the order ``np.flatnonzero(lattice.distances == r)`` gives.
    """
    flat = lattice.distances.ravel()
    # Distances up to 65535 fit 8- or 16-bit keys, which numpy's stable sort
    # radix-sorts. A stable sort's output depends only on the keys, so the
    # narrower copy gives the same bins.
    order = np.argsort(flat.astype(np.min_scalar_type(flat.max())), kind="stable")
    ends = np.cumsum(np.bincount(flat))
    return {
        r: order[ends[r - 1] : ends[r]]
        for r in range(1, ends.size)
        if ends[r] > ends[r - 1]
    }


def mean_moment_by_distance(mean_moment: np.ndarray, lattice: Lattice) -> dict[int, float]:
    """Average an elementwise moment matrix over pairs at each l1 distance."""
    flat = np.asarray(mean_moment).ravel()
    return {r: float(flat[idx].mean()) for r, idx in distance_bins(lattice).items()}


def decay_fit(tables: list[CorrelatorTable], s: float) -> DecayFit:
    """Least-squares exponential-decay fit of E[|correlator|^s] vs distance.

    All tables must come from the same lattice. The fit runs over distances
    r >= 1 whose averaged moment stays above the underflow floor; fewer than
    three surviving distances is an error rather than a degenerate fit.
    """
    if not tables:
        raise ValueError("need at least one correlator table")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    lattice = tables[0].lattice
    if any(t.lattice is not lattice and t.lattice.sites != lattice.sites for t in tables):
        raise ValueError("all tables must share one lattice")
    moments = MomentSum()
    for table in tables:
        moments.add(table.values**s)
    return _fit_binned(moments.mean(), lattice, s)


class MomentSum:
    """Moment matrices summed left to right as they are added; ``mean`` divides once, at the end.

    The sum is one array of its own, added to in place; no added moment is changed.
    """

    def __init__(self):
        self.total, self.count = None, 0

    def add(self, moment: np.ndarray):
        if self.total is None:
            self.total = np.array(moment, dtype=float)
        else:
            self.total += moment
        self.count += 1

    def mean(self) -> np.ndarray:
        return self.total / self.count


def fit_decay_constant(mean_moment: np.ndarray, lattice: Lattice, s: float, bound: float) -> tuple[DecayFit, float | None]:
    """The decay fit of a mean moment matrix and its area-law constant, which is None unless eta > 0."""
    fit = _fit_binned(mean_moment, lattice, s)
    if not fit.eta > 0:
        return fit, None
    return fit, area_law_constant(fit.prefactor, fit.eta, s, bound, lattice.dimension)


def _fit_binned(mean_moment: np.ndarray, lattice: Lattice, s: float) -> DecayFit:
    by_distance = mean_moment_by_distance(mean_moment, lattice)
    usable = {r: v for r, v in by_distance.items() if v > UNDERFLOW_FLOOR}
    if not usable:
        raise ValueError("no decay data: all averaged moments vanish")
    dropped = sorted(set(by_distance) - set(usable))
    if dropped:
        warnings.warn(f"dropping underflowed distance bins {dropped}", stacklevel=2)
    if len(usable) < 3:
        raise ValueError(f"need >= 3 distinct distances for a fit, have {len(usable)}")
    r = np.array(sorted(usable))
    intercept, slope, _, residual = line_fit(r.astype(float), np.log(np.array([usable[int(v)] for v in r])))
    return DecayFit(eta=-slope, prefactor=float(np.exp(intercept)), s=s, residual=residual, distances=tuple(int(v) for v in r))


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line y ~ intercept + slope x: (intercept, slope, slope standard error, rms residual).

    A constant ``x`` (the boundary size of every 1d interval) leaves the
    line undefined, not flat: intercept, slope and error are nan and the
    residual is the rms spread of ``y``. With two points the error is 0.
    """
    if np.ptp(x) == 0.0:
        return math.nan, math.nan, math.nan, float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    ssr = float(np.sum((y - design @ coef) ** 2))
    dof = len(x) - 2
    slope_se = math.sqrt(max(ssr / dof, 0.0) * np.linalg.inv(design.T @ design)[1, 1]) if dof > 0 else 0.0
    return float(coef[0]), float(coef[1]), slope_se, math.sqrt(ssr / len(x))


def correlator_csv(values: np.ndarray, lattice: Lattice, handle) -> None:
    """Write a real correlator (or moment) matrix to the text ``handle`` as CSV rows j,k,distance,value.

    One write per matrix row, so the whole table is never held as one
    string. Values are written with ``%.15g``. Each entry on or above the
    diagonal is formatted once; its mirror (k, j) reuses that string when
    their float64 bits agree (an int64 view keeps -0.0 and NaN payloads
    apart) and is formatted on its own otherwise. A symmetric matrix costs
    about half the conversions, and every matrix gives the bytes of
    formatting each entry.
    """
    values = np.asarray(values).astype(np.float64, casting="same_kind", copy=False)
    bits = values.view(np.int64)
    n = lattice.size
    distances = lattice.distances
    # Decimal strings with their trailing comma, for the k and distance columns.
    decimals = np.array([f"{x}," for x in range(max(n, int(distances.max(initial=0)) + 1))], dtype=object)
    fmt = "%.15g\n".__mod__
    # Row i stores its strings for columns > i; column i is cleared once row i
    # has taken them, so at most about n^2/4 strings are alive at a time.
    pending = np.empty((n, n), dtype=object)
    handle.write("j,k,distance,value\n")
    parts = [None] * (4 * n)
    parts[1::4] = decimals[:n].tolist()
    for i in range(n):
        row = values[i]
        upper = list(map(fmt, row[i:].tolist()))
        pending[i, i + 1 :] = upper[1:]
        column = pending[:i, i]
        lower = column.tolist()
        column[...] = None
        for k in np.flatnonzero(bits[i, :i] != bits[:i, i]).tolist():
            lower[k] = fmt(row[k].item())
        parts[0::4] = [f"{i},"] * n
        parts[2::4] = decimals[distances[i]].tolist()
        parts[3::4] = lower + upper
        handle.write("".join(parts))


def lattice_exponential_sum(eta: float, dimension: int) -> float:
    """Closed form of sum over Z^d of exp(-eta |k|_1 / 2).

    The l1 norm factorizes over axes, so the sum is the d-th power of the
    one-dimensional two-sided geometric sum.
    """
    if not eta > 0:
        raise ValueError("eta must be positive for a convergent sum")
    q = math.exp(-0.5 * eta)
    return ((1.0 + q) / (1.0 - q)) ** dimension


def area_law_constant(prefactor: float, eta: float, s: float, bound: float, dimension: int) -> float:
    """Volume-independent constant multiplying the boundary size in the averaged bound.

    Equals bound^{s/2} * prefactor / s times the squared lattice exponential
    sum; diverges (raises) when eta <= 0.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    total = lattice_exponential_sum(eta, dimension)
    return bound ** (s / 2.0) * prefactor / s * total**2
