"""Singular eigenfunction correlators, decay fits and the area-law constant.

The correlator matrix holds |<delta_j, h^{-1/2} delta_k>| for all site
pairs. Its fractional moments decay exponentially in the localized regime;
fitting that decay over a disorder ensemble produces the (C, eta) pair that
feeds the averaged area-law constant. A fit reads only the distance-bin
means of a moment matrix (``mean_moment_by_distance``, one ``np.bincount``).
Ensemble mean matrices are summed in index order by ``MomentSum``, and
``line_fit`` is the one least-squares line, shared with the scaling fits of
``experiments``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

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
    order, the order ``np.flatnonzero(lattice.distances == r)`` gives. No
    fit reads it any more (see ``mean_moment_by_distance``); it stays a
    library function because ``benchmarks/tracer.py`` wraps it.
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
    """Average an elementwise moment matrix over pairs at each l1 distance r >= 1.

    One ``np.bincount`` over the lattice's distances: each bin's sum adds
    its pairs one after the other in row-major order, and is divided by the
    bin's count once. Beside its input it holds the distances as intp keys,
    one n x n array, and no sort order.
    """
    keys = lattice.distances.ravel().astype(np.intp)
    counts = np.bincount(keys)
    sums = np.bincount(keys, weights=np.asarray(mean_moment, dtype=float).ravel(), minlength=counts.size)
    present = np.flatnonzero(counts[1:]) + 1
    return dict(zip(present.tolist(), (sums[present] / counts[present]).tolist()))


def require_fit_distances(lattice: Lattice) -> None:
    """Raise ValueError unless the lattice holds the three distances >= 1 a decay fit needs.

    A box holds every l1 distance from 1 to its largest, sum(L_i - 1), so
    its side lengths decide; bins that underflow can still leave too few.
    """
    largest = sum(n - 1 for n in lattice.lengths)
    if largest < 3:
        raise ValueError(f"need >= 3 distinct distances for a fit, the lattice has {largest}")


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
    if any(t.lattice.lengths != lattice.lengths for t in tables):
        raise ValueError("all tables must share one lattice")
    moments = MomentSum()
    for table in tables:
        moments.add(table.values**s)
    return _fit_binned(mean_moment_by_distance(moments.mean(), lattice), s)


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


def fit_decay_constant(by_distance: dict[int, float], lattice: Lattice, s: float, bound: float) -> tuple[DecayFit, float | None]:
    """The decay fit of mean moments by distance on ``lattice`` and its area-law constant, which is None unless eta > 0.

    ``by_distance`` maps each l1 distance r >= 1 to the mean moment there,
    as ``mean_moment_by_distance`` returns it.
    """
    fit = _fit_binned(by_distance, s)
    if not fit.eta > 0:
        return fit, None
    return fit, area_law_constant(fit.prefactor, fit.eta, s, bound, lattice.dimension)


def _fit_binned(by_distance: dict[int, float], s: float) -> DecayFit:
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

    Each value is written as ``"%.15g" % value`` writes its float64. The
    matrix is rendered a block of whole rows at a time, at most
    ``_BLOCK_VALUES`` values and a 32nd of the rows, and each block is
    written as one ASCII string. A block formats only the columns k from
    its first row on. The field of (j, k) with k before that row is the
    field its mirror (k, j) got, kept in a store that holds the rows
    already written × the columns not yet written, n²/4 fields at most; a
    pair whose bits differ (-0.0, a NaN payload, 1 ulp) is formatted
    itself. So a symmetric matrix is formatted about once per pair. Beside
    its input the writer holds the store, one block and the decimal labels
    of the lattice's indices and distances: traced, 1.3 n² doubles for a
    mean moment on a 400-site chain and 1.8 n² on an 8×8×8 box, and from
    64 sites on at most 3.8 n² when every value takes a fixed-point layout
    (1.1 n² at 1000 sites).

    A value is rendered by numpy where long double decides its rounding: it
    is scaled to 15 digits before the point by a long-double power of ten,
    its integer part and the distance of its fraction from one half give
    its digits, and tables of %g layouts place them. The rest take the
    exact fallback, ``%`` on the Python float: values whose fraction lies
    within the product's error band of one half (``_Kernel.band``, derived
    from ``np.finfo(np.longdouble)``; about 1.7e-4 for x87 long double, so
    one value in three thousand), and zeros, subnormals, infinities and
    NaNs. Where long double is no wider than double, every value takes the
    fallback: the bytes stay the same and only the speed is lost.
    """
    values = np.asarray(values).astype(np.float64, casting="same_kind", copy=False)
    n = lattice.size
    distances = lattice.distances
    labels = _label_words(max(n, int(distances.max(initial=0)) + 1))
    kernel = _kernel()
    bits = values.view(np.int64)
    handle.write("j,k,distance,value\n")
    step = max(1, min(_BLOCK_VALUES // n, n // 32))
    mirrors = {}  # a later block's start: its rows' fields at the columns already emitted, one chunk per block
    for start in range(0, n, step):
        stop = min(start + step, n)
        lines = _lines((labels[start:stop][:, None], labels[:n], labels[distances[start:stop]]))
        fields = lines[:, :, -_FIELD_WORDS:]
        fields[:, start:] = _fields(values[start:stop, start:], kernel).reshape(stop - start, n - start, _FIELD_WORDS)
        if start:
            fields[:, :start] = np.concatenate(mirrors.pop(start), axis=1)
            # a pair whose mirror differs in its bits (-0.0, a NaN payload, 1 ulp) is formatted itself
            rows, columns = np.nonzero(bits[start:stop, :start] != bits[:start, start:stop].T)
            if rows.size:
                fields[rows, columns] = _fields(values[start + rows, columns], kernel)
        for later in range(stop, n, step):
            mirrors.setdefault(later, []).append(fields[:, later : later + step].transpose(1, 0, 2).copy())
        handle.write(lines.tobytes().translate(None, b"\0").decode("ascii"))


_BLOCK_VALUES = 8192
_SIGNIFICANT = 15
# The tables cover the decimal exponents X with |X| <= this: every normal double's, and a carry.
_EXPONENTS = 310
# A value's field is 24 bytes, six uint32 words:
#   sign, d0, '.', d1 | d2-d5 | d6-d9 | d10-d13 | d14, 'e', sign, x | x, x or newline, ...
# with NULs where a character is absent, which are dropped when a block is joined.
_FIELD_WORDS = 6
_FIELD_BYTES = 4 * _FIELD_WORDS
# The field byte of each significant digit d0-d14, and where the exponent suffix starts
_DIGIT_BYTES = (1, 3, *range(4, 17))
_SUFFIX = 17
# %g forms: fixed point with decimal exponent X at X + 4 for -4 <= X < 15, then exponential
_EXPONENTIAL = 19
# Characters the layouts take besides the field's own, indexed from _FIELD_BYTES on
_LITERALS = b"0.\n\0"
_ZERO, _DOT, _NEWLINE, _NUL = range(_FIELD_BYTES, _FIELD_BYTES + len(_LITERALS))


def _label_words(count: int) -> np.ndarray:
    """Bytes of f"{x}," for x < count, NUL-padded to whole uint32 words, one row each."""
    labels = [f"{x},".encode() for x in range(count)]
    width = -(-max(map(len, labels)) // 4) * 4
    return np.array(labels, dtype=f"S{width}").view(np.uint32).reshape(count, width // 4)


def _lines(prefixes) -> np.ndarray:
    """A block's lines as NUL-padded uint32 words: the prefixes laid side by side, then room for the value's field."""
    rows, n = prefixes[-1].shape[:2]
    widths = [prefix.shape[-1] for prefix in prefixes]
    lines = np.empty((rows, n, sum(widths) + _FIELD_WORDS), dtype=np.uint32)
    start = 0
    for prefix, width in zip(prefixes, widths):
        lines[:, :, start : start + width] = prefix
        start += width
    return lines


def _fields(values: np.ndarray, kernel) -> np.ndarray:
    """The (size, _FIELD_WORDS) field words of ``values`` in C order, each its "%.15g\\n" text."""
    flat = values.ravel()
    fields = np.empty((flat.size, _FIELD_WORDS), dtype=np.uint32)
    slow = _format_values(flat, fields, kernel) if kernel else np.ones(flat.size, dtype=bool)
    if slow.any():
        texts = ["%.15g\n" % x for x in flat[slow].tolist()]
        fields[slow] = np.array(texts, dtype=f"S{_FIELD_BYTES}").view(np.uint32).reshape(-1, _FIELD_WORDS)
    return fields


def _format_values(values: np.ndarray, fields: np.ndarray, kernel: _Kernel) -> np.ndarray:
    """Write the field of each value whose rounding long double decides into its row of ``fields``.

    Returns the mask of the values left to the exact fallback; their rows hold no field.
    """
    magnitude = np.abs(values)
    fast = (magnitude >= np.finfo(np.float64).smallest_normal) & (magnitude <= np.finfo(np.float64).max)
    magnitude[~fast] = 1.0  # rendered as 1 and overwritten by the fallback; keeps every index in its table
    exponent = np.floor(np.log10(magnitude)).astype(np.intp)
    scaled = magnitude * kernel.scales[exponent + _EXPONENTS]
    whole = scaled.astype(np.int64)
    # log10 may round across a power of ten, which the scaled value shows; one
    # more scaling corrects it. Within the error band of a decade edge either
    # exponent gives the same digits, because rounding to the edge carries.
    off = np.flatnonzero((whole < 10**14) | (whole >= 10**15))
    if off.size:
        exponent[off] += np.where(whole[off] < 10**14, -1, 1)
        scaled[off] = magnitude[off] * kernel.scales[exponent[off] + _EXPONENTS]
        whole[off] = scaled[off].astype(np.int64)
    fraction = (scaled - whole.astype(np.longdouble)).astype(np.float64)
    fast &= np.abs(fraction - 0.5) > kernel.band
    digits = whole + (fraction > 0.5)
    carry = np.flatnonzero(digits == 10**15)
    digits[carry] = 10**14
    exponent[carry] += 1

    lead = digits // 10**13
    digits -= lead * 10**13
    fields[:, 0] = kernel.leads[lead] | np.signbit(values) * kernel.minus
    for word, power in ((1, 10**9), (2, 10**5), (3, 10)):
        quad = digits // power
        digits -= quad * power
        fields[:, word] = kernel.quads[quad]
    fields[:, 4] = kernel.lasts[digits] | kernel.exponent_heads[exponent + _EXPONENTS]
    fields[:, 5] = kernel.exponent_tails[exponent + _EXPONENTS]

    # %g drops trailing zeros: count the significant digits where d14 is 0
    count = np.full(values.size, _SIGNIFICANT)
    zero = np.flatnonzero(digits == 0)
    if zero.size:
        characters = fields.view(np.uint8)[zero][:, _DIGIT_BYTES]
        count[zero] -= np.argmax(characters[:, ::-1] != ord("0"), axis=1)
    # Fixed-point values, and exponential ones with fewer digits, take a layout of the field's bytes
    fixed = (exponent >= -4) & (exponent < _SIGNIFICANT)
    relaid = np.flatnonzero(fixed | (count < _SIGNIFICANT))
    if relaid.size:
        form = np.where(fixed[relaid], exponent[relaid] + 4, _EXPONENTIAL)
        literals = np.broadcast_to(np.frombuffer(_LITERALS, dtype=np.uint8), (relaid.size, len(_LITERALS)))
        source = np.concatenate([fields.view(np.uint8)[relaid], literals], axis=1)
        layout = kernel.layouts[form, count[relaid] - 1]
        fields[relaid] = np.take_along_axis(source, layout, axis=1).view(np.uint32)
    return ~fast


class _Kernel(SimpleNamespace):
    """Tables of the numpy rendering, built on first use (a plain namespace: no import-time class building)."""

    scales: np.ndarray  # 10^(14 - X) in long double, at X + _EXPONENTS
    band: float  # a fraction within this of 1/2 is left to the fallback
    minus: np.uint32  # word 0's sign byte for a negative value
    leads: np.ndarray  # word 0 of the leading digits d0 d1 (10-99): NUL, d0, '.', d1
    quads: np.ndarray  # four digits, 0000-9999
    lasts: np.ndarray  # d14 and three NULs
    exponent_heads: np.ndarray  # NUL, 'e', sign and first exponent digit, at X + _EXPONENTS
    exponent_tails: np.ndarray  # the other exponent digits and the newline, at X + _EXPONENTS
    layouts: np.ndarray  # field bytes as source bytes, by form and count of significant digits - 1


@functools.cache
def _kernel() -> _Kernel | None:
    """The numpy rendering's tables, or None where long double cannot decide the rounding.

    The band is 10^15, the bound of a scaled value, times the largest
    relative error of the scales, measured exactly against 10^(14 - X),
    plus one long-double eps (twice the product's rounding error).
    """
    info = np.finfo(np.longdouble)
    if info.nmant <= np.finfo(np.float64).nmant:
        return None
    exponents = range(-_EXPONENTS, _EXPONENTS + 1)
    powers = [_SIGNIFICANT - 1 - x for x in exponents]
    with np.errstate(over="ignore"):  # a long double with double's exponent range overflows
        scales = np.longdouble(10) ** np.array(powers, dtype=np.longdouble)
    if not np.all(np.isfinite(scales)):
        return None
    error = max(_relative_error(scale, power) for scale, power in zip(scales, powers))
    band = 10.0**_SIGNIFICANT * (error + float(info.eps))
    if not band < 0.01:
        return None

    def words(items) -> np.ndarray:
        return np.array(list(items), dtype="S4").view(np.uint32)

    suffixes = [b"" if -4 <= x < _SIGNIFICANT else b"e%+03d" % x for x in exponents]
    layouts = np.full((_EXPONENTIAL + 1, _SIGNIFICANT, _FIELD_BYTES), _NUL, dtype=np.intp)
    for form in range(_EXPONENTIAL + 1):
        whole = 1 if form == _EXPONENTIAL else form - 3  # digits before the point: X + 1 in fixed point
        tail = [*range(_SUFFIX, _FIELD_BYTES)] if form == _EXPONENTIAL else [_NEWLINE]
        for count in range(1, _SIGNIFICANT + 1):
            digits = list(_DIGIT_BYTES[:count])
            if whole <= 0:
                body = [_ZERO, _DOT] + [_ZERO] * -whole + digits
            else:
                body = (digits + [_ZERO] * whole)[:whole] + ([_DOT, *digits[whole:]] if count > whole else [])
            layouts[form, count - 1, : len(body) + len(tail) + 1] = [0, *body, *tail]
    return _Kernel(
        scales=scales,
        band=band,
        minus=words([b"-"])[0],
        leads=words(b"\0%d.%d" % divmod(lead, 10) if lead >= 10 else b"" for lead in range(100)),
        quads=words(b"%04d" % quad for quad in range(10**4)),
        lasts=words(b"%d" % digit for digit in range(10)),
        exponent_heads=words(b"\0" + suffix[:3] for suffix in suffixes),
        exponent_tails=words(suffix[3:] + b"\n" for suffix in suffixes),
        layouts=layouts,
    )


def _relative_error(scale, power: int) -> float:
    """|scale - 10^power| / 10^power, exactly, from the integer ratio of ``scale``."""
    numerator, denominator = scale.as_integer_ratio()
    if power >= 0:
        exact = 10**power * denominator
        return abs(numerator - exact) / exact
    return abs(numerator * 10**-power - denominator) / denominator


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
