"""Effective single-particle coupling matrices on a lattice.

The workhorse is the random-spring model: nearest-neighbor quadratic
couplings plus i.i.d. on-site spring constants drawn uniformly from
[0, k_max]. Spring draws use a counter-based generator keyed by
(seed, realization_index), so realization r is the same no matter how many
workers sample in parallel or in what order.
The paper's two hypotheses on h, positive definiteness and ||h^{1/2}|| <= D,
are one predicate each (``is_positive_definite``, ``norm_bound_holds``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice

# Smallest eigenvalue must exceed this times ||h|| for the matrix to count
# as positive definite; exact singularity has probability zero for the
# uniform spring distribution, so anything at this floor is numerical.
PD_TOLERANCE = 1e-10

# Relative asymmetry allowed in user-supplied matrices before they are
# rejected instead of silently symmetrized.
SYM_TOLERANCE = 1e-12

# Relative roundoff allowed in the computed ||h^{1/2}|| when checking it
# against a norm bound D: a D equal to the true norm still holds.
NORM_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class DisorderModel:
    """I.i.d. uniform spring constants on [0, k_max], keyed by a 64-bit seed."""

    k_max: float
    seed: int

    def __post_init__(self):
        if not self.k_max > 0:
            raise ValueError(f"k_max must be positive, got {self.k_max}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Dense real symmetric positive-definite coupling matrix on a lattice."""

    matrix: np.ndarray
    lattice: Lattice

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class AssumptionReport:
    """Positivity and norm-bound diagnostics for a coupling matrix."""

    is_positive_definite: bool
    smallest_eigenvalue: float
    hsqrt_norm: float
    bound: float
    bound_satisfied: bool


def sample_springs(model: DisorderModel, lattice: Lattice, realization_index: int) -> np.ndarray:
    """Draw one realization of spring constants, one entry per site.

    Entry i is a deterministic function of (seed, realization_index, i):
    the stream is Philox keyed by (seed, realization_index), so repeated and
    parallel sampling agree bit for bit.
    """
    if realization_index < 0:
        raise ValueError("realization_index must be nonnegative")
    key = np.array([model.seed, realization_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return model.k_max * rng.random(lattice.size)


def assemble_anderson(lattice: Lattice, springs) -> CouplingMatrix:
    """Nearest-neighbor coupling matrix with on-site springs.

    Diagonal entry at site j is (number of neighbors of j inside the box)
    plus the spring constant k_j; off-diagonal entries are -1 exactly for
    l1-distance-1 pairs and 0 otherwise.
    """
    springs = np.asarray(springs, dtype=float)
    if springs.shape != (lattice.size,):
        raise ValueError(f"expected {lattice.size} springs, got shape {springs.shape}")
    if np.any(springs < 0):
        raise ValueError("spring constants must be nonnegative")
    n = lattice.size
    h = np.zeros((n, n))
    # In C order, the neighbor one step up along an axis sits that axis's
    # stride further on; every site short of the far wall has one.
    stride = 1
    for axis in reversed(range(lattice.dimension)):
        lower = np.flatnonzero(lattice.coords[:, axis] < lattice.lengths[axis] - 1)
        h[lower, lower + stride] = h[lower + stride, lower] = -1.0
        stride *= lattice.lengths[axis]
    degrees = -h.sum(axis=1)
    h[np.diag_indices(n)] = degrees + springs
    return CouplingMatrix(matrix=h, lattice=lattice)


def assemble_custom(lattice: Lattice, entries) -> CouplingMatrix:
    """Wrap a user-supplied dense symmetric matrix.

    Asymmetry beyond SYM_TOLERANCE (relative to the matrix norm) is an
    error; anything smaller is averaged away so downstream eigensolvers see
    an exactly symmetric matrix.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] != lattice.size:
        raise ValueError(f"matrix size {m.shape[0]} != lattice size {lattice.size}")
    scale = max(np.abs(m).max(), 1.0)
    asym = np.abs(m - m.T).max()
    if asym > SYM_TOLERANCE * scale:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds tolerance {SYM_TOLERANCE * scale:.3e}")
    return CouplingMatrix(matrix=0.5 * (m + m.T), lattice=lattice)


def load_matrix_csv(path, lattice: Lattice) -> CouplingMatrix:
    """Load a dense coupling matrix from a comma-separated row-major text file."""
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    return assemble_custom(lattice, m)


def is_positive_definite(eigenvalues) -> bool:
    """The positive-definiteness verdict on ascending eigenvalues: the floor is PD_TOLERANCE * ||h||."""
    return bool(eigenvalues[0] > PD_TOLERANCE * max(abs(eigenvalues[0]), abs(eigenvalues[-1])))


def norm_bound_holds(hsqrt_norm: float, bound: float) -> bool:
    """Whether ``bound`` dominates ||h^{1/2}|| = ``hsqrt_norm`` up to NORM_BOUND_SLACK: the one norm-bound rule."""
    return bool(hsqrt_norm * (1.0 - NORM_BOUND_SLACK) <= bound)


def validate_coupling(data, bound: float) -> AssumptionReport:
    """Check positive definiteness and the norm bound ||h^{1/2}|| <= bound.

    ``data`` is the ``spectral.decompose`` of h; only its ascending
    eigenvalues are read. Never raises; failures are carried in the report
    so disorder loops can count and skip bad realizations.
    """
    eigenvalues = data.eigenvalues
    hsqrt_norm = float(np.sqrt(max(eigenvalues[-1], 0.0)))
    return AssumptionReport(
        is_positive_definite=is_positive_definite(eigenvalues),
        smallest_eigenvalue=float(eigenvalues[0]),
        hsqrt_norm=hsqrt_norm,
        bound=float(bound),
        bound_satisfied=norm_bound_holds(hsqrt_norm, float(bound)),
    )


def anderson_norm_bound(dimension: int, k_max: float) -> float:
    """Almost-sure bound sqrt(4d + k_max) on ||h^{1/2}|| for the spring model."""
    return float(np.sqrt(4.0 * dimension + k_max))
