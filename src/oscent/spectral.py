"""Eigensystems, SPD square roots, bipartition blocks and symplectic spectra.

Everything here is dense linear algebra: eigendecomposition of the coupling
matrix (from its two diagonals alone when it is tridiagonal, as on a chain),
functions of it (square root, inverse square root), the block decomposition
of the square root induced by a region, the Schur complement of the
complement block, and the symplectic eigenvalues mu_j >= 1 that carry all
the ground-state entanglement information. The symplectic eigenvalues need
only the region blocks of h^{1/2} and h^{-1/2}, which the region rows of the
eigenvectors give without either n x n root (``region_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .hamiltonian import CouplingMatrix, is_positive_definite
from .lapack import potrf, potrs, stemr, syevr
from .lattice import Region

# mu_j^2 below 1 by more than this is a hard error; anything closer is
# rounding noise on a decoupled direction and gets clipped to exactly 1.
MU_CLIP_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigendecomposition h = V diag(frequencies^2) V^T, frequencies ascending."""

    eigenvalues: np.ndarray  # frequencies squared, ascending
    frequencies: np.ndarray
    vectors: np.ndarray  # orthogonal, one eigenvector per column, in the sign LAPACK gives it

    @property
    def size(self) -> int:
        return self.frequencies.shape[0]


@dataclass(frozen=True, eq=False)
class BipartitionBlocks:
    """Blocks of the SPD square root, each gathered in lattice order.

    ``a`` is the region block, ``c`` the off-diagonal coupling, ``b_inv_ct``
    = b^{-1} c^T for the complement block b, and ``schur`` = a - c b^{-1} c^T.
    """

    a: np.ndarray
    c: np.ndarray
    b_inv_ct: np.ndarray
    schur: np.ndarray
    region: Region
    _schur_factor: np.ndarray = field(repr=False)  # upper Cholesky factor, from ``potrf``

    def solve_schur(self, rhs: np.ndarray) -> np.ndarray:
        return potrs(self._schur_factor, rhs)


@dataclass(frozen=True, eq=False)
class RegionBlocks:
    """The region blocks ``a`` = (h^{1/2})_RR and ``x`` = (h^{-1/2})_RR.

    ``x`` is the inverse of the Schur complement a - c b^{-1} c^T (block
    inversion of h^{1/2} h^{-1/2} = 1), so it stands in for the Schur solve
    and no complement block is formed.
    """

    a: np.ndarray
    x: np.ndarray

    def solve_schur(self, rhs: np.ndarray) -> np.ndarray:
        return self.x @ rhs


@dataclass(frozen=True, eq=False)
class SymplecticSpectrum:
    """Symplectic eigenvalues of the reduced ground state and the mode frame.

    ``mu`` is ascending with every entry >= 1, ``f2`` the orthogonal
    diagonalizer of a^{1/2} schur^{-1} a^{1/2} (columns in LAPACK's sign),
    and ``a_inv_sqrt`` the inverse square root of the region block (kept
    because excitation profiles need it).
    """

    mu: np.ndarray
    f2: np.ndarray
    a_inv_sqrt: np.ndarray

    @property
    def size(self) -> int:
        return self.mu.shape[0]


def _symmetrized(x: np.ndarray, order: str = "C") -> np.ndarray:
    """0.5 * (x + x.T), bit for bit, as a new array in memory ``order``: the one symmetrization."""
    symmetric = np.add(x, x.T, out=np.empty(x.shape, order=order))
    symmetric *= 0.5
    return symmetric


def _symmetric_eigh(m: np.ndarray):
    """The bits of ``scipy.linalg.eigh(0.5 * (m + m.T))`` on the bound LAPACK, without holding the GIL; ``m`` is only read.

    For n > 1, LAPACK's dsyevr reduces the matrix to tridiagonal form, runs
    the MRRR solver dstemr and back-transforms. On a tridiagonal matrix
    every Householder tau is 0, so the reduction and the back-transform
    change nothing and dstemr on the two diagonals returns the same bits.
    If dstemr fails, the dense call runs dsyevr's own fallback. ``m`` is
    tridiagonal when its nonzeros (NaN counts as one) all lie on the
    diagonal and the two off-diagonals.
    """
    d, lower, upper = np.diag(m), np.diag(m, -1), np.diag(m, 1)
    band = np.count_nonzero(d) + np.count_nonzero(lower) + np.count_nonzero(upper)
    if m.shape[0] > 1 and np.count_nonzero(m) == band:
        try:
            # the diagonals of 0.5 * (m + m.T), by the same operations in the same order
            return stemr((d + d) * 0.5, (lower + upper) * 0.5)
        except np.linalg.LinAlgError:
            pass
    # formed in the Fortran-ordered array dsyevr works in
    return syevr(_symmetrized(m, order="F"), overwrite_a=True)


def decompose(h) -> SpectralData:
    """Eigendecomposition of the symmetric part of ``h``, unchecked: eigenvalues < 0 get nan frequencies."""
    m = h.matrix if isinstance(h, CouplingMatrix) else np.asarray(h, dtype=float)
    eigenvalues, vectors = _symmetric_eigh(m)
    with np.errstate(invalid="ignore"):
        return SpectralData(eigenvalues, np.sqrt(eigenvalues), vectors)


def eigensystem(h) -> SpectralData:
    """``decompose(h)``, or a given decomposition, checked: raises unless positive definite."""
    data = h if isinstance(h, SpectralData) else decompose(h)
    if not is_positive_definite(data.eigenvalues):
        raise np.linalg.LinAlgError(
            f"matrix is not positive definite: smallest eigenvalue {data.eigenvalues[0]:.3e}"
        )
    return data


def spd_sqrt(h) -> np.ndarray:
    """Symmetric square root of an SPD matrix via its eigendecomposition."""
    data = h if isinstance(h, SpectralData) else eigensystem(h)
    return _symmetrized((data.vectors * data.frequencies) @ data.vectors.T)


def spd_inv_sqrt(h) -> np.ndarray:
    """Symmetric inverse square root of an SPD matrix."""
    data = h if isinstance(h, SpectralData) else eigensystem(h)
    return _symmetrized((data.vectors / data.frequencies) @ data.vectors.T)


def region_blocks(data: SpectralData, region: Region) -> RegionBlocks:
    """(h^{1/2})_RR and (h^{-1/2})_RR from the region rows of the eigenvectors, in O(n |R|^2).

    Each is the region block of spd_sqrt or spd_inv_sqrt, symmetrized the
    same way, without the n x n root.
    """
    if data.size != region.lattice.size:
        raise ValueError(f"eigensystem size {data.size} does not match lattice size {region.lattice.size}")
    rows = data.vectors[region.indices]
    return RegionBlocks(
        a=_symmetrized((rows * data.frequencies) @ rows.T),
        x=_symmetrized((rows / data.frequencies) @ rows.T),
    )


def partition_blocks(hsqrt: np.ndarray, region: Region) -> BipartitionBlocks:
    """Extract the region/complement blocks of the square root and the Schur complement.

    The Schur complement is computed through a Cholesky solve of the
    complement block, never an explicit inverse.
    """
    hsqrt = np.asarray(hsqrt, dtype=float)
    n = region.lattice.size
    if hsqrt.shape != (n, n):
        raise ValueError(f"matrix shape {hsqrt.shape} does not match lattice size {n}")
    if region.complement_size == 0:
        raise ValueError("region equals the whole lattice; the complement block is empty")
    ri, ci = region.indices, region.complement_indices
    a = hsqrt[np.ix_(ri, ri)]
    b = hsqrt.T[np.ix_(ci, ci)].T  # gathered transposed: Fortran-ordered, so dpotrf factors it in place
    c = hsqrt[np.ix_(ri, ci)]
    try:
        b_factor = lapack.potrf(b, overwrite_a=True)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"complement block is not positive definite: {err}")
    b_inv_ct = potrs(b_factor, c.T)
    schur = _symmetrized(a - c @ b_inv_ct)
    try:
        schur_factor = potrf(schur)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"Schur complement is not positive definite: {err}")
    return BipartitionBlocks(
        a=a, c=c, b_inv_ct=b_inv_ct, schur=schur, region=region, _schur_factor=schur_factor
    )


def symplectic_spectrum(blocks: BipartitionBlocks | RegionBlocks) -> SymplecticSpectrum:
    """Symplectic eigenvalues mu_j and the mode frame of the reduced ground state.

    mu_j^2 are the eigenvalues of a^{1/2} schur^{-1} a^{1/2}, with
    schur^{-1} applied by the Cholesky solve of partition_blocks or as the
    ``x`` of region_blocks, which is schur^{-1} itself; values dipping
    below 1 by at most MU_CLIP_TOLERANCE are clipped to exactly 1 (decoupled
    directions), anything lower raises.
    """
    a_data = eigensystem(blocks.a)
    a_sqrt = spd_sqrt(a_data)
    a_inv_sqrt = spd_inv_sqrt(a_data)
    mu_sq, f2 = syevr(_symmetrized(a_sqrt @ blocks.solve_schur(a_sqrt)))
    if mu_sq[0] < 1.0 - MU_CLIP_TOLERANCE:
        raise np.linalg.LinAlgError(
            f"symplectic eigenvalue below 1: mu^2 = {mu_sq[0]:.15f}"
        )
    mu_sq = np.maximum(mu_sq, 1.0)
    return SymplecticSpectrum(mu=np.sqrt(mu_sq), f2=f2, a_inv_sqrt=a_inv_sqrt)

