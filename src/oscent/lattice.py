"""Finite boxes in Z^d, distinguished subregions and l1 geometry.

A lattice is its side lengths, and site i is the C-order multi-index
``np.unravel_index(i, lengths)``; every matrix downstream indexes sites in
that order. A region is its ascending index array, from which its blocks
are gathered, never reordered. Site tuples are views derived on demand.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Site = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Lattice:
    """A finite box in Z^d with a fixed lexicographic (C-order) site ordering."""

    lengths: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.lengths)

    @property
    def size(self) -> int:
        return math.prod(self.lengths)

    @property
    def sites(self) -> tuple[Site, ...]:  # built from ``coords`` on each call
        return tuple(map(tuple, self.coords.tolist()))

    def __contains__(self, site) -> bool:
        site = tuple(site)
        return len(site) == self.dimension and all(_on_axis(c, n) for c, n in zip(site, self.lengths))

    def index_of(self, site) -> int:
        """Row index of a site in the fixed ordering; KeyError outside the box."""
        if site not in self:
            raise KeyError(tuple(site))
        return int(np.ravel_multi_index(tuple(int(c) for c in site), self.lengths))

    @cached_property
    def coords(self) -> np.ndarray:
        """Read-only (size, dimension) integer array; row i is site i, ``np.unravel_index(i, lengths)``."""
        coords = np.indices(self.lengths).reshape(self.dimension, -1).T.copy()
        coords.flags.writeable = False
        return coords

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only (size, size) int32 matrix of pairwise l1 distances, summed axis by axis in int32."""
        dist = np.zeros((self.size, self.size), dtype=np.int32)
        for axis in self.coords.T.astype(np.int32):
            dist += np.abs(axis[:, None] - axis[None, :])
        dist.flags.writeable = False
        return dist


def _on_axis(c, n: int) -> bool:
    """Whether coordinate ``c`` equals one of 0..n-1 by value: 1.0 does, 1.5 does not."""
    return 0 <= c < n and c == int(c) if isinstance(c, numbers.Real) else c in range(n)


def _sites_at(lattice: Lattice, indices) -> tuple[Site, ...]:
    """The sites at the given row indices, in the given order."""
    return tuple(zip(*(axis.tolist() for axis in np.unravel_index(indices, lattice.lengths))))


def build_box(dimension: int, lengths) -> Lattice:
    """Construct the box {0..L1-1} x ... x {0..Ld-1} with deterministic indexing.

    Raises ValueError for non-positive dimension, a length list of the wrong
    arity, or non-positive side lengths.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    lengths = tuple(int(n) for n in lengths)
    if len(lengths) != dimension:
        raise ValueError(f"expected {dimension} side lengths, got {len(lengths)}")
    if any(n < 1 for n in lengths):
        raise ValueError(f"side lengths must be >= 1, got {lengths}")
    return Lattice(lengths)


def l1_distance(a, b) -> int:
    """l1 (taxicab) distance between two sites of equal dimension."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return int(sum(abs(x - y) for x, y in zip(a, b)))


@dataclass(frozen=True, eq=False)
class Region:
    """A bipartition of a lattice into a distinguished subset and its complement.

    ``indices`` and ``complement_indices`` both ascend; stacked, they are a
    permutation of 0..size-1 that puts the region block first.
    """

    lattice: Lattice
    indices: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.indices.size

    @property
    def complement_size(self) -> int:
        return self.lattice.size - self.size

    @cached_property
    def complement_indices(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.lattice.size), self.indices, assume_unique=True)

    @property
    def sites(self) -> tuple[Site, ...]:
        return _sites_at(self.lattice, self.indices)

    @property
    def complement(self) -> tuple[Site, ...]:
        return _sites_at(self.lattice, self.complement_indices)


def make_region(lattice: Lattice, sites) -> Region:
    """Build a Region from any iterable of sites of the lattice, deduplicated and sorted into lattice order."""
    chosen = {tuple(s) for s in sites}
    if not chosen:
        raise ValueError("region must contain at least one site")
    missing = [s for s in chosen if s not in lattice]
    if missing:
        raise ValueError(f"sites not in lattice: {sorted(missing)[:4]}")
    coords = np.array(list(chosen), dtype=np.intp).T
    return Region(lattice=lattice, indices=np.sort(np.ravel_multi_index(tuple(coords), lattice.lengths)))


def box_region(lattice: Lattice, corner, lengths) -> Region:
    """Region given as a sub-box: corner site plus per-axis lengths."""
    corner = tuple(int(c) for c in corner)
    lengths = tuple(int(n) for n in lengths)
    if len(corner) != lattice.dimension or len(lengths) != lattice.dimension:
        raise ValueError("corner/lengths arity must match the lattice dimension")
    return make_region(lattice, itertools.product(*(range(c, c + n) for c, n in zip(corner, lengths))))


def inner_boundary(region: Region) -> set[Site]:
    """Sites of the region with an l1-distance-1 neighbor in the complement, which lies within the box: its outer wall is no boundary."""
    lattice = region.lattice
    inside = np.zeros(lattice.lengths, dtype=bool)
    inside.flat[region.indices] = True
    edge = np.zeros_like(inside)
    for axis in range(lattice.dimension):
        step = np.diff(inside, axis=axis)  # a site and its successor along the axis differ
        edge[(slice(None),) * axis + (slice(None, -1),)] |= step
        edge[(slice(None),) * axis + (slice(1, None),)] |= step
    edge &= inside
    return set(_sites_at(lattice, np.flatnonzero(edge)))
