"""Finite boxes in Z^d, distinguished subregions and l1 geometry.

Sites are integer tuples. All matrix-valued quantities downstream index
sites through the lexicographic ordering fixed here; a region's blocks are
gathered from its sorted indices in that order, never reordered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Site = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Lattice:
    """A finite box in Z^d with a fixed lexicographic site ordering."""

    dimension: int
    lengths: tuple[int, ...]
    sites: tuple[Site, ...]
    _index: dict[Site, int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.sites)

    def __contains__(self, site) -> bool:
        return tuple(site) in self._index

    def index_of(self, site) -> int:
        """Row index of a site in the fixed ordering."""
        return self._index[tuple(site)]

    @cached_property
    def coords(self) -> np.ndarray:
        """Read-only (size, dimension) integer array; row i is ``sites[i]``.

        The lexicographic site order is C order over the box, so row i holds
        the multi-index that ``np.unravel_index(i, lengths)`` gives.
        """
        coords = np.indices(self.lengths).reshape(self.dimension, -1).T.copy()
        coords.flags.writeable = False
        return coords

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only (size, size) int32 matrix of pairwise l1 distances.

        Summed axis by axis in int32, so no (size, size, dimension) or int64
        intermediate is ever held.
        """
        dist = np.zeros((self.size, self.size), dtype=np.int32)
        for axis in self.coords.T.astype(np.int32):
            dist += np.abs(axis[:, None] - axis[None, :])
        dist.flags.writeable = False
        return dist


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
    sites = tuple(itertools.product(*(range(n) for n in lengths)))
    index = {site: i for i, site in enumerate(sites)}
    return Lattice(dimension=dimension, lengths=lengths, sites=sites, _index=index)


def l1_distance(a, b) -> int:
    """l1 (taxicab) distance between two sites of equal dimension."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return int(sum(abs(x - y) for x, y in zip(a, b)))


@dataclass(frozen=True, eq=False)
class Region:
    """A bipartition of a lattice into a distinguished subset and its complement.

    ``sites`` and ``complement`` both preserve the parent lattice order, so
    stacking ``indices`` before ``complement_indices`` is a permutation of
    0..size-1 that puts the region block first.
    """

    lattice: Lattice
    sites: tuple[Site, ...]
    complement: tuple[Site, ...]
    indices: np.ndarray = field(repr=False)
    complement_indices: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.sites)

    @property
    def complement_size(self) -> int:
        return len(self.complement)


def make_region(lattice: Lattice, sites) -> Region:
    """Build a Region from any iterable of sites of the lattice.

    Sites are deduplicated and sorted into the parent lattice order.
    """
    chosen = {tuple(s) for s in sites}
    if not chosen:
        raise ValueError("region must contain at least one site")
    missing = [s for s in chosen if s not in lattice]
    if missing:
        raise ValueError(f"sites not in lattice: {sorted(missing)[:4]}")
    inside = tuple(s for s in lattice.sites if s in chosen)
    outside = tuple(s for s in lattice.sites if s not in chosen)
    return Region(
        lattice=lattice,
        sites=inside,
        complement=outside,
        indices=np.array([lattice.index_of(s) for s in inside], dtype=np.intp),
        complement_indices=np.array([lattice.index_of(s) for s in outside], dtype=np.intp),
    )


def box_region(lattice: Lattice, corner, lengths) -> Region:
    """Region given as a sub-box: corner site plus per-axis lengths."""
    corner = tuple(int(c) for c in corner)
    lengths = tuple(int(n) for n in lengths)
    if len(corner) != lattice.dimension or len(lengths) != lattice.dimension:
        raise ValueError("corner/lengths arity must match the lattice dimension")
    sites = itertools.product(*(range(c, c + n) for c, n in zip(corner, lengths)))
    return make_region(lattice, sites)


def _neighbors(site: Site):
    for axis in range(len(site)):
        for step in (-1, 1):
            yield site[:axis] + (site[axis] + step,) + site[axis + 1 :]


def inner_boundary(region: Region) -> set[Site]:
    """Sites of the region with an l1-distance-1 neighbor in the complement.

    The complement is taken within the parent lattice, so sites hugging the
    outer wall of the box do not count as boundary on that side.
    """
    outside = set(region.complement)
    return {
        site
        for site in region.sites
        if any(nb in outside for nb in _neighbors(site))
    }

