"""Bounded uniform domains and their quadrature grids.

The domain catalog is closed: open boxes (an interval is the 1-d box),
open disks, and simple polygons (all connected, all bounded).  Each shape
answers, as its own methods, strict membership, exact boundary distance,
diameter, measure, bounding box, and an enclosing radius R such that the
domain fits inside B(0, R/2).  Grids are midpoint-rule point clouds
with nonnegative cell weights.

`_ball_pairs` is the one neighbour list of the package: the closed balls
|x - y| <= radius around chosen points, from one `cKDTree` pair search
per block of whole rows under a pair budget, or, where every ball holds
every point (`_holds_every_point`), from the coordinates without a
tree.  The energy pass on point clouds and the Orlicz-slice norm take
their pairs from it, the latter on point clouds and for a Phi other
than a power.  `_sq_distances` sums squared distances axis by axis as
the tree sums them, for that tree-free list and for the distance
blocks of Morrey and Herz.

`_LatticeBox` is its lattice twin, a lattice grid in a padded box with
the one B log2 B cost rule for FFTs, for four users: the energy pass's
offset pass and p = 2 far field, Morrey's ball ladder, and the offset
pass of `_lattice_balls`, the same closed balls as the neighbour list's
on a lattice grid, which power-Phi Orlicz-slice sums.  That is one route
per grid: only a ball over the whole grid keeps the tree-free list.
`_lattice_cells` takes a lattice's extent once, and `_ball_offsets`
lists the integer offsets within a radius in lexicographic order, for
the energy pass and the lattice balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import fft as sp_fft
from scipy.spatial import cKDTree

__all__ = [
    "Interval",
    "Box",
    "Disk",
    "Polygon",
    "Domain",
    "QuadratureGrid",
    "sample_quadrature",
    "SCHEMES",
]

_EDGE_TOL = 1e-12
# pair entries one block of a neighbour list (or of the energy pass's offset
# pass) holds at once: bounds its memory, and blocks that stay in cache run
# about twice as fast as larger ones
_PAIR_BUDGET = 1 << 20
# relative margin within which a lattice distance |o| h is taken to be at
# a ball's radius rho up to round-off ((0.3 / 0.1)^2 rounds to
# 8.999999999999998): far above round-off, far below the gap 1/|o|^2
# between integer squared norms.  Morrey's ladder gives its bound
# k_rho = floor((rho/h)^2) this reading; the offset pass of
# `_lattice_balls` decides the offsets within it pair by pair
_BALL_MARGIN = 1e-9
# FFT sums are kept only where their error bound, eps log2(B) times a sum
# of terms, lies below _FFT_GUARD times the sum they must resolve
_FFT_GUARD = 1e-13


def _finite(value, name: str) -> float:
    """`value` as a finite float; a ValueError naming `name` otherwise."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


class Domain:
    """A bounded open domain of dimension `dimension`.

    Each shape implements `contains_many` and `boundary_distance_many` on
    an (N, n) array of points, plus `enclosing_radius`, `diameter`,
    `measure` and `bounding_box`; the scalar queries here are shared.
    """

    def _check_dim(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dimension:
            raise ValueError(
                f"point of dimension {x.shape[-1]} on a "
                f"{self.dimension}-d domain"
            )
        return x

    def contains(self, x) -> bool:
        """Strict membership test (boundary points count as outside)."""
        x = self._check_dim(x)
        return bool(self.contains_many(x.reshape(1, -1))[0])

    def boundary_distance(self, x) -> float:
        """Distance from an interior point to the boundary of the domain."""
        x = self._check_dim(x)
        if not self.contains(x):
            raise ValueError(f"point {x.tolist()} is not inside the domain")
        return float(self.boundary_distance_many(x.reshape(1, -1))[0])


@dataclass(frozen=True)
class Box(Domain):
    """Open axis-aligned box prod_i (lo_i, hi_i), dimension 1..3."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(_finite(v, "lo")
                                             for v in self.lo))
        object.__setattr__(self, "hi", tuple(_finite(v, "hi")
                                             for v in self.hi))
        if len(self.lo) != len(self.hi) or not 1 <= len(self.lo) <= 3:
            raise ValueError("box needs matching lo/hi of dimension 1..3")
        if not all(l < h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box requires lo < hi componentwise")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized strict membership for an (N, n) array of points."""
        pts = np.asarray(pts, dtype=float)
        return np.all((pts > np.asarray(self.lo)) & (pts < np.asarray(self.hi)),
                      axis=1)

    def boundary_distance_many(self, pts: np.ndarray) -> np.ndarray:
        return np.minimum(pts - np.asarray(self.lo),
                          np.asarray(self.hi) - pts).min(axis=1)

    def enclosing_radius(self) -> float:
        """Smallest R such that the domain sits inside the ball B(0, R/2)."""
        corners = np.array(
            np.meshgrid(*zip(self.lo, self.hi), indexing="ij")
        ).reshape(self.dimension, -1).T
        return 2.0 * float(np.linalg.norm(corners, axis=1).max())

    def diameter(self) -> float:
        return float(np.linalg.norm(np.asarray(self.hi) - np.asarray(self.lo)))

    def measure(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    def bounding_box(self):
        """Axis-aligned closed bounding box as (lo, hi) arrays."""
        return np.asarray(self.lo, float), np.asarray(self.hi, float)


class Interval(Box):
    """Open interval (a, b) on the line: the 1-d box."""

    def __init__(self, a: float, b: float):
        a, b = _finite(a, "a"), _finite(b, "b")
        if not a < b:
            raise ValueError("interval requires a < b")
        super().__init__((a,), (b,))

    @property
    def a(self) -> float:
        return self.lo[0]

    @property
    def b(self) -> float:
        return self.hi[0]


@dataclass(frozen=True)
class Disk(Domain):
    """Open disk in the plane."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(_finite(v, "center")
                                                 for v in self.center))
        if len(self.center) != 2:
            raise ValueError("disk needs a 2-d center")
        radius = _finite(self.radius, "radius")
        if not radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius!r}")
        object.__setattr__(self, "radius", radius)

    @property
    def dimension(self) -> int:
        return 2

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        d = np.asarray(pts, dtype=float) - np.asarray(self.center)
        return np.einsum("ij,ij->i", d, d) < self.radius**2

    def boundary_distance_many(self, pts: np.ndarray) -> np.ndarray:
        d = pts - np.asarray(self.center)
        return self.radius - np.sqrt(np.einsum("ij,ij->i", d, d))

    def enclosing_radius(self) -> float:
        return 2.0 * (float(np.linalg.norm(self.center)) + self.radius)

    def diameter(self) -> float:
        return 2.0 * self.radius

    def measure(self) -> float:
        return math.pi * self.radius**2

    def bounding_box(self):
        c = np.asarray(self.center, float)
        return c - self.radius, c + self.radius


@dataclass(frozen=True)
class Polygon(Domain):
    """Open simple polygon; vertices stored counter-clockwise."""

    vertices: tuple

    def __post_init__(self):
        verts = []
        for vertex in self.vertices:
            try:
                x, y = vertex
            except (TypeError, ValueError):
                raise ValueError(f"vertices must be pairs of numbers, "
                                 f"got {vertex!r}") from None
            verts.append((_finite(x, "vertices"), _finite(y, "vertices")))
        if len(verts) < 3:
            raise ValueError(f"vertices must be at least 3 pairs, "
                             f"got {len(verts)}")
        # a repeated vertex (a closing copy of the first, say) is no corner
        # and would make a zero-length edge
        verts = [v for k, v in enumerate(verts)
                 if v != verts[(k + 1) % len(verts)]]
        area = _shoelace(verts)
        if area == 0:
            raise ValueError("vertices must be the corners of a nonzero area")
        if _edges_cross(verts):
            raise ValueError("vertices must be the corners of a simple "
                             "polygon (two edges cross)")
        object.__setattr__(self, "vertices",
                           tuple(verts if area > 0 else verts[::-1]))

    @property
    def dimension(self) -> int:
        return 2

    def _edges(self):
        v = np.asarray(self.vertices, dtype=float)
        return v, np.roll(v, -1, axis=0)

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        a, b = self._edges()
        # points within _EDGE_TOL of an edge are treated as outside (open set)
        near_edge = _segment_distance(pts, a, b).min(axis=1) <= _EDGE_TOL
        # even-odd ray crossing, ray going in +x
        x, y = pts[:, 0][:, None], pts[:, 1][:, None]
        ya, yb = a[:, 1][None, :], b[:, 1][None, :]
        xa, xb = a[:, 0][None, :], b[:, 0][None, :]
        straddle = (ya <= y) != (yb <= y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = xa + (y - ya) * (xb - xa) / (yb - ya)
        hits = straddle & (xcross > x)
        inside = np.sum(hits, axis=1) % 2 == 1
        return inside & ~near_edge

    def boundary_distance_many(self, pts: np.ndarray) -> np.ndarray:
        return _segment_distance(pts, *self._edges()).min(axis=1)

    def enclosing_radius(self) -> float:
        v = np.asarray(self.vertices)
        return 2.0 * float(np.linalg.norm(v, axis=1).max())

    def diameter(self) -> float:
        v = np.asarray(self.vertices)
        d = v[:, None, :] - v[None, :, :]
        return float(np.sqrt(np.einsum("ijk,ijk->ij", d, d)).max())

    def measure(self) -> float:
        return abs(_shoelace(self.vertices))

    def bounding_box(self):
        v = np.asarray(self.vertices, float)
        return v.min(axis=0), v.max(axis=0)


def _shoelace(verts) -> float:
    v = np.asarray(verts, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _edges_cross(verts) -> bool:
    """True if two non-adjacent edges of the closed polygon share a point:
    each edge's ends lie on both sides of (or on) the other edge's line,
    and their bounding boxes meet (which decides collinear edges)."""
    a = np.asarray(verts, dtype=float)
    b = np.roll(a, -1, axis=0)
    m = len(a)
    i, j = np.triu_indices(m, k=2)
    keep = (i > 0) | (j < m - 1)  # edges 0 and m - 1 meet at vertex 0
    i, j = i[keep], j[keep]

    def side(p, q, r):
        u, v = q - p, r - p
        return np.sign(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

    straddle = (side(a[i], b[i], a[j]) * side(a[i], b[i], b[j]) <= 0) \
        & (side(a[j], b[j], a[i]) * side(a[j], b[j], b[i]) <= 0)
    boxes_meet = np.all(
        (np.minimum(a[i], b[i]) <= np.maximum(a[j], b[j]))
        & (np.minimum(a[j], b[j]) <= np.maximum(a[i], b[i])), axis=1)
    return bool(np.any(straddle & boxes_meet))


def _segment_distance(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # distance from each point to each segment [a_k, b_k]; (N, K)
    ab = b - a  # (K, 2)
    ap = pts[:, None, :] - a[None, :, :]  # (N, K, 2)
    denom = np.einsum("kj,kj->k", ab, ab)
    t = np.clip(np.einsum("nkj,kj->nk", ap, ab) / denom, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = pts[:, None, :] - proj
    return np.sqrt(np.einsum("nkj,nkj->nk", d, d))


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Point cloud with cell weights over a domain.

    Attributes
    ----------
    points : (N, n) array of interior points
    weights : (N,) array of nonnegative cell measures
    h : characteristic spacing of the underlying lattice
    axes : per-axis (coords, weights) tuples for tensor grids, else None;
        mixed-norm engines require this structure
    domain : the domain the grid discretizes, when known
    lattice : (N, n) integer index of each point on the lattice of spacing
        h, for grids whose every point is the midpoint of a full h^n cell
        of that lattice, else None; the energy pass sums over its integer
        offsets
    """

    points: np.ndarray
    weights: np.ndarray
    h: float
    axes: Optional[tuple] = None
    domain: Optional["Domain"] = None
    lattice: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights must have equal length")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if self.lattice is not None:
            idx = np.asarray(self.lattice, dtype=np.int64)
            if idx.shape != pts.shape:
                raise ValueError("lattice indices must match the points")
            idx.setflags(write=False)
            object.__setattr__(self, "lattice", idx)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def _axis_cells(lo: float, hi: float, h: float):
    """Midpoints and widths of cells of size h laid from lo; the last cell
    is clipped at hi so the widths sum to hi - lo exactly."""
    m = int(math.ceil((hi - lo) / h - 1e-12))
    edges = lo + h * np.arange(m + 1)
    edges[-1] = hi
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return mids, widths


# a last cell narrower than h by more than this share is clipped
_FULL_CELL_TOL = 1e-9


def _lattice_indices(counts) -> np.ndarray:
    """(prod counts, n) integer indices of a full lattice, raveled in C
    order like the meshgrids of `sample_quadrature`."""
    mesh = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


# the quadrature schemes `sample_quadrature` builds
SCHEMES = ("tensor-midpoint", "quasi-random")

# the Halton bases, one prime per dimension
_PRIMES = (2, 3, 5, 7)


def _halton(dimension: int, count: int) -> np.ndarray:
    """The first `count` points of the unscrambled Halton sequence in
    [0, 1)^dimension, from index 0 (Halton, Numer. Math. 2, 1960):
    coordinate k of point i is the radical inverse of i in the k-th prime,
    its base-b digits mirrored about the radix point.  The digits are
    summed from the lowest up, as `scipy.stats.qmc.Halton(scramble=False)`
    sums them, so the points agree with it bit for bit."""
    sample = np.empty((count, dimension))
    # 32-bit indices divide about twice as fast as 64-bit ones
    index = np.int32 if count <= np.iinfo(np.int32).max else np.int64
    for k, base in enumerate(_PRIMES[:dimension]):
        row = np.zeros(count)
        q = np.arange(count, dtype=index)
        b2r = 1.0 / base
        while q[-1] > 0:  # the last index has the most digits
            q, rem = np.divmod(q, base)
            row += rem * b2r
            b2r /= base
        sample[:, k] = row
    return sample


def _point_count(cells: float, h: float) -> int:
    """`cells` rounded to a point count; a ValueError naming h when it is
    not finite or an array could not index that many points."""
    if not cells < np.iinfo(np.intp).max:
        raise ValueError(f"h = {h!r} is too small: the grid would need "
                         f"{cells:.3g} points")
    return int(round(cells))


def sample_quadrature(domain: Domain, h: float,
                      scheme: str = "tensor-midpoint") -> QuadratureGrid:
    """Build a quadrature grid whose weight sum converges to |domain|.

    tensor-midpoint: per-axis midpoint cells; boxes/intervals clip the last
    cell so the weight sum is exact, disks/polygons keep full h^n cells
    whose centers pass the membership test (first-order boundary error).
    These grids carry the integer `lattice` index of each point, except
    boxes with a clipped cell, whose last midpoints leave the lattice.
    quasi-random: the first N = round(|box| / h^n) points (at least 8) of
    the unscrambled Halton sequence from index 0, whose coordinate k is the
    radical inverse of the point's index in the k-th prime, mapped onto
    the bounding box; constant weight |box|/N, points outside the domain
    discarded.

    Either scheme counts its points before it allocates any, and raises a
    ValueError naming h when the count is not finite or exceeds np.intp.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be a finite number > 0, got {h!r}")
    if h > domain.diameter():
        raise ValueError("h exceeds the domain diameter")
    lo, hi = domain.bounding_box()
    n = domain.dimension
    if scheme == "tensor-midpoint":
        _point_count(math.prod(float(e) / h for e in hi - lo), h)
        if isinstance(domain, Box):
            axes = tuple(_axis_cells(lo[i], hi[i], h) for i in range(n))
            mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            wmesh = np.meshgrid(*[a[1] for a in axes], indexing="ij")
            w = np.ones(pts.shape[0])
            for wm in wmesh:
                w = w * wm.ravel()
            full = all(abs(a[1][-1] - h) <= _FULL_CELL_TOL * h for a in axes)
            lattice = _lattice_indices([len(a[0]) for a in axes]) \
                if full else None
            return QuadratureGrid(pts, w, h, axes=axes, domain=domain,
                                  lattice=lattice)
        counts = [int(math.ceil((hi[i] - lo[i]) / h)) for i in range(n)]
        lattice = _lattice_indices(counts)
        pts = lo + h * (lattice + 0.5)
        keep = domain.contains_many(pts)
        pts, lattice = pts[keep], lattice[keep]
        if len(pts) == 0:
            raise ValueError("no cell centers fall inside the domain; "
                             "decrease h")
        return QuadratureGrid(pts, np.full(pts.shape[0], h**n), h,
                              domain=domain, lattice=lattice)
    if scheme == "quasi-random":
        box_vol = float(np.prod(hi - lo))
        cell = h**n
        total = max(8, _point_count(box_vol / cell if cell else math.inf, h))
        raw = lo + _halton(n, total) * (hi - lo)
        keep = domain.contains_many(raw)
        pts = raw[keep]
        if len(pts) == 0:
            raise ValueError("no sample points fall inside the domain; "
                             "decrease h")
        return QuadratureGrid(pts, np.full(pts.shape[0], box_vol / total), h,
                              domain=domain)
    raise ValueError(f"unknown scheme {scheme!r}")


def _column_extents(a: np.ndarray):
    """(lo, hi): the minimum and the maximum of each column of the (N, n)
    array `a`, the values of a.min(axis=0) and a.max(axis=0).  Each column
    is reduced on its own: numpy's axis-0 reduction of a C-ordered array
    runs its inner loop over the n columns, about 10 times slower for
    n <= 3 and thousands of rows."""
    columns = a.T
    return (np.array([c.min() for c in columns], dtype=a.dtype),
            np.array([c.max() for c in columns], dtype=a.dtype))


def _holds_every_point(pts: np.ndarray, radius: float) -> bool:
    """Whether every closed ball of `radius` around a point of `pts` holds
    every point: radius^2 reaches the squared diagonal of the points'
    bounding box."""
    lo, hi = _column_extents(pts)
    span = hi - lo
    return bool(radius * radius >= np.sum(span * span))


def _sq_distances(centers: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The (M, N) squared distances from each of the M `centers` to each
    of the N `pts`, summed axis by axis as `cKDTree` sums them, so that
    pairs at a ball's radius fall as in the tree.  Integer coordinates
    (lattice indices) give exact distances."""
    sq = np.zeros((len(centers), len(pts)))
    for j in range(pts.shape[1]):
        sq += (centers[:, j, None] - pts[None, :, j]) ** 2
    return sq


def _ball_pairs(pts: np.ndarray, sel: np.ndarray, radius: float):
    """The closed balls |x - y| <= radius around the points pts[sel], in
    blocks of whole rows holding at most _PAIR_BUDGET pairs (a row with
    more is a block of its own).  Yields (block, rows, cols, dist): `block`
    slices `sel`, and pair k joins row rows[k] of the block to the point
    cols[k] at distance dist[k].  Pairs are ordered by row then column, so
    that each row sums its pairs in the same order whatever block it falls
    in.  Squared distances are summed axis by axis, as `cKDTree` sums
    them.  Where every ball holds every point (`_holds_every_point`), the
    blocks are made from the coordinates without a tree."""
    everything = _holds_every_point(pts, radius)
    if everything:
        counts = np.full(len(sel), len(pts))
    else:
        tree = cKDTree(pts)
        counts = tree.query_ball_point(pts[sel], radius, return_length=True)
    ends = np.cumsum(counts)
    start = 0
    while start < len(sel):
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(
            ends, before + _PAIR_BUDGET, side="right")))
        centers = pts[sel[start:stop]]
        if everything:
            sq = _sq_distances(centers, pts)
            rows, cols = np.divmod(np.arange(sq.size), len(pts))
            dist = np.sqrt(sq.ravel())
        else:
            found = cKDTree(centers).sparse_distance_matrix(
                tree, radius, output_type="ndarray")
            # gathered field by field: indexing the structured records
            # themselves is several times slower
            order = np.argsort(found["i"] * len(pts) + found["j"])
            rows, cols, dist = (found[key][order] for key in "ijv")
        yield slice(start, stop), rows, cols, dist
        start = stop


def _lattice_cells(lattice: np.ndarray):
    """(cells, extent) of the integer `lattice` indices: the indices less
    their minimum, and per axis the extent E of those, max + 1."""
    lo, hi = _column_extents(lattice)
    return lattice - lo, hi - lo + 1


def _ball_offsets(extent: np.ndarray, bound: float):
    """(offsets, sq): the integer offsets o with |o|^2 <= `bound` that join
    two cells of a lattice of `extent` E, |o_j| < E_j, in lexicographic
    order, and their squared norms |o|^2."""
    spans = extent - 1
    if math.isfinite(bound):
        spans = np.minimum(spans, math.isqrt(int(bound)))
    offsets = np.indices(tuple(2 * spans + 1)).reshape(len(spans), -1).T \
        - spans
    sq = np.einsum("ij,ij->i", offsets, offsets)
    if np.sum(spans * spans) <= bound:
        # the ball holds the whole cube
        return offsets, sq
    inside = sq <= bound
    return offsets[inside], sq[inside]


def _lattice_balls(grid: QuadratureGrid, radius: float):
    """The closed balls |x - y| <= radius of a lattice grid, the pairs of
    `_ball_pairs`, as one offset pass in a `_LatticeBox`: (box, moves),
    or None where every ball holds every point (`_holds_every_point`),
    whose sums `_ball_pairs` makes without a tree.

    Each move (start, stop, shift, keep), one per offset in lexicographic
    order, pairs the box cells x in [start, stop) with the cell at x +
    shift, where the mask `keep` over them holds (everywhere for None);
    an offset that pairs no cell has no move.
    An offset is decided by its integer norm, inside iff |o|^2 <
    (radius/h)^2, unless |o| h lies within a margin of the radius:
    _BALL_MARGIN relative, widened by the round-off of the coordinates.
    Such a tie is decided pair by pair as `_ball_pairs` decides it,
    sum_j (x_j - y_j)^2 <= radius^2 summed axis by axis.  Only the cells'
    own span of the box is visited."""
    if _holds_every_point(grid.points, radius):
        return None
    cells, extent = _lattice_cells(grid.lattice)
    ratio = radius / grid.h
    margin = _BALL_MARGIN + 8.0 * np.finfo(float).eps \
        * np.abs(grid.points).max() / radius
    offsets, sq = _ball_offsets(extent, (ratio * (1.0 + margin)) ** 2)
    lo, hi = _column_extents(offsets)
    box = _LatticeBox(cells, extent, np.maximum(-lo, hi))
    shifts = box.shifts(offsets)
    low, high = int(box.at.min()), int(box.at.max()) + 1
    starts = np.maximum(low, -shifts)
    stops = np.minimum(high, box.size - shifts)
    tie = sq >= (ratio * (1.0 - margin)) ** 2
    coords = box.place(grid.points.T) if tie.any() else None
    moves = []
    for start, stop, shift, at_tie in zip(starts.tolist(), stops.tolist(),
                                          shifts.tolist(), tie.tolist()):
        if start >= stop:
            continue
        keep = None
        if at_tie:
            sq_dist = np.zeros(stop - start)
            for axis in coords:
                sq_dist += (axis[start:stop]
                            - axis[start + shift:stop + shift]) ** 2
            keep = sq_dist <= radius * radius
        moves.append((start, stop, shift, keep))
    return box, moves


class _LatticeBox:
    """A lattice grid in a box of zeros, per axis its extent E plus
    `reach` rounded up to a fast FFT length, from the (cells, extent) of
    `_lattice_cells`: `at` are the cells' flat positions, and `eps_log`
    eps log2(B) for B cells.  One-sided padding serves both uses: a flat
    shift within the reach takes a neighbour off the lattice into the
    padding of its last axis out of range, and no correlation within it
    wraps onto a cell."""

    def __init__(self, cells: np.ndarray, extent: np.ndarray, reach):
        self.cells = cells
        self.extent = extent
        self.reach = reach
        self.shape = tuple(sp_fft.next_fast_len(int(e + r), real=True)
                           for e, r in zip(self.extent, reach))
        self.size = math.prod(self.shape)
        self.at = np.ravel_multi_index(tuple(self.cells.T), self.shape)
        self.axes = tuple(range(-len(self.shape), 0))
        self.eps_log = np.finfo(float).eps * math.log2(self.size)

    def worth(self, entries: int, transforms: int, cost: float) -> bool:
        """Whether `entries` exceed `cost` x `transforms` x B log2 B."""
        return entries > cost * transforms * self.size * math.log2(self.size)

    def place(self, rows: np.ndarray, at=None) -> np.ndarray:
        """The flat box of 0s with the (..., M) `rows` at `at` or the cells."""
        out = np.zeros(rows.shape[:-1] + (self.size,))
        out[..., self.at if at is None else at] = rows
        return out

    def shifts(self, offsets: np.ndarray) -> np.ndarray:
        """The signed flat shift of each integer offset, unwrapped."""
        return offsets @ np.cumprod((self.shape[1:] + (1,))[::-1])[::-1]

    def spectra(self, rows: np.ndarray, at=None) -> np.ndarray:
        """The spectra of the (..., M) `rows` placed as by `place`."""
        return sp_fft.rfftn(self.place(rows, at).reshape(
            rows.shape[:-1] + self.shape), axes=self.axes)

    def stencils(self, offsets: np.ndarray, weights: np.ndarray):
        """The spectra of the (..., O) `weights` on the offsets, each axis
        wrapped: a row's spectrum times one sums the row at x - o, and
        times its conjugate at x + o."""
        return self.spectra(weights, np.ravel_multi_index(
            tuple(offsets.T), self.shape, mode="wrap"))

    def ball_spectra(self, bounds: np.ndarray) -> np.ndarray:
        """The spectra of the integer balls |o|^2 <= bound within the reach,
        one per bound, from the squared offsets of each axis wrapped."""
        axis_sq = []
        for length, r in zip(self.shape, self.reach):
            o = np.minimum(np.arange(length), np.arange(length, 0, -1))
            axis_sq.append(np.where(o <= r, o * o, np.inf))
        sq = sum(np.ix_(*axis_sq))
        bounds = bounds.reshape((-1,) + (1,) * len(self.shape))
        return sp_fft.rfftn((sq <= bounds).astype(float), axes=self.axes)

    def at_cells(self, spectra: np.ndarray) -> np.ndarray:
        """The (..., N) inverse transforms of `spectra` at the cells."""
        out = sp_fft.irfftn(spectra, s=self.shape, axes=self.axes)
        return out.reshape(out.shape[:-len(self.shape)] + (-1,))[..., self.at]
