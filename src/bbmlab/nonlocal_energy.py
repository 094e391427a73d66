"""Pointwise BBM energies and nonlocal functionals.

The integrand |f(x)-f(y)|^p / |x-y|^p * rho(|x-y|) is summed over the
field's own grid.  Every shipped kernel (bump, fractional, Gagliardo) is a
`mollifiers.PowerKernel`, a power law A r^e cut off at some radius, so two
quadrature refinements come in closed form: far cells use the radial
average of the kernel across the cell width instead of a midpoint value,
and the near field, the cells at 0 < r < NEAR_FIELD_FACTOR * h, is
re-integrated in polar coordinates with the difference quotient frozen at
its grid average.  This keeps the total quadrature error O(h) uniformly
over admissible scales.

One pass serves every kernel of a schedule, and every entry point (the
functionals, `energy_half_field` and `pointwise_energy`) runs it.  It has
two sources, chosen by the grid:

* lattice grids, whose points carry integer `lattice` indices
  (tensor-midpoint intervals and boxes whose cells are all full, disks and
  polygons).  A pair's distance is |o| h for its integer offset o, so each
  kernel is evaluated once per offset, c_k(o) = cell_average(|o| h, h) /
  (|o| h)^p, and the sum over the offsets within the reach is one
  (kernels x offsets) @ (offsets x rows) product of those weights with the
  differences D_o(x) = |f(x+o) - f(x)|^p w(x+o).  The grid sits in its
  bounding lattice with zero weight outside the domain.  An offset is near
  iff |o|^2 < NEAR_FIELD_FACTOR^2, an exact integer test;
* point clouds (quasi-random grids, boxes with a clipped last cell, grids
  read from CSV): the pairs within the reach, max(largest cut + half the
  widest cell, NEAR_FIELD_FACTOR * h), from `geometry._ball_pairs`, the
  package's k-d tree neighbour list, with distances from the coordinates
  (and without a tree where the reach spans the grid).  A pair is near iff
  r < NEAR_FIELD_FACTOR * h * (1 - _NEAR_MARGIN), so that round-off in the
  coordinates never decides the pairs at exactly two spacings.

Both sources work in blocks of at most `geometry._PAIR_BUDGET` pair
entries and leave out only pairs whose cell lies beyond every kernel's
cut, which add exactly zero.  The offset source multiplies fixed tiles of
_ROW_TILE rows, so a row's sums do not depend on how the rows are
blocked.

At p = 2 on lattice grids the far offsets may instead be summed as
correlations (the split of convolution-based nonlocal solvers; Jafarzadeh,
Wang, Larios & Bobaru, CMAME 375 (2021) 113633), in two rings: the outer
offsets, |o| >= _FFT_SPLIT cells, and the ring NEAR_FIELD_FACTOR <= |o| <
_FFT_SPLIT.  The field is centred affinely: a weighted least-squares fit
f = a + beta . x + g on the lattice indices leaves the residual g, centred
by its midrange, and d(o) = beta . o.  Each kernel's sum over a ring is then
T0 - 2 g T1 + g^2 T2 for correlations of c_k, c_k d and c_k d^2 with g^2 w,
g w and w (see `_fft_far_sums`): three forward FFTs of the lattice box
shared by all kernels and rings, and three forward and six inverse ones per
kernel and ring with weight there; a kernel without adds exactly zero.  A
linear field leaves g at round-off, so no term cancels however far the
offsets reach.  The near offsets always stay on the offset pass.  The
expansion cancels for curved fields, so a guard bounds each ring's FFT
error for kernel k by e_k = eps log2(B) times its largest term, for B FFT
cells.  A row where both rings' e_k lie within _FFT_GUARD times its sum
for every kernel keeps both FFT sums.  Any other row takes the ring on the
offset pass, with the outer FFT sums; where the outer e_k then exceeds
_FFT_GUARD times its sum for any kernel, it falls back to the offset pass
over every offset and keeps its values bit for bit.  The outer ring is
taken only when (outer offsets x rows) exceeds _FFT_COST (3 + 9K) B log2 B
for the K kernels with weight there, and the ring besides only when (ring
offsets x rows) exceeds _FFT_COST 9K B log2 B for its own K; other p and
point clouds keep the sources above.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from . import geometry
from .field import SampledField
from .geometry import QuadratureGrid
from .mollifiers import RdatiFamily, check_p, gagliardo_kernel
from .spaces import SpaceSpec, norm, unit_ball_volume

__all__ = [
    "EnergyParams",
    "pointwise_energy",
    "bbm_functional",
    "gagliardo_functional",
    "energy_half_field",
    "NEAR_FIELD_FACTOR",
]

# cells closer than NEAR_FIELD_FACTOR * h are handled analytically
NEAR_FIELD_FACTOR = 2.0
# relative margin that gives the near rule r < NEAR_FIELD_FACTOR * h its
# exact-arithmetic reading on point-cloud distances: far above their
# round-off, far below h
_NEAR_MARGIN = 1e-9
# evaluated rows per product of the offset pass; fixed, so that a row's
# sums do not depend on how the rows are blocked
_ROW_TILE = 8
# at p = 2 on lattice grids, far offsets may be summed by FFT in two rings
# split at |o|^2 = _FFT_SPLIT^2; the near ones always take the offset pass
_FFT_SPLIT = 8
# a row keeps a ring's FFT sums only where each kernel's error bound lies
# below _FFT_GUARD times the row's sum; other rows take the offset pass
_FFT_GUARD = 1e-13
# a ring is summed by FFT when (its offsets x rows) exceeds _FFT_COST times
# the B log2 B of each of its transforms, for B FFT cells.  Measured on 2
# vCPUs with one BLAS thread, over 1-d, 2-d and 3-d passes: the offset
# pass took 10.6 to 25.7 ns per entry, the FFT far field 1.1 to 3.1 ns per
# B log2 B of each transform, and their ratio ran from 0.07 to 0.15; the
# largest is kept
_FFT_COST = 0.15


@dataclass(frozen=True)
class EnergyParams:
    """Exponent, kernel family and scale for one energy evaluation."""

    p: float
    family: RdatiFamily
    nu: float

    def __post_init__(self):
        check_p(self.p)
        self.family._check_nu(self.nu)


def _tree_sums(field: SampledField, kernels, p: float,
               eval_idx: np.ndarray):
    """(far, near_num, near_mass) over a k-d tree neighbour list, for
    point clouds; see `_energy_values`."""
    grid = field.grid
    pts = grid.points
    w = grid.weights
    vals = field.values
    near_radius = NEAR_FIELD_FACTOR * grid.h * (1.0 - _NEAR_MARGIN)
    cell_width = w ** (1.0 / grid.dimension)
    # pairs beyond every kernel's cut by half a cell add exactly zero
    reach = max(max(k.cut for k in kernels) + cell_width.max() / 2.0,
                NEAR_FIELD_FACTOR * grid.h)
    by_cut = sorted(range(len(kernels)), key=lambda ki: -kernels[ki].cut)
    far_sums = np.zeros((len(kernels), len(eval_idx)))
    near_num = np.zeros(len(eval_idx))
    near_mass = np.zeros(len(eval_idx))
    for block, rows, cols, dist in geometry._ball_pairs(pts, eval_idx,
                                                        reach):
        sel = eval_idx[block]
        vals_sel = vals[sel]
        near = (dist > 0.0) & (dist < near_radius)
        near_rows, near_cols = rows[near], cols[near]
        near_w = w[near_cols]
        quot = (np.abs(vals_sel[near_rows] - vals[near_cols]) ** p
                / dist[near] ** p)
        near_mass[block] = np.bincount(near_rows, weights=near_w,
                                       minlength=len(sel))
        near_num[block] = np.bincount(near_rows, weights=quot * near_w,
                                      minlength=len(sel))
        far = dist >= near_radius
        rows, cols, dist = rows[far], cols[far], dist[far]
        width = cell_width[cols]
        # slowly varying quotient at the cell midpoint, fast kernel averaged
        quot_w = (np.abs(vals_sel[rows] - vals[cols]) ** p / dist**p) \
            * w[cols]
        del cols, near, far  # the kernel loop needs only the far arrays
        lo = dist - width / 2.0
        # largest cut first: each kernel's in-support pairs are a subset of
        # the previous one's, and dropping the rest only removes exact zeros
        for ki in by_cut:
            kernel = kernels[ki]
            inside = lo < kernel.cut
            if not inside.all():
                rows, dist, width, quot_w, lo = (
                    a[inside] for a in (rows, dist, width, quot_w, lo))
            rho_bar = kernel.cell_average(dist, width)
            far_sums[ki, block] = np.bincount(rows, weights=quot_w * rho_bar,
                                              minlength=len(sel))
    return far_sums, near_num, near_mass


def _lattice_offsets(grid: QuadratureGrid, kernels, p: float):
    """The integer offsets of the pass, near ones first, and their weights.

    Returns (offsets, n_near, coef): coef[0] holds 1 / (|o| h)^p on the
    near offsets, 0 < |o| < NEAR_FIELD_FACTOR, and coef[1 + k] the weight
    c_k(o) = cell_average_k(|o| h, h) / (|o| h)^p of kernel k on the far
    ones.  Far offsets whose cell lies beyond every cut carry only zero
    weights and are left out.
    """
    h = grid.h
    extent = grid.lattice.max(axis=0) - grid.lattice.min(axis=0)
    max_cut = max(k.cut for k in kernels)
    # no offset beyond ceil(cut / h) + 1 cells along an axis reaches a cut
    cells = math.ceil(max_cut / h) + 1 if math.isfinite(max_cut) else math.inf
    spans = [int(min(e, cells)) for e in extent]
    offsets = np.stack([m.ravel() for m in np.meshgrid(
        *[np.arange(-s, s + 1) for s in spans], indexing="ij")], axis=-1)
    sq = np.einsum("ij,ij->i", offsets, offsets)
    near = (sq > 0) & (sq < NEAR_FIELD_FACTOR ** 2)
    far = sq >= NEAR_FIELD_FACTOR ** 2
    r_near = np.sqrt(sq[near]) * h
    r_far = np.sqrt(sq[far]) * h
    c_far = np.stack([k.cell_average(r_far, h) for k in kernels]) / r_far**p
    reached = np.any(c_far > 0.0, axis=0)
    n_near, n_far = len(r_near), int(reached.sum())
    coef = np.zeros((1 + len(kernels), n_near + n_far))
    coef[0, :n_near] = r_near ** -p
    coef[1:, n_near:] = c_far[:, reached]
    return (np.concatenate([offsets[near], offsets[far][reached]]), n_near,
            coef)


def _offset_blocks(n_tiles: int, n_offsets: int, n_near: int):
    """(tiles, offsets) slices of the offset pass's blocks.  A block holds
    whole tiles and at most `geometry._PAIR_BUDGET` entries; the offsets
    are split only once one tile of all of them exceeds the budget, and the
    near offsets, which come first, always stay in the first block."""
    budget = geometry._PAIR_BUDGET
    o_step = max(n_near, budget // _ROW_TILE)
    t_step = max(1, budget // (max(1, min(n_offsets, o_step)) * _ROW_TILE))
    for t0 in range(0, n_tiles, t_step):
        for o0 in range(0, n_offsets, o_step):
            yield slice(t0, t0 + t_step), slice(o0, o0 + o_step)


def _tile_sums(vals_pad: np.ndarray, w_pad: np.ndarray, at: np.ndarray,
               shifts: np.ndarray, n_near: int, coef: np.ndarray, p: float):
    """(sums, near_mass) of the offset pass over the rows at the padded
    positions `at`: sums[j] = coef[j] @ D(row), and the near offsets'
    cell measure.  A row's sums depend only on its own values and the
    offsets, not on the other rows passed."""
    # rows in tiles of _ROW_TILE, the last one filled up with repeated rows
    n_rows = len(at)
    n_tiles = -(-n_rows // _ROW_TILE)
    rows = np.resize(at, n_tiles * _ROW_TILE).reshape(n_tiles, _ROW_TILE)
    sums = np.zeros((n_tiles, len(coef), _ROW_TILE))
    near_mass = np.zeros((n_tiles, _ROW_TILE))
    for tile_block, off_block in _offset_blocks(n_tiles, len(shifts),
                                                n_near):
        tiles = rows[tile_block]
        cols = shifts[off_block, None] + tiles[:, None, :]
        if off_block.start == 0:
            near_mass[tile_block] = w_pad[cols[:, :n_near]].sum(axis=1)
        # D_o(x) = |f(x + o) - f(x)|^p w(x + o), one (O x tile) per tile
        diff = vals_pad[cols]
        diff -= vals_pad[tiles][:, None, :]
        np.abs(diff, out=diff)
        diff **= p
        diff *= w_pad[cols]
        del cols
        sums[tile_block] += np.matmul(coef[:, off_block], diff)
    sums = sums.transpose(1, 0, 2).reshape(len(coef), -1)[:, :n_rows]
    return sums, near_mass.ravel()[:n_rows]


def _fft_shape(extent: np.ndarray, offsets: np.ndarray):
    """The FFT box for `offsets`: per axis the lattice's cells plus the
    offsets' reach, rounded up to a fast FFT length, so that no correlation
    wraps onto a grid cell."""
    reach = np.abs(offsets).max(axis=0)
    return tuple(sp_fft.next_fast_len(int(e + r), real=True)
                 for e, r in zip(extent, reach))


def _fft_worth(n_offsets: int, n_rows: int, coef: np.ndarray, shared: int,
               cells: int) -> bool:
    """Whether (offsets x rows) of the offset pass exceeds _FFT_COST times
    the transforms of the FFT box: `shared` ones, and nine per kernel with
    weight in `coef` (three forward, six inverse)."""
    transforms = shared + 9 * int(np.count_nonzero(coef.any(axis=1)))
    return n_offsets * n_rows > _FFT_COST * transforms * cells \
        * math.log2(cells)


def _affine_residual(cells: np.ndarray, values: np.ndarray,
                     weights: np.ndarray):
    """(g, beta): the weighted least-squares slope beta of the values over
    the integer cells, and the residual g = f - beta . x less its midrange.
    The fit solves the normal equations for f - min f, so a constant field
    gets beta = 0 and g = 0 exactly; any beta keeps the sums exact, and a
    better one only leaves them less to cancel."""
    design = np.column_stack([np.ones(len(cells)),
                              cells - weights @ cells / weights.sum()])
    weighted = design.T * weights
    beta = np.linalg.lstsq(weighted @ design,
                           weighted @ (values - values.min()),
                           rcond=None)[0][1:]
    g = values - cells @ beta
    return g - (g.max() + g.min()) / 2.0, beta


def _fft_far_sums(cells: np.ndarray, values: np.ndarray, weights: np.ndarray,
                  rings, shape: tuple):
    """Each kernel's p = 2 sum over each ring of offsets at every grid
    cell, by FFT, and an error bound per ring and kernel.

    `rings` holds (offsets, coef) pairs, coef of shape (kernels, offsets).
    With the field affine-centred, f(x) = a + beta . x + g(x), and d(o) =
    beta . o, the sum sum_o c(o) |f(x+o) - f(x)|^2 w(x+o) is T0 - 2 g T1 +
    g^2 T2 for T0 = c*g^2w + 2 (c d)*gw + (c d^2)*w, T1 = c*gw + (c d)*w
    and T2 = c*w, where u*v is the correlation sum_o u(o) v(x+o).  Returns
    (far, bound): far of shape (rings, kernels, cells), and bound[r, k] =
    eps log2(B) times the largest of those six terms over the cells, for B
    FFT cells.  A kernel with no weight on a ring gets exactly zero there.
    """
    axes = tuple(range(1, len(shape) + 1))
    at = np.ravel_multi_index(tuple(cells.T), shape)
    g, beta = _affine_residual(cells, values, weights)
    inputs = np.zeros((3, math.prod(shape)))
    inputs[:, at] = g * g * weights, g * weights, weights
    inputs = inputs.reshape((3,) + shape)
    spectra = sp_fft.rfftn(inputs, axes=axes)[[0, 1, 2, 1, 2, 2]]
    del inputs
    eps_log = np.finfo(float).eps * math.log2(math.prod(shape))
    n_kernels = len(rings[0][1])
    far = np.zeros((len(rings), n_kernels, len(cells)))
    bound = np.zeros((len(rings), n_kernels))
    for r, (offsets, coef) in enumerate(rings):
        kernel_grids = np.zeros((3,) + shape)
        wrapped = (slice(None),) + tuple((offsets % np.asarray(shape)).T)
        d = offsets @ beta
        for k, c in enumerate(coef):
            if not c.any():
                continue
            kernel_grids[wrapped] = c, c * d, c * d * d
            spectrum = np.conj(sp_fft.rfftn(kernel_grids, axes=axes))
            a0, a1, a2, b0, b1, m = sp_fft.irfftn(
                spectra * spectrum[[0, 1, 2, 0, 1, 0]], s=shape,
                axes=axes).reshape(6, -1)[:, at]
            a1 *= 2.0
            b0 *= 2.0 * g
            b1 *= 2.0 * g
            m *= g * g
            far[r, k] = (a0 + a1 + a2) - (b0 + b1) + m
            bound[r, k] = eps_log * max(
                a0.max(), np.abs(a1).max(), a2.max(), np.abs(b0).max(),
                np.abs(b1).max(), m.max())
    return far, bound


def _offset_sums(field: SampledField, kernels, p: float,
                 eval_idx: np.ndarray):
    """(far, near_num, near_mass) as sums over the integer offsets of a
    lattice grid; see `_energy_values`."""
    grid = field.grid
    offsets, n_near, coef = _lattice_offsets(grid, kernels, p)
    cells = grid.lattice - grid.lattice.min(axis=0)
    extent = cells.max(axis=0) + 1
    # the grid in a box of its lattice padded by the largest offset, with
    # zero weight wherever the lattice has no grid point
    pad = np.abs(offsets).max(axis=0, initial=0)
    shape = tuple(int(d) for d in extent + 2 * pad)
    pos = np.ravel_multi_index(tuple((cells + pad).T), shape)
    vals_pad = np.zeros(math.prod(shape))
    vals_pad[pos] = field.values
    w_pad = np.zeros(math.prod(shape))
    w_pad[pos] = grid.weights
    shifts = np.ravel_multi_index(tuple((offsets + pad).T), shape) \
        - np.ravel_multi_index(tuple(pad), shape)
    at = pos[eval_idx]

    def tile_pass(rows, offs):
        return _tile_sums(vals_pad, w_pad, at[rows], shifts[offs], n_near,
                          coef[:, offs], p)

    every = slice(None)
    # near offsets, the ring 2 <= |o| < _FFT_SPLIT, and the outer offsets
    outer = np.einsum("ij,ij->i", offsets, offsets) >= _FFT_SPLIT ** 2
    ring = ~outer
    ring[:n_near] = False
    fft_shape = None
    if p == 2.0 and outer.any():
        fft_shape = _fft_shape(extent, offsets[n_near:])
        cells_fft = math.prod(fft_shape)
        if not _fft_worth(int(outer.sum()), len(at), coef[1:, outer], 3,
                          cells_fft):
            fft_shape = None
    if fft_shape is None:
        sums, near_mass = tile_pass(every, every)
        return sums[1:], sums[0], near_mass
    rings = [outer]
    if _fft_worth(int(ring.sum()), len(at), coef[1:, ring], 0, cells_fft):
        rings.append(ring)
    far, bound = _fft_far_sums(cells, field.values, grid.weights,
                               [(offsets[m], coef[1:, m]) for m in rings],
                               fft_shape)
    far = far[:, :, eval_idx]
    sums = np.zeros((len(coef), len(at)))
    near_mass = np.zeros(len(at))
    # rows where every ring's error bound is far below the sum keep both
    # rings' FFT sums, and take only the near offsets on the offset pass
    fast = np.zeros(len(at), dtype=bool)
    if len(rings) == 2:
        both = far[0] + far[1]
        fast = np.all(bound[:, :, None] <= _FFT_GUARD * both, axis=(0, 1))
        if fast.any():
            sums[:, fast], near_mass[fast] = tile_pass(fast, slice(n_near))
            sums[1:, fast] += both[:, fast]
    rest = np.flatnonzero(~fast)
    if len(rest):
        # the others take the ring on the offset pass and the outer FFT
        part, near_mass[rest] = tile_pass(rest, ~outer)
        part[1:] += far[0][:, rest]
        # and where the outer error bound is not far below their sums,
        # the offset pass over every offset, and so its values
        back = np.any(bound[0][:, None] > _FFT_GUARD * part[1:], axis=0)
        if back.any():
            part[:, back], near_mass[rest[back]] = tile_pass(rest[back],
                                                             every)
        sums[:, rest] = part
    return sums[1:], sums[0], near_mass


def _energy_values(field: SampledField, kernels, p: float,
                   eval_idx: np.ndarray) -> np.ndarray:
    """Pointwise energies for several kernels sharing one pass.

    Returns an array of shape (len(kernels), len(eval_idx)).  The source
    returns, per evaluated row, each kernel's far sum, the near sum
    sum |f(y) - f(x)|^p / |y - x|^p w(y) and the near cells' measure.
    """
    grid = field.grid
    n = grid.dimension
    source = _tree_sums if grid.lattice is None else _offset_sums
    out, near_num, near_mass = source(field, kernels, p, eval_idx)
    sigma = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    cn = unit_ball_volume(n)
    # frozen difference quotient: cell-weighted p-th power average
    qbar = np.divide(near_num, near_mass, out=np.zeros_like(near_mass),
                     where=near_mass > 0)
    # radius of the ball carrying the excluded cells' measure
    r_eff = ((near_mass + grid.weights[eval_idx]) / cn) ** (1.0 / n)
    for ki, kernel in enumerate(kernels):
        out[ki] += qbar * sigma * kernel.mass_below(r_eff)
    return out


def pointwise_energy(field: SampledField, x_index: int,
                     params: EnergyParams) -> float:
    """Energy density at one grid point (same path as the functionals)."""
    if isinstance(x_index, bool) or not isinstance(x_index, (int, np.integer)) \
            or not 0 <= x_index < len(field.grid):
        raise ValueError(f"x_index must be an integer in [0, "
                         f"{len(field.grid)}), got {x_index!r}")
    kernel = params.family.kernel(params.nu, params.p)
    value = _energy_values(field, [kernel], params.p,
                           np.asarray([x_index]))[0, 0]
    return float(value)


def _strided_grid(grid: QuadratureGrid, stride: int):
    """The evaluation indices and output grid of a strided pass.

    Tensor grids (those carrying `axes`) keep every stride-th coordinate
    of each axis; a kept coordinate carries the summed weight of its
    stride group, so the per-axis weights still sum exactly to the side
    lengths and the output keeps its `axes`; an n-d tensor grid thus keeps
    about N / stride^n points.  Other point clouds keep
    every stride-th point of the raveled order with the weights rescaled
    uniformly to the full measure; on a lattice cut out by a disk or
    polygon the kept set therefore depends on the row lengths.
    """
    if stride == 1:
        return np.arange(len(grid)), grid
    if grid.axes is None:
        eval_idx = np.arange(0, len(grid), stride)
        w = grid.weights[eval_idx]
        scale = grid.weights.sum() / w.sum()
        return eval_idx, QuadratureGrid(grid.points[eval_idx], w * scale,
                                        grid.h, domain=grid.domain)
    keep = [np.arange(0, len(coords), stride) for coords, _ in grid.axes]
    axes = tuple((coords[k], np.add.reduceat(weights, k))
                 for (coords, weights), k in zip(grid.axes, keep))
    shape = tuple(len(coords) for coords, _ in grid.axes)
    eval_idx = np.ravel_multi_index(
        [m.ravel() for m in np.meshgrid(*keep, indexing="ij")], shape)
    w = np.ones(len(eval_idx))
    for wm in np.meshgrid(*[ax[1] for ax in axes], indexing="ij"):
        w = w * wm.ravel()
    return eval_idx, QuadratureGrid(grid.points[eval_idx], w, grid.h,
                                    axes=axes, domain=grid.domain)


def _half_fields(field: SampledField, kernels, p: float, stride: int):
    """The fields x -> E(x)^(1/p), one per kernel, on the strided grid:
    (grid, values) with one row of values per kernel."""
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) \
            or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    eval_idx, out_grid = _strided_grid(field.grid, stride)
    energies = _energy_values(field, kernels, p, eval_idx)
    return out_grid, energies ** (1.0 / p)


def energy_half_field(field: SampledField, params: EnergyParams,
                      stride: int = 1) -> SampledField:
    """The field x -> E(x)^(1/p) that the functional feeds into the norm."""
    kernel = params.family.kernel(params.nu, params.p)
    grid, halves = _half_fields(field, [kernel], params.p, stride)
    return SampledField(grid, halves[0])


def _warn_scale(nu: float, h: float, p: float) -> None:
    if nu < 4.0 * h * p:
        warnings.warn(
            f"kernel scale nu={nu:g} below the resolved bound 4*h*p="
            f"{4.0 * h * p:g}; the near-field freeze dominates",
            RuntimeWarning,
            stacklevel=3,
        )


def bbm_functional(field: SampledField, params: EnergyParams,
                   spec: SpaceSpec, stride: int = 1) -> float:
    """X-norm of the pointwise energy to the 1/p, for one RDATI scale."""
    return float(bbm_functional_schedule(field, params.p, params.family,
                                         [params.nu], spec, stride)[0])


def bbm_functional_schedule(field: SampledField, p: float,
                            family: RdatiFamily, nus, spec: SpaceSpec,
                            stride: int = 1) -> np.ndarray:
    """Functional values over a scale schedule, sharing one energy pass
    and one stacked norm call."""
    check_p(p)
    nus = list(nus)
    if not nus:
        raise ValueError("schedule must hold at least one scale, got []")
    kernels = [family.kernel(nu, p) for nu in nus]
    for nu in nus:
        _warn_scale(nu, field.grid.h, p)
    return norm(spec, *_half_fields(field, kernels, p, stride))


def gagliardo_functional(field: SampledField, p: float, s: float,
                         spec: SpaceSpec, stride: int = 1) -> float:
    """(1-s)^(1/p) times the X-norm of the Gagliardo inner integral.

    Shares the kernel machinery with the RDATI route; with the fractional
    family at nu = 1 - s the two routes differ by the exact factor
    p^(1/p) (2R)^(-nu).
    """
    check_p(p)
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    _warn_scale(1.0 - s, field.grid.h, p)
    kernel = gagliardo_kernel(s, p, field.grid.dimension)
    grid, halves = _half_fields(field, [kernel], p, stride)
    return float((1.0 - s) ** (1.0 / p) * norm(spec, grid, halves[0]))
