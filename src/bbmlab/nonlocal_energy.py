"""Pointwise BBM energies and nonlocal functionals.

The integrand |f(x)-f(y)|^p / |x-y|^p * rho(|x-y|) is summed over the
field's own grid.  Every shipped kernel (bump, fractional, Gagliardo) is a
`mollifiers.PowerKernel`, a power law A r^e cut off at some radius, so two
quadrature refinements come in closed form: far cells use the radial
average of the kernel across the cell width instead of a midpoint value,
and the near field inside roughly two grid spacings is re-integrated in
polar coordinates with the difference quotient frozen at its grid average.
This keeps the total quadrature error O(h) uniformly over admissible
scales.

One pass serves every kernel of a schedule, and every entry point (the
functionals, `energy_half_field` and `pointwise_energy`) runs it.  Its
pairs come from one of two sources, both as flat (row, column, distance)
arrays in blocks of at most _PAIR_BUDGET pairs, feeding the same near/far
accumulation:

* all pairs, when every pair of points lies within the kernels' reach
  (Gagliardo kernels, whose cut is infinite, and the fractional family
  whenever its cut 2R spans the grid);
* otherwise a k-d tree neighbour list of the pairs within the reach,
  max(largest cut + half the widest cell, NEAR_FIELD_FACTOR * h).

The choice is exact: the tree counts the pairs within the reach, and the
all-pairs source is taken only when that count is every pair.  A far
pair whose distance exceeds a kernel's cut by half its cell width has a
zero cell-averaged kernel, so each kernel accumulates only the far pairs
inside its own cut; both sources give the same sums up to the order of
floating-point additions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .field import SampledField
from .geometry import QuadratureGrid
from .mollifiers import RdatiFamily, gagliardo_kernel
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
# pair entries one block of the pass holds at once (bounds its memory)
_PAIR_BUDGET = 4_000_000


@dataclass(frozen=True)
class EnergyParams:
    """Exponent, kernel family and scale for one energy evaluation."""

    p: float
    family: RdatiFamily
    nu: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        self.family._check_nu(self.nu)


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between broadcast point arrays (last axis)."""
    diff = x - y
    return np.sqrt(np.einsum("...i,...i->...", diff, diff))


def _all_pair_blocks(pts: np.ndarray, eval_idx: np.ndarray):
    """Every (row, column) pair, in blocks of whole rows."""
    n_pts = len(pts)
    block = max(1, _PAIR_BUDGET // max(n_pts, 1))
    for start in range(0, len(eval_idx), block):
        sel = eval_idx[start:start + block]
        # built inline so that the consumer holds the only references
        yield (slice(start, start + len(sel)),
               np.repeat(np.arange(len(sel)), n_pts),
               np.tile(np.arange(n_pts), len(sel)),
               _distances(pts[sel][:, None, :], pts[None, :, :]).ravel())


def _neighbour_pairs(tree: cKDTree, pts: np.ndarray, sel: np.ndarray,
                     reach: float):
    """(rows, cols, dist) of the pairs within `reach` of the points
    pts[sel], ordered by row then column."""
    n_pts = len(pts)
    found = cKDTree(pts[sel]).sparse_distance_matrix(
        tree, reach, output_type="ndarray")
    rows, cols = np.divmod(np.sort(found["i"] * n_pts + found["j"]), n_pts)
    del found
    # recomputed as in the all-pairs source, so both agree bit for bit
    return rows, cols, _distances(pts[sel][rows], pts[cols])


def _neighbour_blocks(tree: cKDTree, pts: np.ndarray, eval_idx: np.ndarray,
                      reach: float, counts: np.ndarray):
    """The pairs within `reach`, in blocks of whole rows holding at most
    _PAIR_BUDGET pairs (`counts` holds each row's pair count)."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(eval_idx):
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(
            ends, before + _PAIR_BUDGET, side="right")))
        yield (slice(start, stop),
               *_neighbour_pairs(tree, pts, eval_idx[start:stop], reach))
        start = stop


def _pair_blocks(pts: np.ndarray, eval_idx: np.ndarray, reach: float):
    """Blocks of (block, rows, cols, dist) covering every pair within
    `reach`: all pairs when every pair lies within it, else a neighbour
    list.  `block` slices eval_idx, rows index eval_idx[block] and cols
    index pts."""
    tree = cKDTree(pts)
    counts = tree.query_ball_point(pts[eval_idx], reach, return_length=True)
    if int(counts.sum()) == len(eval_idx) * len(pts):
        return _all_pair_blocks(pts, eval_idx)
    return _neighbour_blocks(tree, pts, eval_idx, reach, counts)


def _energy_values(field: SampledField, kernels, p: float,
                   eval_idx: np.ndarray) -> np.ndarray:
    """Pointwise energies for several kernels sharing one pair pass.

    Returns an array of shape (len(kernels), len(eval_idx)).
    """
    grid = field.grid
    pts = grid.points
    w = grid.weights
    vals = field.values
    n = grid.dimension
    near_radius = NEAR_FIELD_FACTOR * grid.h
    sigma = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    cn = unit_ball_volume(n)
    cell_width = w ** (1.0 / n)
    # pairs beyond every kernel's cut by half a cell add exactly zero; the
    # margin covers the last bits the tree's distances may differ in
    reach = max(max(k.cut for k in kernels) + cell_width.max() / 2.0,
                near_radius) * (1.0 + 1e-12)
    by_cut = sorted(range(len(kernels)), key=lambda ki: -kernels[ki].cut)
    out = np.zeros((len(kernels), len(eval_idx)))
    for block, rows, cols, dist in _pair_blocks(pts, eval_idx, reach):
        sel = eval_idx[block]
        vals_sel = vals[sel]
        # frozen difference quotient: cell-weighted p-th power average
        near = (dist > 0.0) & (dist < near_radius)
        near_rows, near_cols = rows[near], cols[near]
        near_w = w[near_cols]
        quot = (np.abs(vals_sel[near_rows] - vals[near_cols]) ** p
                / dist[near] ** p)
        near_mass = np.bincount(near_rows, weights=near_w,
                                minlength=len(sel))
        qbar = np.divide(
            np.bincount(near_rows, weights=quot * near_w, minlength=len(sel)),
            near_mass, out=np.zeros_like(near_mass), where=near_mass > 0,
        )
        # radius of the ball carrying the excluded cells' measure
        r_eff = ((near_mass + w[sel]) / cn) ** (1.0 / n)
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
            far_term = np.bincount(rows, weights=quot_w * rho_bar,
                                   minlength=len(sel))
            near_term = qbar * sigma * kernel.mass_below(r_eff)
            out[ki, block] = far_term + near_term
    return out


def pointwise_energy(field: SampledField, x_index: int,
                     params: EnergyParams) -> float:
    """Energy density at one grid point (same path as the functionals)."""
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


def _half_fields(field: SampledField, kernels, p: float,
                 stride: int) -> list:
    """The fields x -> E(x)^(1/p), one per kernel, on the strided grid."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    eval_idx, out_grid = _strided_grid(field.grid, stride)
    energies = _energy_values(field, kernels, p, eval_idx)
    return [SampledField(out_grid, row ** (1.0 / p)) for row in energies]


def energy_half_field(field: SampledField, params: EnergyParams,
                      stride: int = 1) -> SampledField:
    """The field x -> E(x)^(1/p) that the functional feeds into the norm."""
    kernel = params.family.kernel(params.nu, params.p)
    return _half_fields(field, [kernel], params.p, stride)[0]


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
    """Functional values over a scale schedule, sharing one distance pass."""
    kernels = [family.kernel(nu, p) for nu in nus]
    for nu in nus:
        _warn_scale(nu, field.grid.h, p)
    return np.asarray([norm(spec, half)
                       for half in _half_fields(field, kernels, p, stride)])


def gagliardo_functional(field: SampledField, p: float, s: float,
                         spec: SpaceSpec, stride: int = 1) -> float:
    """(1-s)^(1/p) times the X-norm of the Gagliardo inner integral.

    Shares the kernel machinery with the RDATI route; with the fractional
    family at nu = 1 - s the two routes differ by the exact factor
    p^(1/p) (2R)^(-nu).
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    _warn_scale(1.0 - s, field.grid.h, p)
    kernel = gagliardo_kernel(s, p, field.grid.dimension)
    raw = norm(spec, _half_fields(field, [kernel], p, stride)[0])
    return float((1.0 - s) ** (1.0 / p) * raw)
