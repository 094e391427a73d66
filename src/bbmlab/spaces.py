"""Function-space norm engines for sampled fields on bounded domains.

Each engine maps a SampledField to the discrete version of one norm:
integrals become weighted sums over cells, suprema over balls or centers
become maxima over a declared finite search family, Luxemburg-type norms
are found by bisection on the scale parameter, and rearrangement-based
norms sort values carrying their cell weights.  All engines depend on |f|
only and are positively homogeneous.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Union

import numpy as np
from scipy.spatial import cKDTree

from .field import SampledField
from .geometry import QuadratureGrid

__all__ = [
    "Lebesgue",
    "WeightedLebesgue",
    "Lorentz",
    "OrliczSpace",
    "Morrey",
    "VariableLebesgue",
    "MixedLebesgue",
    "HerzLocal",
    "HerzGlobal",
    "BesovBourgainMorrey",
    "OrliczSlice",
    "SpaceSpec",
    "PowerOrlicz",
    "PowerLogOrlicz",
    "TableOrlicz",
    "ConstantWeight",
    "PowerWeight",
    "GridWeight",
    "norm",
    "decreasing_rearrangement",
    "StepFunction",
    "convexify",
    "ap_constant",
    "holder_defect",
    "has_absolutely_continuous_norm",
    "describe",
    "unit_ball_volume",
    "orlicz_from_csv",
    "weight_from_csv",
]


# ---------------------------------------------------------------------------
# Orlicz functions

@dataclass(frozen=True)
class PowerOrlicz:
    """Phi(t) = t^q."""

    q: float

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("power Orlicz function needs q > 0")

    def __call__(self, t):
        return np.asarray(t, dtype=float) ** self.q

    @property
    def lower_type(self) -> float:
        return self.q

    @property
    def upper_type(self) -> float:
        return self.q


@dataclass(frozen=True)
class PowerLogOrlicz:
    """Phi(t) = t^q log(e + t)."""

    q: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t**self.q * np.log(math.e + t)

    @property
    def lower_type(self) -> float:
        return self.q

    @property
    def upper_type(self) -> float:
        return self.q + 1.0


@dataclass(frozen=True)
class TableOrlicz:
    """User table (t_k, Phi_k), interpolated monotonically (log-linear)."""

    ts: tuple
    values: tuple
    declared_lower_type: float = 1.0
    declared_upper_type: float = math.inf

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if ts.ndim != 1 or ts.shape != vals.shape or len(ts) < 2:
            raise ValueError("table needs matching 1-d t and Phi arrays")
        if np.any(np.diff(ts) <= 0) or np.any(np.diff(vals) < 0):
            raise ValueError("table must be strictly increasing in t, "
                             "non-decreasing in Phi")
        if np.any(ts <= 0) or np.any(vals < 0):
            raise ValueError("table entries must be positive")
        if vals[-1] <= vals[-2]:
            raise ValueError("table must keep growing at its upper end "
                             "(an Orlicz function is unbounded)")
        object.__setattr__(self, "ts", tuple(ts))
        object.__setattr__(self, "values", tuple(vals))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        log_ts = np.log(np.asarray(self.ts))
        log_vals = np.log(np.maximum(np.asarray(self.values), 1e-300))
        x = np.log(np.maximum(t, 1e-300))
        out = np.interp(x, log_ts, log_vals)
        # extend by the edge slopes so Phi stays monotone and unbounded
        lo_slope = (log_vals[1] - log_vals[0]) / (log_ts[1] - log_ts[0])
        hi_slope = (log_vals[-1] - log_vals[-2]) / (log_ts[-1] - log_ts[-2])
        out = np.where(x < log_ts[0],
                       log_vals[0] + lo_slope * (x - log_ts[0]), out)
        out = np.where(x > log_ts[-1],
                       log_vals[-1] + hi_slope * (x - log_ts[-1]), out)
        return np.where(t <= 0, 0.0, np.exp(out))

    @property
    def lower_type(self) -> float:
        return self.declared_lower_type

    @property
    def upper_type(self) -> float:
        return self.declared_upper_type


OrliczFunction = Union[PowerOrlicz, PowerLogOrlicz, TableOrlicz]


def orlicz_from_csv(path, lower_type: float = 1.0,
                    upper_type: float = math.inf) -> TableOrlicz:
    """Read an Orlicz table from CSV rows t, Phi(t)."""
    ts, vals = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            ts.append(float(row[0]))
            vals.append(float(row[1]))
    return TableOrlicz(tuple(ts), tuple(vals), lower_type, upper_type)


# ---------------------------------------------------------------------------
# Weights

@dataclass(frozen=True)
class ConstantWeight:
    c: float = 1.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("weight must be positive")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.full(np.atleast_2d(pts).shape[0], self.c)


@dataclass(frozen=True)
class PowerWeight:
    """omega(x) = |x|^a, locally integrable for a > -n."""

    a: float

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        with np.errstate(divide="ignore"):
            return r**self.a


@dataclass(frozen=True, eq=False)
class GridWeight:
    """Weight known only at sample points; evaluated by nearest lookup."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        vals = np.asarray(self.values, dtype=float)
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("points and values must match")
        if np.any(vals <= 0):
            raise ValueError("weight must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        tree = cKDTree(self.points)
        _, idx = tree.query(np.atleast_2d(pts))
        return self.values[idx]


Weight = Union[ConstantWeight, PowerWeight, GridWeight]


def weight_from_csv(path, dimension: int) -> GridWeight:
    """Read a grid weight from CSV rows x1..xn, omega."""
    pts, vals = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            nums = [float(c) for c in row]
            pts.append(nums[:dimension])
            vals.append(nums[dimension])
    return GridWeight(np.asarray(pts), np.asarray(vals))


# ---------------------------------------------------------------------------
# Space specifications

@dataclass(frozen=True)
class Lebesgue:
    q: float

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("Lebesgue exponent must be >= 1")


@dataclass(frozen=True)
class WeightedLebesgue:
    q: float
    weight: Weight = dc_field(default_factory=ConstantWeight)

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("weighted Lebesgue exponent must be >= 1")


@dataclass(frozen=True)
class Lorentz:
    r: float
    tau: float

    def __post_init__(self):
        if not (self.r > 1 and self.tau > 0):
            raise ValueError("Lorentz space needs r > 1 and tau > 0")


@dataclass(frozen=True)
class OrliczSpace:
    phi: OrliczFunction


@dataclass(frozen=True)
class Morrey:
    """alpha >= r; the ball supremum runs over a fixed documented ladder."""

    alpha: float
    r: float

    def __post_init__(self):
        if not (1 < self.r <= self.alpha):
            raise ValueError("Morrey space needs 1 < r <= alpha")


@dataclass(frozen=True, eq=False)
class VariableLebesgue:
    """Exponent field r(.) with 1 < ess inf <= ess sup < infinity."""

    exponent: Union[float, Callable[[np.ndarray], np.ndarray]]

    def exponents(self, pts: np.ndarray) -> np.ndarray:
        if callable(self.exponent):
            r = np.asarray(self.exponent(pts), dtype=float)
        else:
            r = np.full(np.atleast_2d(pts).shape[0], float(self.exponent))
        if np.any(r <= 1):
            raise ValueError("variable exponent must stay above 1")
        return r


@dataclass(frozen=True)
class MixedLebesgue:
    rvec: tuple

    def __post_init__(self):
        object.__setattr__(self, "rvec", tuple(float(r) for r in self.rvec))
        if any(r < 1 for r in self.rvec):
            raise ValueError("mixed exponents must lie in [1, inf)")


@dataclass(frozen=True)
class HerzLocal:
    """Local generalized Herz norm with power weight omega(t) = t^a."""

    p: float
    q: float
    a: float
    xi: tuple = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(float(c) for c in self.xi))
        if not (self.p > 1 and self.q > 1):
            raise ValueError("Herz space needs p, q in (1, inf)")


@dataclass(frozen=True)
class HerzGlobal:
    p: float
    q: float
    a: float

    def __post_init__(self):
        if not (self.p > 1 and self.q > 1):
            raise ValueError("Herz space needs p, q in (1, inf)")


@dataclass(frozen=True)
class BesovBourgainMorrey:
    """Triple dyadic sum, truncated to scales j in [j_min, j_max]."""

    q: float
    p: float
    r: float
    tau: float
    j_min: int = -8
    j_max: int = 8

    def __post_init__(self):
        if not (1 <= self.q <= self.p <= self.r < math.inf):
            raise ValueError("Besov-Bourgain-Morrey needs q <= p <= r")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")


@dataclass(frozen=True)
class OrliczSlice:
    phi: OrliczFunction
    r: float
    t: float

    def __post_init__(self):
        if self.r < 1 or self.t <= 0:
            raise ValueError("Orlicz-slice needs r >= 1 and t > 0")


SpaceSpec = Union[
    Lebesgue, WeightedLebesgue, Lorentz, OrliczSpace, Morrey,
    VariableLebesgue, MixedLebesgue, HerzLocal, HerzGlobal,
    BesovBourgainMorrey, OrliczSlice,
]


def describe(spec: SpaceSpec) -> str:
    """Short stable label for reports."""
    if isinstance(spec, Lebesgue):
        return f"lebesgue(q={spec.q:g})"
    if isinstance(spec, WeightedLebesgue):
        return f"weighted(q={spec.q:g}, {type(spec.weight).__name__})"
    if isinstance(spec, Lorentz):
        return f"lorentz(r={spec.r:g}, tau={spec.tau:g})"
    if isinstance(spec, OrliczSpace):
        return f"orlicz({type(spec.phi).__name__})"
    if isinstance(spec, Morrey):
        return f"morrey(alpha={spec.alpha:g}, r={spec.r:g})"
    if isinstance(spec, VariableLebesgue):
        return "variable"
    if isinstance(spec, MixedLebesgue):
        return f"mixed{spec.rvec}"
    if isinstance(spec, HerzLocal):
        return f"herz_local(p={spec.p:g}, q={spec.q:g}, a={spec.a:g})"
    if isinstance(spec, HerzGlobal):
        return f"herz_global(p={spec.p:g}, q={spec.q:g}, a={spec.a:g})"
    if isinstance(spec, BesovBourgainMorrey):
        return (f"bbmorrey(q={spec.q:g}, p={spec.p:g}, r={spec.r:g}, "
                f"tau={spec.tau:g})")
    if isinstance(spec, OrliczSlice):
        return f"orlicz_slice(r={spec.r:g}, t={spec.t:g})"
    raise TypeError(f"unknown spec {type(spec)!r}")


def has_absolutely_continuous_norm(spec: SpaceSpec) -> bool:
    """Morrey and global Herz norms are not absolutely continuous; exact
    limit claims are disabled for them and only two-sided bounds hold."""
    return not isinstance(spec, (Morrey, HerzGlobal))


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# Rearrangement

@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous non-increasing step function on [0, inf)."""

    levels: np.ndarray
    breakpoints: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right")
        padded = np.append(self.levels, 0.0)
        return padded[np.minimum(idx, len(self.levels))]


def decreasing_rearrangement(field: SampledField) -> StepFunction:
    """Sort |values| descending (stable), cumulate cell weights."""
    w = field.grid.weights
    keep = w > 0
    vals = np.abs(field.values[keep])
    w = w[keep]
    order = np.argsort(-vals, kind="stable")
    levels = vals[order]
    breaks = np.cumsum(w[order])
    return StepFunction(levels, breaks)


# ---------------------------------------------------------------------------
# Luxemburg bisection

_BISECT_MAX_ITER = 200


def _luxemburg(modular: Callable[[np.ndarray], np.ndarray],
               lam0: np.ndarray) -> np.ndarray:
    """Vectorized inf{lam > 0 : modular(lam) <= 1} for non-increasing
    modulars.  lam0 is a positive starting scale per component (zero marks
    a zero norm)."""
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=float))
    out = np.zeros_like(lam0)
    active = lam0 > 0
    if not np.any(active):
        return out
    hi = lam0.copy()
    hi[~active] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_BISECT_MAX_ITER):
            bad = active & (modular(hi) > 1.0)
            if not np.any(bad):
                break
            hi[bad] *= 2.0
        lo = hi / 2.0
        for _ in range(_BISECT_MAX_ITER):
            move = active & (modular(lo) <= 1.0)
            if not np.any(move):
                break
            hi[move] = lo[move]
            lo[move] /= 2.0
        for _ in range(_BISECT_MAX_ITER):
            if np.all(hi[active] - lo[active] <= 1e-15 * hi[active]):
                break
            mid = 0.5 * (lo + hi)
            le = modular(mid) <= 1.0
            hi = np.where(active & le, mid, hi)
            lo = np.where(active & ~le, mid, lo)
    out[active] = 0.5 * (lo[active] + hi[active])
    return out


# ---------------------------------------------------------------------------
# Norm engines

def _check_finite(field: SampledField) -> None:
    if not np.all(np.isfinite(field.values)):
        raise ValueError("field has non-finite values")


def _lebesgue_norm(q: float, w: np.ndarray, vals: np.ndarray) -> float:
    return float(np.sum(w * np.abs(vals) ** q) ** (1.0 / q))


def _lorentz_norm(spec: Lorentz, field: SampledField) -> float:
    step = decreasing_rearrangement(field)
    if len(step.levels) == 0:
        return 0.0
    r, tau = spec.r, spec.tau
    t = np.concatenate([[0.0], step.breakpoints])
    incr = t[1:] ** (tau / r) - t[:-1] ** (tau / r)
    total = np.sum(step.levels**tau * (r / tau) * incr)
    return float(total ** (1.0 / tau))


def _orlicz_norm(phi: OrliczFunction, w: np.ndarray,
                 vals: np.ndarray) -> float:
    a = np.abs(vals)
    if not np.any(a > 0):
        return 0.0

    def modular(lam):
        return np.sum(w[None, :] * phi(a[None, :] / lam[:, None]), axis=1)

    return float(_luxemburg(modular, np.array([a.max()]))[0])


def _variable_norm(spec: VariableLebesgue, field: SampledField) -> float:
    w = field.grid.weights
    a = np.abs(field.values)
    if not np.any(a > 0):
        return 0.0
    r = spec.exponents(field.grid.points)

    def modular(lam):
        return np.sum(w[None, :] * (a[None, :] / lam[:, None]) ** r[None, :],
                      axis=1)

    return float(_luxemburg(modular, np.array([a.max()]))[0])


def _morrey_radii(grid: QuadratureGrid) -> np.ndarray:
    pts = grid.points
    span = pts.max(axis=0) - pts.min(axis=0)
    diam = float(np.linalg.norm(span)) + grid.h
    lo = min(2.0 * grid.h, diam)
    return np.geomspace(lo, diam, 12)


def _morrey_norm(spec: Morrey, field: SampledField) -> float:
    """Max over balls centered at grid points, radii on a geometric ladder
    from 2h to the diameter (12 rungs).  The top rung covers the whole
    domain, so alpha = r collapses exactly to the Lebesgue norm."""
    grid = field.grid
    pts = grid.points
    n = grid.dimension
    cn = unit_ball_volume(n)
    power = np.abs(field.values) ** spec.r * grid.weights
    tree = cKDTree(pts)
    best = 0.0
    exponent = 1.0 / spec.alpha - 1.0 / spec.r
    for rho in _morrey_radii(grid):
        vol_factor = (cn * rho**n) ** exponent
        # blocked neighbour sums to bound memory on large grids
        for start in range(0, len(pts), 512):
            block = pts[start:start + 512]
            idx = tree.query_ball_point(block, rho)
            sums = np.array([power[i].sum() for i in idx])
            cand = vol_factor * sums ** (1.0 / spec.r)
            best = max(best, float(cand.max(initial=0.0)))
    return best


def _mixed_norm(spec: MixedLebesgue, field: SampledField) -> float:
    axes = field.grid.axes
    if axes is None:
        raise ValueError("mixed norm requires a tensor-product grid")
    if len(spec.rvec) != len(axes):
        raise ValueError("mixed exponent count must match the dimension")
    shape = tuple(len(ax[0]) for ax in axes)
    a = np.abs(field.values).reshape(shape)
    for (coords, w), r in zip(axes, spec.rvec):
        a = np.tensordot(w, a**r, axes=(0, 0)) ** (1.0 / r)
    return float(a)


def _herz_local_norm(spec: HerzLocal, field: SampledField,
                     xi: Optional[np.ndarray] = None) -> float:
    grid = field.grid
    xi = np.asarray(spec.xi if xi is None else xi, dtype=float)
    if xi.shape != (grid.dimension,):
        raise ValueError("Herz center dimension mismatch")
    d = np.linalg.norm(grid.points - xi, axis=1)
    keep = d > 0
    if not np.any(keep):
        return 0.0
    k = np.floor(np.log2(d[keep])).astype(int) + 1
    s = np.abs(field.values[keep]) ** spec.p * grid.weights[keep]
    k_shift = k - k.min()
    sums = np.bincount(k_shift, weights=s)
    ks = np.arange(k.min(), k.min() + len(sums))
    nonzero = sums > 0
    terms = (2.0 ** (ks[nonzero] * spec.a)) ** spec.q \
        * sums[nonzero] ** (spec.q / spec.p)
    return float(np.sum(terms) ** (1.0 / spec.q))


def _herz_global_norm(spec: HerzGlobal, field: SampledField) -> float:
    """Sup over centers sampled on a bounding-box lattice; a documented
    lower bound of the true supremum over all centers."""
    grid = field.grid
    lo = grid.points.min(axis=0)
    hi = grid.points.max(axis=0)
    span = float(np.max(hi - lo))
    step = max(grid.h, span / 12.0)
    axes = [np.arange(lo[j], hi[j] + step / 2, step)
            for j in range(grid.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=-1)
    local = HerzLocal(spec.p, spec.q, spec.a, tuple(centers[0]))
    return max(_herz_local_norm(local, field, xi=c) for c in centers)


def _bbmorrey_norm(spec: BesovBourgainMorrey, field: SampledField) -> float:
    grid = field.grid
    n = grid.dimension
    # cubes finer than the grid spacing carry no information
    j_hi = min(spec.j_max, int(math.floor(-math.log2(grid.h))))
    j_hi = max(j_hi, spec.j_min)
    aq = np.abs(field.values) ** spec.q * grid.weights
    total = 0.0
    for j in range(spec.j_min, j_hi + 1):
        cube_idx = np.floor(grid.points * 2.0**j).astype(np.int64)
        _, inverse = np.unique(cube_idx, axis=0, return_inverse=True)
        sums = np.bincount(inverse, weights=aq)
        vol = 2.0 ** (-j * n)
        terms = vol ** (1.0 / spec.p - 1.0 / spec.q) * sums ** (1.0 / spec.q)
        inner = np.sum(terms**spec.r) ** (spec.tau / spec.r)
        total += inner
    return float(total ** (1.0 / spec.tau))


def _orlicz_slice_norm(spec: OrliczSlice, field: SampledField) -> float:
    grid = field.grid
    pts = grid.points
    w = grid.weights
    a = np.abs(field.values)
    if not np.any(a > 0):
        return 0.0
    ball = unit_ball_volume(grid.dimension) * spec.t**grid.dimension

    def denom_modular(lam):
        return ball * spec.phi(1.0 / lam)

    denom = float(_luxemburg(denom_modular, np.array([1.0]))[0])
    tree = cKDTree(pts)
    ratios = np.zeros(len(pts))
    for start in range(0, len(pts), 256):
        block = slice(start, min(start + 256, len(pts)))
        # each center's ball as flat (row, column) index pairs
        idx_lists = tree.query_ball_point(pts[block], spec.t)
        lengths = np.fromiter(map(len, idx_lists), dtype=np.intp,
                              count=len(idx_lists))
        rows = np.repeat(np.arange(len(idx_lists)), lengths)
        cols = np.fromiter(itertools.chain.from_iterable(idx_lists),
                           dtype=np.intp, count=int(lengths.sum()))
        a_ball = a[cols]
        w_ball = w[cols]
        lam0 = np.where(np.bincount(rows, weights=w_ball * (a_ball > 0),
                                    minlength=len(idx_lists)) > 0,
                        a.max(), 0.0)

        def modular(lam):
            with np.errstate(divide="ignore"):
                scaled = spec.phi(a_ball / lam[rows])
            return np.bincount(rows, weights=w_ball * scaled,
                               minlength=len(idx_lists))

        ratios[block] = _luxemburg(modular, lam0) / denom
    return float(np.sum(w * ratios**spec.r) ** (1.0 / spec.r))


def norm(spec: SpaceSpec, field: SampledField) -> float:
    """Dispatch the discrete norm of `field` for the given space."""
    _check_finite(field)
    w = field.grid.weights
    vals = field.values
    if isinstance(spec, Lebesgue):
        return _lebesgue_norm(spec.q, w, vals)
    if isinstance(spec, WeightedLebesgue):
        wx = spec.weight(field.grid.points)
        return _lebesgue_norm(spec.q, w * wx, vals)
    if isinstance(spec, Lorentz):
        return _lorentz_norm(spec, field)
    if isinstance(spec, OrliczSpace):
        return _orlicz_norm(spec.phi, w, vals)
    if isinstance(spec, Morrey):
        return _morrey_norm(spec, field)
    if isinstance(spec, VariableLebesgue):
        return _variable_norm(spec, field)
    if isinstance(spec, MixedLebesgue):
        return _mixed_norm(spec, field)
    if isinstance(spec, HerzLocal):
        return _herz_local_norm(spec, field)
    if isinstance(spec, HerzGlobal):
        return _herz_global_norm(spec, field)
    if isinstance(spec, BesovBourgainMorrey):
        return _bbmorrey_norm(spec, field)
    if isinstance(spec, OrliczSlice):
        return _orlicz_slice_norm(spec, field)
    raise TypeError(f"unknown space spec {type(spec)!r}")


# ---------------------------------------------------------------------------
# Convexification, Muckenhoupt constants, Hoelder defect

def convexify(spec: SpaceSpec, p: float):
    """Base space of the p-convexification representation of `spec`.

    The returned spec Y satisfies norm(spec, f) = norm(Y, |f|^p)^(1/p),
    i.e. spec = Y^p; for Lebesgue exponents this is q -> q/p.
    """
    if p <= 0:
        raise ValueError("convexification exponent must be positive")
    if isinstance(spec, Lebesgue):
        if spec.q / p < 1:
            raise ValueError("q/p leaves the Banach range [1, inf)")
        return Lebesgue(spec.q / p)
    if isinstance(spec, WeightedLebesgue):
        if spec.q / p < 1:
            raise ValueError("q/p leaves the Banach range [1, inf)")
        return WeightedLebesgue(spec.q / p, spec.weight)
    raise NotImplementedError(
        "convexification implemented for (weighted) Lebesgue specs"
    )


def _power_segment_integral(b: float, lo: float, hi: float,
                            eps: float) -> float:
    """int_lo^hi x^b dx on 0 <= lo < hi, truncated at eps when divergent."""
    if hi <= 0:
        return 0.0
    lo = max(lo, 0.0)
    if b <= -1.0 and lo < eps:
        lo = min(eps, hi)
    if lo >= hi:
        return 0.0
    if abs(b + 1.0) < 1e-12:
        return math.log(hi / lo) if lo > 0 else math.inf
    if lo == 0.0 and b < 0:
        return hi ** (b + 1.0) / (b + 1.0)
    return (hi ** (b + 1.0) - lo ** (b + 1.0)) / (b + 1.0)


def _power_cube_integral(b: float, lo: np.ndarray, hi: np.ndarray,
                         eps: float) -> float:
    """int_Q |x|^b dx over an axis-aligned cube, truncating the singular
    ball of radius eps for divergent exponents.  Exact in one dimension;
    Gauss-Legendre with geometric subdivision toward the origin otherwise."""
    n = len(lo)
    if n == 1:
        total = 0.0
        if lo[0] < 0:
            total += _power_segment_integral(b, max(0.0, -hi[0]), -lo[0], eps)
            lo = np.array([0.0]) if hi[0] > 0 else hi
        if hi[0] > 0:
            total += _power_segment_integral(b, max(lo[0], 0.0), hi[0], eps)
        return total
    side = float(np.max(hi - lo))
    nearest = np.linalg.norm(np.clip(0.0, lo, hi))
    if nearest >= 0.5 * side or side <= eps:
        if nearest == 0.0:
            if b <= -n:
                raise ValueError("non-integrable weight power on a cube "
                                 "touching the origin")
            # tiny cube at the origin: integrate radially over the
            # inscribed/enclosing ball average
            rad = 0.5 * side
            sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
            return sphere * _power_segment_integral(b + n - 1, eps, rad, eps)
        nodes, wts = np.polynomial.legendre.leggauss(8)
        grids = np.meshgrid(*[
            0.5 * (hi[j] + lo[j]) + 0.5 * (hi[j] - lo[j]) * nodes
            for j in range(n)
        ], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        wgrid = np.meshgrid(*[0.5 * (hi[j] - lo[j]) * wts for j in range(n)],
                            indexing="ij")
        wprod = np.ones(pts.shape[0])
        for wg in wgrid:
            wprod = wprod * wg.ravel()
        r = np.linalg.norm(pts, axis=1)
        return float(np.sum(wprod * r**b))
    mid = 0.5 * (lo + hi)
    total = 0.0
    for corner in np.ndindex(*([2] * n)):
        clo = np.where(np.asarray(corner) == 0, lo, mid)
        chi = np.where(np.asarray(corner) == 0, mid, hi)
        total += _power_cube_integral(b, clo, chi, eps)
    return total


def _weight_cube_integral(weight: Weight, power: float, lo: np.ndarray,
                          hi: np.ndarray, eps: float) -> float:
    vol = float(np.prod(hi - lo))
    if isinstance(weight, ConstantWeight):
        return weight.c**power * vol
    if isinstance(weight, PowerWeight):
        return _power_cube_integral(weight.a * power, lo, hi, eps)
    if isinstance(weight, GridWeight):
        inside = np.all((weight.points >= lo) & (weight.points < hi), axis=1)
        if not np.any(inside):
            return 0.0
        return float(np.mean(weight.values[inside] ** power) * vol)
    raise TypeError(f"unknown weight {type(weight)!r}")


def _weight_cube_supremum_inverse(weight: Weight, lo: np.ndarray,
                                  hi: np.ndarray, eps: float) -> float:
    """esssup of 1/omega on the cube (for the A_1 bracket)."""
    if isinstance(weight, ConstantWeight):
        return 1.0 / weight.c
    if isinstance(weight, PowerWeight):
        nearest = np.linalg.norm(np.clip(0.0, lo, hi))
        farthest = max(
            np.linalg.norm(c) for c in
            (np.where(np.asarray(corner) == 0, lo, hi)
             for corner in np.ndindex(*([2] * len(lo))))
        )
        if weight.a >= 0:
            return max(nearest, eps) ** (-weight.a)
        return farthest ** (-weight.a)
    if isinstance(weight, GridWeight):
        inside = np.all((weight.points >= lo) & (weight.points < hi), axis=1)
        if not np.any(inside):
            return 0.0
        return float(np.max(1.0 / weight.values[inside]))
    raise TypeError(f"unknown weight {type(weight)!r}")


def ap_constant(weight: Weight, p: float, box, depth: int) -> float:
    """Muckenhoupt constant estimate over the dyadic cubes of a box.

    All dyadic subdivisions of the box at levels 0..depth enter the
    supremum of the averaged bracket.  Divergent power integrals at the
    origin are truncated at half the finest leaf side, so a weight outside
    the class shows up as an estimate growing with depth rather than an
    immediate overflow.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    lo = np.atleast_1d(np.asarray(box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(box[1], dtype=float))
    n = len(lo)
    eps = float(np.min(hi - lo)) * 2.0 ** (-depth) / 2.0
    best = 0.0
    for level in range(depth + 1):
        cells = 2**level
        steps = (hi - lo) / cells
        for index in np.ndindex(*([cells] * n)):
            clo = lo + np.asarray(index) * steps
            chi = clo + steps
            vol = float(np.prod(steps))
            mean_w = _weight_cube_integral(weight, 1.0, clo, chi, eps) / vol
            if p == 1:
                bracket = mean_w * _weight_cube_supremum_inverse(
                    weight, clo, chi, eps)
            else:
                pprime = p / (p - 1.0)
                dual = _weight_cube_integral(
                    weight, 1.0 - pprime, clo, chi, eps) / vol
                if not math.isfinite(dual):
                    raise ValueError(
                        "non-integrable dual weight power on a cube; "
                        "the weight is outside A_p numerically"
                    )
                bracket = mean_w * dual ** (p - 1.0)
            best = max(best, bracket)
    return best


def holder_defect(f: SampledField, g: SampledField, q: float) -> float:
    """int |fg| minus the Lebesgue Hoelder bound (nonpositive up to slack)."""
    if f.grid is not g.grid and not np.array_equal(f.grid.points,
                                                   g.grid.points):
        raise ValueError("fields must share a grid")
    if q <= 1:
        raise ValueError("q must lie in (1, inf)")
    w = f.grid.weights
    qprime = q / (q - 1.0)
    lhs = float(np.sum(w * np.abs(f.values * g.values)))
    rhs = _lebesgue_norm(q, w, f.values) * _lebesgue_norm(qprime, w, g.values)
    return lhs - rhs
