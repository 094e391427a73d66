"""Function-space norm engines for sampled fields on bounded domains.

Each space is a spec dataclass (`Lebesgue`, `Morrey`, ...; `SPACES` maps
their config kinds to them) that carries its own behaviour: its report
label, whether its norm is absolutely continuous, and `norm(grid,
values)`, the discrete version of its norm for a (B, N) stack of fields
on one grid.  Work that depends only on the grid is done once per stack:
ball lists, distances, annuli, cube labels, ball spectra, exponents.
Integrals become weighted sums over cells, suprema over balls or centers
become maxima over a declared finite search family, Luxemburg-type norms
are found by a bracketed root solve on the scale parameter (a bracket
from the Orlicz types, closed by Illinois regula falsi, every field and
center of a stack in one solve), and rearrangement-based norms sort
values carrying their cell weights.  Every Luxemburg norm (Orlicz,
variable exponent, and Orlicz-slice's balls and |B_t| denominator unless
Phi is a power) sums one modular, `_luxemburg_sum`, in which cells of
zero weight count for nothing.  With a power Phi = t^q the slice's ones
have closed forms, (sum_B w|f|^q)^(1/q) and |B_t|^(1/q); on lattice
grids its ball sums take one offset pass in a `geometry._LatticeBox`
(`geometry._lattice_balls`), which adds the balls' terms in the order
and with the bits of the neighbour list's `bincount`, and on point
clouds each block of the neighbour list's balls is summed by one
`bincount`: one route per grid, where only a ball over the whole grid
keeps the tree-free list.  Ball sums come from closed balls.
On lattice grids Morrey's balls are integer ones, |o|^2 <=
floor((rho/h)^2) for the integer offset o, so no pair at exactly rho is
decided by round-off; each of its 12 rungs' sums is an FFT correlation of
|f|^r w with the ball where that costs less than the distance block (the
split of convolution-based nonlocal solvers; Jafarzadeh, Wang, Larios &
Bobaru, CMAME 375 (2021) 113633), taken only for the rungs whose
transform-free cap can beat the best value so far, and otherwise every
block of centers masks one block of integer squared distances per rung
for all fields of the stack.  Point clouds keep the test |x - y|^2 <=
rho^2 on their coordinates.  Orlicz-slice's single radius keeps the
neighbour list's float test at every pair its integer offset cannot
decide: on lattices a pair at exactly t up to round-off is tested on its
coordinates, as `geometry._ball_pairs`, the package's k-d tree neighbour
list, tests it.
Besov-Bourgain-Morrey labels the occupied dyadic cubes of every level
with one `lexsort` and sums them all with one `bincount`, and the Herz
norms sum the annuli of a block of centers with one `bincount`.
All engines depend on |f| only and are positively homogeneous.
`norm(spec, field)` is the checked entry point, and `norm(spec, grid,
values)` its stacked form: it rejects stacks of the wrong shape,
non-finite values and grids the spec cannot measure on, then calls the
spec's engine once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, ClassVar, Union

import numpy as np
from scipy.spatial import cKDTree

from .field import SampledField, read_csv_table
from .geometry import (_BALL_MARGIN, _FFT_GUARD, QuadratureGrid, _LatticeBox,
                       _ball_pairs, _column_extents, _lattice_balls,
                       _lattice_cells, _sq_distances)

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
    "SPACES",
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
        if not 0 < self.q < math.inf:
            raise ValueError("power Orlicz function needs finite q > 0")

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

    def __post_init__(self):
        if not 0 < self.q < math.inf:
            raise ValueError("power-log Orlicz function needs finite q > 0")

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
        if not (np.all(ts > 0) and np.all(vals >= 0)):  # NaN fails too
            raise ValueError("table entries must be positive")
        if vals[-1] <= vals[-2]:
            raise ValueError("table must keep growing at its upper end "
                             "(an Orlicz function is unbounded)")
        if not 0 < self.declared_lower_type <= self.declared_upper_type:
            raise ValueError("table types need 0 < lower <= upper")
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
    table = read_csv_table(path, 2, "t, Phi(t)")
    return TableOrlicz(table[:, 0], table[:, 1], lower_type, upper_type)


# ---------------------------------------------------------------------------
# Weights

@dataclass(frozen=True)
class ConstantWeight:
    c: float = 1.0

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError("weight must be positive and finite")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.full(np.atleast_2d(pts).shape[0], self.c)

    def cube_integral(self, power: float, lo: np.ndarray, hi: np.ndarray,
                      eps: float) -> float:
        """int_Q omega^power over the cube Q = [lo, hi)."""
        return self.c**power * float(np.prod(hi - lo))

    def cube_supremum_inverse(self, lo: np.ndarray, hi: np.ndarray,
                              eps: float) -> float:
        """esssup of 1/omega on the cube (for the A_1 bracket)."""
        return 1.0 / self.c


@dataclass(frozen=True)
class PowerWeight:
    """omega(x) = |x|^a, locally integrable for a > -n."""

    a: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError("power weight needs a finite a")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        with np.errstate(divide="ignore"):
            return r**self.a

    def cube_integral(self, power: float, lo: np.ndarray, hi: np.ndarray,
                      eps: float) -> float:
        """Truncated at the ball of radius eps when divergent."""
        return _power_cube_integral(self.a * power, lo, hi, eps)

    def cube_supremum_inverse(self, lo: np.ndarray, hi: np.ndarray,
                              eps: float) -> float:
        if self.a >= 0:
            nearest = np.linalg.norm(np.clip(0.0, lo, hi))
            return max(nearest, eps) ** (-self.a)
        farthest = max(
            np.linalg.norm(np.where(np.asarray(corner) == 0, lo, hi))
            for corner in np.ndindex(*([2] * len(lo)))
        )
        return farthest ** (-self.a)


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
        if not np.all(vals > 0):  # NaN fails too
            raise ValueError("weight must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        tree = cKDTree(self.points)
        _, idx = tree.query(np.atleast_2d(pts))
        return self.values[idx]

    def _values_in(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        inside = np.all((self.points >= lo) & (self.points < hi), axis=1)
        return self.values[inside]

    def cube_integral(self, power: float, lo: np.ndarray, hi: np.ndarray,
                      eps: float) -> float:
        """Sample mean of omega^power times |Q|; 0 on a cube without samples."""
        vals = self._values_in(lo, hi)
        if not len(vals):
            return 0.0
        return float(np.mean(vals**power) * np.prod(hi - lo))

    def cube_supremum_inverse(self, lo: np.ndarray, hi: np.ndarray,
                              eps: float) -> float:
        vals = self._values_in(lo, hi)
        return float(np.max(1.0 / vals)) if len(vals) else 0.0


Weight = Union[ConstantWeight, PowerWeight, GridWeight]


def weight_from_csv(path, dimension: int) -> GridWeight:
    """Read a grid weight from CSV rows x1..xn, omega."""
    table = read_csv_table(path, dimension + 1, "x1..xn, omega")
    return GridWeight(table[:, :dimension], table[:, dimension])


# ---------------------------------------------------------------------------
# Space specifications

class SpaceSpec:
    """A function space and its behaviour.  Subclasses are dataclasses
    whose fields are the `space.*` config keys besides `kind`, their name
    in `SPACES`; `label` names them in reports; `absolutely_continuous` is
    False where exact limit claims must be disabled (Morrey, global Herz:
    only two-sided bounds hold); `norm(grid, values)` is the engine behind
    `spaces.norm`: it takes a (B, N) stack of finite values on the N
    points of `grid` and returns their B norms.  `spaces.norm` first
    rejects bad stacks and grids the spec cannot measure on
    (`check_grid`)."""

    kind: ClassVar[str]
    absolutely_continuous: ClassVar[bool] = True

    def check_grid(self, grid: QuadratureGrid) -> None:
        """Raise a ValueError if `norm` cannot run on `grid`."""

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Lebesgue(SpaceSpec):
    kind = "lebesgue"
    label = property(lambda self: f"lebesgue(q={self.q:g})")
    q: float

    def __post_init__(self):
        if not 1 <= self.q < math.inf:
            raise ValueError("Lebesgue exponent must lie in [1, inf)")

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        return _lebesgue_norm(self.q, grid.weights, values)


@dataclass(frozen=True)
class WeightedLebesgue(SpaceSpec):
    kind = "weighted"
    label = property(lambda self: f"weighted(q={self.q:g}, "
                     f"{type(self.weight).__name__})")
    q: float
    weight: Weight = dc_field(default_factory=ConstantWeight)

    def __post_init__(self):
        if not 1 <= self.q < math.inf:
            raise ValueError("weighted Lebesgue exponent must lie in [1, inf)")

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        return _lebesgue_norm(self.q, grid.weights * self.weight(grid.points),
                              values)


@dataclass(frozen=True)
class Lorentz(SpaceSpec):
    kind = "lorentz"
    label = property(lambda self: f"lorentz(r={self.r:g}, tau={self.tau:g})")
    r: float
    tau: float

    def __post_init__(self):
        if not (1 < self.r < math.inf and 0 < self.tau < math.inf):
            raise ValueError("Lorentz space needs finite r > 1 and tau > 0")

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        levels, breaks = _rearranged(grid.weights, values)
        # the first level is the field's largest |f| on positive weight; a
        # grid without positive weight has no level, and scale 1
        scale = _row_scales(1.0, levels[:, :1])
        levels = levels / scale[:, None]
        r, tau = self.r, self.tau
        t = np.concatenate([np.zeros((len(breaks), 1)), breaks], axis=1)
        incr = t[:, 1:] ** (tau / r) - t[:, :-1] ** (tau / r)
        total = np.sum(levels**tau * (r / tau) * incr, axis=1)
        return total ** (1.0 / tau) * scale


@dataclass(frozen=True)
class OrliczSpace(SpaceSpec):
    kind = "orlicz"
    label = property(lambda self: f"orlicz({type(self.phi).__name__})")
    phi: OrliczFunction

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        return _luxemburg_sum(grid.weights, values, self.phi,
                              self.phi.lower_type, self.phi.upper_type)


@dataclass(frozen=True)
class Morrey(SpaceSpec):
    """alpha >= r; the ball supremum runs over a fixed documented ladder."""

    kind = "morrey"
    label = property(
        lambda self: f"morrey(alpha={self.alpha:g}, r={self.r:g})")
    absolutely_continuous = False
    alpha: float
    r: float

    def __post_init__(self):
        if not 1 < self.r <= self.alpha < math.inf:
            raise ValueError("Morrey space needs 1 < r <= alpha < inf")

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        """Max over balls centered at grid points, radii on a geometric
        ladder from 2h to the diameter (12 rungs).  The top rung covers the
        whole domain, so alpha = r gives the Lebesgue norm to round-off.

        Balls are closed.  On lattice grids a cell lies in the ball of
        radius rho iff its integer offset o has |o|^2 <= k_rho =
        floor((rho/h)^2 (1 + _BALL_MARGIN)), an exact test that keeps
        every pair at exactly rho and does not move under translation; the
        sums are FFT correlations where they cost less than the distance
        block (see _BALL_FFT_COST), and each field visits only the rungs
        that can win (`_fft_ladder_maxima`).  Point clouds test |x - y|^2
        <= rho^2 on their coordinates.  The FFT guard is decided per field,
        and the fields it rejects share the distance blocks."""
        n = grid.dimension
        scale = _row_scales(grid.weights, values)
        power = np.abs(values / scale[:, None]) ** self.r * grid.weights
        radii, coords, bounds, box, counts = _morrey_ladder(grid)
        vol_factors = (unit_ball_volume(n) * radii**n) ** (
            1.0 / self.alpha - 1.0 / self.r)
        out = np.zeros(len(values))
        on_block = np.ones(len(values), dtype=bool)
        if counts is not None:
            for k, (best, best_sum, error) in enumerate(_fft_ladder_maxima(
                    box, power, bounds, counts, vol_factors, self.r)):
                out[k] = best
                # the maximising sum must be far above the FFT's round-off
                on_block[k] = error > _FFT_GUARD * best_sum
        rows = np.flatnonzero(on_block)
        step = max(1, _STACK_ENTRIES // min(len(grid), _BALL_BLOCK))
        for first in range(0, len(rows), step):
            group = rows[first:first + step]
            best = np.zeros(len(group))
            for rung, sums in _ladder_ball_sums(coords, power[group], bounds):
                cand = vol_factors[rung] * sums ** (1.0 / self.r)
                best = np.maximum(best, cand.max(axis=0, initial=0.0))
            out[group] = best
        return out * scale


@dataclass(frozen=True, eq=False)
class VariableLebesgue(SpaceSpec):
    """Exponent field r(.) with 1 < ess inf <= ess sup < infinity."""

    kind = "variable"
    label = "variable"
    exponent: Union[float, Callable[[np.ndarray], np.ndarray]]

    def __post_init__(self):
        # a constant exponent is checked here, a callable one on each grid
        if not (callable(self.exponent)
                or 1 < float(self.exponent) < math.inf):
            raise ValueError("variable exponent must stay finite and above 1")

    def exponents(self, pts: np.ndarray) -> np.ndarray:
        if callable(self.exponent):
            return np.asarray(self.exponent(pts), dtype=float)
        return np.full(np.atleast_2d(pts).shape[0], float(self.exponent))

    def check_grid(self, grid: QuadratureGrid) -> None:
        r = self.exponents(grid.points)
        if not np.all((r > 1) & (r < math.inf)):
            raise ValueError("variable exponent must stay finite and above 1")

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        r = self.exponents(grid.points)
        return _luxemburg_sum(grid.weights, values, lambda x: x ** r,
                              r.min(), r.max())


@dataclass(frozen=True)
class MixedLebesgue(SpaceSpec):
    kind = "mixed"
    label = property(lambda self: f"mixed{self.rvec}")
    rvec: tuple

    def __post_init__(self):
        object.__setattr__(self, "rvec", tuple(
            float(r) for r in np.atleast_1d(self.rvec)))
        if not all(1 <= r < math.inf for r in self.rvec):
            raise ValueError("mixed exponents must lie in [1, inf)")

    def check_grid(self, grid: QuadratureGrid) -> None:
        if grid.axes is None:
            raise ValueError("mixed norm requires a tensor-product grid")
        if len(self.rvec) != len(grid.axes):
            raise ValueError("mixed exponent count must match the dimension")

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        axes = grid.axes
        shape = tuple(len(ax[0]) for ax in axes)
        scale = _row_scales(grid.weights, values)
        a = np.abs(values / scale[:, None]).reshape((len(values),) + shape)
        for (coords, w), r in zip(axes, self.rvec):
            a = np.tensordot(w, a**r, axes=(0, 1)) ** (1.0 / r)
        return a * scale


@dataclass(frozen=True)
class HerzLocal(SpaceSpec):
    """Local generalized Herz norm with power weight omega(t) = t^a."""

    kind = "herz_local"
    label = property(lambda self: f"herz_local(p={self.p:g}, "
                     f"q={self.q:g}, a={self.a:g})")
    p: float
    q: float
    a: float
    xi: tuple = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(
            float(c) for c in np.atleast_1d(self.xi)))
        if not (1 < self.p < math.inf and 1 < self.q < math.inf
                and math.isfinite(self.a) and np.all(np.isfinite(self.xi))):
            raise ValueError("Herz needs p, q in (1, inf), finite a and xi")

    def check_grid(self, grid: QuadratureGrid) -> None:
        if len(self.xi) != grid.dimension:
            raise ValueError("Herz center dimension mismatch")

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        return _herz_norms(self, grid, values, np.array([self.xi]))[:, 0]


@dataclass(frozen=True)
class HerzGlobal(SpaceSpec):
    kind = "herz_global"
    label = property(lambda self: f"herz_global(p={self.p:g}, "
                     f"q={self.q:g}, a={self.a:g})")
    absolutely_continuous = False
    p: float
    q: float
    a: float

    def __post_init__(self):
        if not (1 < self.p < math.inf and 1 < self.q < math.inf
                and math.isfinite(self.a)):
            raise ValueError("Herz space needs p, q in (1, inf), finite a")

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        """Sup over centers sampled on a bounding-box lattice; a documented
        lower bound of the true supremum over all centers."""
        lo, hi = _column_extents(grid.points)
        span = float(np.max(hi - lo))
        step = max(grid.h, span / 12.0)
        axes = [np.arange(lo[j], hi[j] + step / 2, step)
                for j in range(grid.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([m.ravel() for m in mesh], axis=-1)
        return _herz_norms(self, grid, values, centers).max(axis=1)


@dataclass(frozen=True)
class BesovBourgainMorrey(SpaceSpec):
    """Triple dyadic sum, truncated to scales j in [j_min, j_max]."""

    kind = "bbmorrey"
    label = property(lambda self: f"bbmorrey(q={self.q:g}, p={self.p:g}, "
                     f"r={self.r:g}, tau={self.tau:g})")
    q: float
    p: float
    r: float
    tau: float
    j_min: int = -8
    j_max: int = 8

    def __post_init__(self):
        if not (1 <= self.q <= self.p <= self.r < math.inf):
            raise ValueError("Besov-Bourgain-Morrey needs q <= p <= r")
        if not 1 <= self.tau < math.inf:
            raise ValueError("tau must lie in [1, inf)")
        for name in ("j_min", "j_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.j_min > self.j_max:
            raise ValueError(f"j_min must be <= j_max, got "
                             f"{self.j_min} > {self.j_max}")

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        """All levels' cube sums come from one `bincount` over the labels
        of `_dyadic_cube_labels`, for a group of fields at a time; a
        level's terms keep the lexicographic order of its cubes."""
        n = grid.dimension
        # cubes finer than the grid spacing carry no information
        j_hi = min(self.j_max, int(math.floor(-math.log2(grid.h))))
        j_hi = max(j_hi, self.j_min)
        levels = np.arange(self.j_min, j_hi + 1)
        # every level with 2^j max|x| < 1 parts the points by sign alone,
        # so the levels below the finest such one reuse its cubes
        sign_only = -math.frexp(float(np.max(np.abs(grid.points))))[1]
        shared = min(max(sign_only - self.j_min, 0), len(levels) - 1)
        labels, level_of = _dyadic_cube_labels(grid.points, levels[shared:])
        first = np.count_nonzero(level_of == 0)
        cube_level = np.concatenate([np.repeat(np.arange(shared + 1), first),
                                     level_of[first:] + shared])
        vol = 2.0 ** (-levels * n)
        scale = vol[cube_level] ** (1.0 / self.p - 1.0 / self.q)
        field_scale = _row_scales(grid.weights, values)
        aq = np.abs(values / field_scale[:, None]) ** self.q * grid.weights
        out = np.empty(len(aq))
        step = max(1, _STACK_ENTRIES // labels.size)
        for start in range(0, len(aq), step):
            group = slice(start, start + step)
            sums = _stacked_bincount(labels.ravel(),
                                     np.tile(aq[group], len(labels)),
                                     len(level_of))
            sums = np.concatenate([np.tile(sums[:, :first], shared + 1),
                                   sums[:, first:]], axis=1)
            terms = scale * sums ** (1.0 / self.q)
            inner = _stacked_bincount(cube_level, terms**self.r,
                                      len(levels)) ** (self.tau / self.r)
            out[group] = np.sum(inner, axis=1) ** (1.0 / self.tau)
        return out * field_scale


@dataclass(frozen=True)
class OrliczSlice(SpaceSpec):
    kind = "orlicz_slice"
    label = property(
        lambda self: f"orlicz_slice(r={self.r:g}, t={self.t:g})")
    phi: OrliczFunction
    r: float
    t: float

    def __post_init__(self):
        if not (1 <= self.r < math.inf and 0 < self.t < math.inf):
            raise ValueError("Orlicz-slice needs finite r >= 1 and t > 0")

    def norm(self, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
        """A power Phi = t^q has the ratio (sum_B w|f|^q / |B_t|)^(1/q),
        its ball sums from `_ball_sums`: one offset pass on lattice grids,
        with the bits of the neighbour list's sums, and the neighbour list
        on point clouds; only a ball over the whole grid keeps the
        tree-free list on a lattice.  Any other Phi takes its balls from
        the neighbour list, pads each block's balls to its largest with
        zero weight and solves them in one Luxemburg solve, a group of
        fields at a time.  The power sums, a power Phi's ball sums and for
        every Phi the sum of w ratio^r, run at the scale of `_row_scales`."""
        w, n = grid.weights, grid.dimension
        scale = _row_scales(w, values)
        if isinstance(self.phi, PowerOrlicz):
            q = self.phi.q
            power = np.abs(values / scale[:, None]) ** q * w
            ratios = (_ball_sums(grid, power, self.t)
                      / (unit_ball_volume(n) * self.t**n)) ** (1.0 / q)
        else:
            ratios = np.zeros(values.shape)
            for block, rows, cols, _ in _ball_pairs(
                    grid.points, np.arange(len(grid)), self.t):
                # the rows are sorted: a pair's slot is its place in its row
                slot = np.arange(len(rows)) - np.searchsorted(rows, rows)
                ball = np.zeros((block.stop - block.start, slot.max() + 1),
                                dtype=np.intp)
                ball[rows, slot] = cols
                w_ball = np.zeros(ball.shape)
                w_ball[rows, slot] = w[cols]
                step = max(1, _STACK_ENTRIES // len(rows))
                for first in range(0, len(values), step):
                    fields = slice(first, first + step)
                    ratios[fields, block] = _luxemburg_sum(
                        w_ball, values[fields][:, ball], self.phi,
                        self.phi.lower_type, self.phi.upper_type)
            # every ratio at its field's scale, so that ratio^r stays in range
            ratios /= _slice_denominator(self.phi, self.t, n)
            ratios /= scale[:, None]
        return np.sum(w * ratios**self.r, axis=1) ** (1.0 / self.r) * scale


SPACES = {cls.kind: cls for cls in (
    Lebesgue, WeightedLebesgue, Lorentz, OrliczSpace, Morrey,
    VariableLebesgue, MixedLebesgue, HerzLocal, HerzGlobal,
    BesovBourgainMorrey, OrliczSlice,
)}


def norm(spec: SpaceSpec, field, values=None):
    """The discrete norm of `field` in the space `spec`.

    `norm(spec, grid, values)` measures a stack of fields on one grid:
    for (B, N) values on the grid's N points it returns the B norms as an
    array, and for one field's (N,) values its norm.  The grid is checked
    once per stack, and a field is a stack of one."""
    if values is None:
        grid, values = field.grid, field.values
    else:
        grid = field
    stack = np.asarray(values, dtype=float)
    if stack.ndim > 2:
        raise ValueError(f"values must be one field (N,) or a stack "
                         f"(B, N), got shape {stack.shape}")
    if stack.shape[-1:] != (len(grid),):
        raise ValueError("values length must match the grid")
    if not np.all(np.isfinite(stack)):
        raise ValueError("field has non-finite values")
    spec.check_grid(grid)
    if stack.ndim == 1:
        return float(spec.norm(grid, stack[None, :])[0])
    if not len(stack):
        return np.zeros(0)  # engines take B >= 1 fields
    return spec.norm(grid, stack)


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
    levels, breaks = _rearranged(field.grid.weights, field.values[None, :])
    return StepFunction(levels[0], breaks[0])


def _rearranged(w: np.ndarray, values: np.ndarray):
    """(levels, breakpoints) of the decreasing rearrangement of each row
    of `values`: cells of zero weight dropped, |values| sorted descending
    (stable), and their cell weights cumulated."""
    keep = w > 0
    vals = np.abs(values[:, keep])
    order = np.argsort(-vals, axis=1, kind="stable")
    return (np.take_along_axis(vals, order, axis=1),
            np.cumsum(w[keep][order], axis=1))


# ---------------------------------------------------------------------------
# Luxemburg solve

# relative bracket width at which a Luxemburg solve stops
_LUXEMBURG_RTOL = 1e-15
# the least positive (subnormal) float
_TINY = math.ulp(0.0)


def _luxemburg(modular: Callable[[np.ndarray, np.ndarray], np.ndarray],
               lam0: np.ndarray, lower_type: float = 1.0,
               upper_type: float = math.inf) -> np.ndarray:
    """Vectorized inf{lam > 0 : M(lam) <= 1} for non-increasing modulars
    M, one per component.  `modular(lam, which)` returns the modulars of
    the components `which` (an index array) at the scales `lam`; the solve
    asks only for components whose bracket is still open, so the slowest
    component does not set the cost of the others.  lam0 is a positive
    starting scale per component (zero marks a zero norm).  The types
    bound how the modular scales:
    s^lower_type <= M(lam / s) / M(lam) <= s^upper_type for s >= 1.

    By the types, the root lies in lam0 * m0^[1/upper_type, 1/lower_type]
    with m0 = M(lam0).  Declared types are not verified, so the bracket is
    widened by two ulps, checked, and doubled or halved until
    M(hi) <= 1 < M(lo).  Illinois regula falsi (Dowell & Jarratt, BIT 11,
    1971) then closes it to hi - lo <= 1e-15 hi (or, among subnormals, to
    adjacent floats), interpolating in (log lam, log M), which is exact
    for power modulars.  The bracket stays
    in lam: past lam ~ e^8 the spacing of log lam exceeds 1e-15 relative,
    so a bracket in log lam could not close."""
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=float))
    out = np.zeros_like(lam0)
    # the arrays below hold the active components only
    active = np.flatnonzero(lam0 > 0)
    if not len(active):
        return out
    start = lam0[active]
    ulp = np.finfo(float).eps
    with np.errstate(all="ignore"):
        m0 = modular(start, active)
        ends = start * m0 ** (1.0 / np.array([[upper_type], [lower_type]]))
        ends = np.where(np.isfinite(ends) & (ends > 0), ends, start)
        lo = ends.min(axis=0) * (1.0 - 2.0 * ulp)
        hi = ends.max(axis=0) * (1.0 + 2.0 * ulp)
        m_lo, m_hi = modular(lo, active), modular(hi, active)
        while len(grow := np.flatnonzero(m_hi > 1.0)):
            lo[grow], m_lo[grow] = hi[grow], m_hi[grow]
            hi[grow] *= 2.0
            m_hi[grow] = modular(hi[grow], active[grow])
        while len(shrink := np.flatnonzero(~(m_lo > 1.0) & (lo > 0))):
            hi[shrink], m_hi[shrink] = lo[shrink], m_lo[shrink]
            lo[shrink] *= 0.5
            m_lo[shrink] = modular(lo[shrink], active[shrink])
        y_lo, y_hi = np.log(m_lo), np.log(m_hi)
        moved = np.zeros(len(lo))  # +1: hi moved last step, -1: lo moved
        # the width test and the step's margin never fall below the least
        # subnormal, where 1e-15 hi underflows: each step then moves an end,
        # and a bracket of adjacent floats is closed
        while len(o := np.flatnonzero(
                hi - lo > np.maximum(_LUXEMBURG_RTOL * hi, _TINY))):
            lo_o, hi_o, yl, yh = lo[o], hi[o], y_lo[o], y_hi[o]
            x_lo, x_hi = np.log(lo_o), np.log(hi_o)
            lam = np.exp(x_hi - yh * (x_hi - x_lo) / (yh - yl))
            # bisect where an end's log is infinite or undefined
            lam = np.where(np.isfinite(x_lo + yl + yh), lam,
                           0.5 * (lo_o + hi_o))
            tol = np.maximum(0.5 * _LUXEMBURG_RTOL * hi_o, _TINY)
            lam = np.clip(lam, lo_o + tol, hi_o - tol)
            m = modular(lam, active[o])
            below = m <= 1.0
            # Illinois: an end kept twice in a row has its residual halved
            yl = np.where(below & (moved[o] > 0), 0.5 * yl, yl)
            yh = np.where(~below & (moved[o] < 0), 0.5 * yh, yh)
            y_m = np.log(m)
            hi[o] = np.where(below, lam, hi_o)
            y_hi[o] = np.where(below, y_m, yh)
            lo[o] = np.where(below, lo_o, lam)
            y_lo[o] = np.where(below, yl, y_m)
            moved[o] = np.where(below, 1.0, -1.0)
    out[active] = 0.5 * (lo + hi)
    return out


# ---------------------------------------------------------------------------
# Shared engine pieces

def _row_scales(w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """2^e for each field along the last axis of `vals`, e from `np.frexp`
    of its largest |f| on positive weight (1 for a field without any).
    A power sum of f / 2^e, scaled back by 2^e after its root, neither
    overflows nor underflows where the field's own would, and the division
    is exact: at exponent 2 the norm keeps every bit."""
    top = np.max(np.abs(vals) * (w > 0), axis=-1, initial=0.0)
    return np.ldexp(1.0, np.frexp(top)[1])


def _lebesgue_norm(q: float, w: np.ndarray, vals: np.ndarray):
    """(sum w |f|^q)^(1/q) of each field along the last axis of `vals`,
    summed at the scale of `_row_scales`."""
    scale = _row_scales(w, vals)
    return np.sum(w * np.abs(vals / scale[..., None]) ** q,
                  axis=-1) ** (1.0 / q) * scale


def _luxemburg_sum(w, vals: np.ndarray,
                   phi: Callable[[np.ndarray], np.ndarray],
                   lower_type: float, upper_type: float) -> np.ndarray:
    """inf{lam > 0 : sum w phi(|f| / lam) <= 1} for each row f along the
    last axis of `vals`, all rows in one solve: an array of shape
    vals.shape[:-1].  The weights `w` broadcast against the rows (one row
    shared by all, or one per row), and phi acts elementwise on |f| / lam
    with the given types.  Points of zero weight count for nothing, and
    the start scale is the largest |f| on positive weight, so a row
    without mass there has norm exactly 0."""
    a = np.abs(vals) * (w > 0)
    w = np.broadcast_to(w, a.shape).reshape(-1, a.shape[-1])
    shape, a = a.shape[:-1], a.reshape(w.shape)

    def modular(lam, which):
        # no copies where every row is asked for
        rows = slice(None) if len(which) == len(a) else which
        return np.sum(w[rows] * phi(a[rows] / lam[:, None]), axis=1)

    return _luxemburg(modular, a.max(axis=1, initial=0.0), lower_type,
                      upper_type).reshape(shape)


def _stacked_bincount(labels: np.ndarray, weights: np.ndarray,
                      size: int) -> np.ndarray:
    """Per row of the (B, M) `weights`, its sums into `size` bins by the
    M `labels`: a (B, size) array from one `bincount`, each bin summed in
    label order as a row's own `bincount` sums it."""
    offsets = np.arange(len(weights))[:, None] * size
    return np.bincount((labels + offsets).ravel(), weights=weights.ravel(),
                       minlength=len(weights) * size).reshape(-1, size)


# centers per block of distance rows (bounds their memory)
_BALL_BLOCK = 256
# entries of the (fields x pairs) or (centers x fields) arrays a stacked
# call works on at once; a larger stack is taken in groups of fields, so
# that its memory stays near that of one field's call
_STACK_ENTRIES = 2**14


def _ladder_ball_sums(pts: np.ndarray, power: np.ndarray,
                      bounds: np.ndarray):
    """Sums of each row of the (B, N) `power` over the closed balls
    |x - y|^2 <= bound around every point: for each block of _BALL_BLOCK
    centers, in order, and each rung k of `bounds`, (k, sums) with sums of
    shape (block, B), or (block,) for one (N,) row.  Each block computes
    its squared distances to all points once (`geometry._sq_distances`),
    and each rung's sums are one masked product with that block for all
    fields."""
    for start in range(0, len(pts), _BALL_BLOCK):
        d2 = _sq_distances(pts[start:start + _BALL_BLOCK], pts)
        for rung, bound in enumerate(bounds):
            yield rung, (d2 <= bound) @ power.T


def _ball_sums(grid: QuadratureGrid, power: np.ndarray,
               radius: float) -> np.ndarray:
    """Sums of each row of the (B, N) `power` over the closed balls
    |x - y| <= radius around every point of `grid`, a group of fields at
    a time: by one offset pass on lattice grids (`geometry._lattice_balls`),
    and on point clouds, or where every ball holds every point, from
    `geometry._ball_pairs`, one `bincount` per block.  Both add a ball's
    terms to 0.0 in column order, the offset pass with an exact 0.0 for
    each neighbour off the grid or out of the ball, so on a lattice whose
    columns run in its offsets' lexicographic order, as every
    `sample_quadrature` lattice does, they agree bit for bit."""
    balls = None if grid.lattice is None else _lattice_balls(grid, radius)
    if balls is None:
        sums = np.zeros(power.shape)
        for block, rows, cols, _ in _ball_pairs(grid.points,
                                                np.arange(len(grid)), radius):
            step = max(1, _STACK_ENTRIES // len(rows))
            for first in range(0, len(power), step):
                fields = slice(first, first + step)
                sums[fields, block] = _stacked_bincount(
                    rows, power[fields][:, cols], block.stop - block.start)
        return sums
    box, moves = balls
    sums = np.empty(power.shape)
    step = max(1, _STACK_ENTRIES // box.size)
    for first in range(0, len(power), step):
        fields = slice(first, first + step)
        placed = box.place(power[fields])
        acc = np.zeros(placed.shape)
        for start, stop, shift, keep in moves:
            near = placed[:, start + shift:stop + shift]
            acc[:, start:stop] += near if keep is None \
                else np.where(keep, near, 0.0)
        sums[fields] = acc[:, box.at]
    return sums


# Morrey's ball sums on a lattice grid are FFT correlations when the
# distance block's N^2 entries per rung exceed _BALL_FFT_COST B log2 B per
# rung, for B FFT cells.  Measured on 2 vCPUs with one BLAS thread over
# 1-d, 2-d and 3-d lattices of N = 24 to 8,000 cells, Morrey(3, 2): the
# block took 1.4 to 25 ns per entry, the FFT 1.2 to 35 ns per B log2 B,
# and their ratio ran from 0.7 to 4.9; the largest is kept, rounded up
_BALL_FFT_COST = 5.0


def _morrey_ladder(grid: QuadratureGrid):
    """(radii, coords, bounds, box, counts) of the Morrey ladder on
    `grid`: 12 radii on a geometric ladder from 2h to the diameter, and
    the coordinates and squared radii the balls test.  Point clouds test
    their points against radii**2 and have no box.  Lattice grids test
    their indices against k_rho, in a box that no ball wraps across.
    Where the FFT costs less than the distance block (_BALL_FFT_COST),
    counts holds per rung how many integer offsets |o|^2 <= k_rho lie
    within the box's reach, no fewer than any ball's cells; elsewhere it
    is None."""
    pts = grid.points
    lo, hi = _column_extents(pts)
    diam = float(np.linalg.norm(hi - lo)) + grid.h
    radii = np.geomspace(min(2.0 * grid.h, diam), diam, 12)
    if grid.lattice is None:
        return radii, pts, radii**2, None, None
    cells, extent = _lattice_cells(grid.lattice)
    box = _LatticeBox(cells, extent, extent - 1)
    bounds = np.floor((radii / grid.h) ** 2 * (1.0 + _BALL_MARGIN))
    if not box.worth(len(grid) ** 2, 1, _BALL_FFT_COST):
        return radii, grid.lattice, bounds, box, None
    sq = sum(np.ix_(*(np.arange(-r, r + 1) ** 2 for r in box.reach)))
    counts = np.array([np.count_nonzero(sq <= k) for k in bounds])
    return radii, grid.lattice, bounds, box, counts


def _fft_ball_sums(box: _LatticeBox, power: np.ndarray, bounds: np.ndarray):
    """Sums of each row of the (K, N) `power` over the integer balls
    |o|^2 <= bound around every cell of `box`, by FFT: yields, row by row,
    (sums, error), sums(j) the row's (N,) sums over ball j, clipped at
    zero and taken before the next row, and error = eps log2(B) times the
    row's sum.  A ball's spectrum is transformed when a row first asks
    for it and kept for the later rows.  The balls are symmetric, so each
    correlation is a convolution with a ball and needs no conjugate."""
    spectra = [None] * len(bounds)
    for row in power:
        transform = box.spectra(row)

        def sums(j, transform=transform):
            if spectra[j] is None:
                spectra[j] = box.ball_spectra(bounds[j:j + 1])[0]
            return np.maximum(box.at_cells(spectra[j] * transform), 0.0)

        yield sums, box.eps_log * row.sum()


def _fft_ladder_maxima(box: _LatticeBox, power: np.ndarray,
                       bounds: np.ndarray, counts: np.ndarray,
                       vol_factors: np.ndarray, r: float):
    """Per row of the (K, N) `power`, (best, best_sum, error): the largest
    vol_k (ball sum)^(1/r) over the rungs k and the cells, the ball sum it
    comes from, and the row's error in `_fft_ball_sums`.  No computed sum
    of rung k exceeds the row's total, nor counts[k] times its largest
    term, by more than the error, so vol_k (min(total, counts[k] max +
    error) (1 + _BALL_MARGIN))^(1/r) caps the rung's values, strictly
    where its sums are positive, and takes no transform.  The rungs are
    visited in decreasing cap order, the smaller first on equal caps, up
    to the first cap that cannot beat the best value so far; a tie keeps
    the smaller rung, then the first cell, so best and best_sum are those
    of one argmax over all the rungs."""
    for row, (rung_sums, error) in zip(power,
                                       _fft_ball_sums(box, power, bounds)):
        caps = vol_factors * (np.minimum(
            row.sum(), counts * row.max() + error)
            * (1.0 + _BALL_MARGIN)) ** (1.0 / r)
        best, best_sum, best_rung = -math.inf, 0.0, len(caps)
        for rung in np.argsort(-caps, kind="stable").tolist():
            if caps[rung] <= best:
                break
            sums = rung_sums(rung)
            cand = vol_factors[rung] * sums ** (1.0 / r)
            at = np.argmax(cand)
            if cand[at] > best or (cand[at] == best and rung < best_rung):
                best, best_sum, best_rung = cand[at], sums[at], rung
        yield best, best_sum, error


def _herz_norms(spec, grid: QuadratureGrid, values: np.ndarray,
                centers: np.ndarray) -> np.ndarray:
    """Herz sums of `spec` (p, q, a) over the dyadic annuli around each
    row of `centers`, for each row of the (B, N) `values`: a (B, centers)
    array.  Per block of centers (_BALL_BLOCK // B of them, at least
    one), one offset `bincount` sums every (field, center, annulus)
    triple; a point at a center lies in no annulus, so it adds zero where
    it is labelled.  The sums run at the scale of `_row_scales`."""
    scale = _row_scales(grid.weights, values)
    s = np.abs(values / scale[:, None]) ** spec.p * grid.weights
    out = np.zeros((len(values), len(centers)))
    step = max(1, _BALL_BLOCK // len(values))
    for start in range(0, len(centers), step):
        block = centers[start:start + step]
        d = _sq_distances(block, grid.points)
        d = np.sqrt(d, out=d)
        away = d > 0
        d[~away] = 1.0
        # annulus k holds 2^(k-1) <= |x - xi| < 2^k; the arrays are
        # reused in place so a block stays near Morrey's in memory
        k = np.floor(np.log2(d, out=d), out=d).astype(np.int64) + 1
        k_min = k.min()
        width = k.max() - k_min + 1
        k += np.arange(len(block))[:, None] * width - k_min
        sums = _stacked_bincount(
            k.ravel(), (away * s[:, None, :]).reshape(len(values), -1),
            len(block) * width)
        # only occupied annuli enter: an empty one's weight may overflow
        rows, cols = np.nonzero(sums.reshape(-1, width))
        terms = (2.0 ** ((cols + k_min) * spec.a)) ** spec.q \
            * sums.reshape(-1, width)[rows, cols] ** (spec.q / spec.p)
        out[:, start:start + len(block)] = np.bincount(
            rows, weights=terms, minlength=sums.size // width).reshape(
                len(values), len(block)) ** (1.0 / spec.q)
    return out * scale[:, None]


def _dyadic_cube_labels(pts: np.ndarray, levels: np.ndarray):
    """Label the dyadic cube floor(x 2^j) of every point at every level j
    in `levels`: (labels, level_of), where labels[l, i] is point i's cube
    at level l and level_of[c] the level index of cube c.  Only occupied
    cubes get a label, numbered as one lexsort orders (level, cube index)
    rows: by level, then lexicographically, as `np.unique(axis=0)` orders
    a level's rows.  The indices stay floats: floor(x 2^j) is exact in
    floating point, and no integer cast overflows at a fine level."""
    idx = np.floor(pts[None, :, :] * (2.0 ** levels)[:, None, None])
    rows = idx.reshape(-1, pts.shape[1])
    level = np.repeat(np.arange(len(levels)), len(pts))
    order = np.lexsort((*rows.T[::-1], level))
    rows, level = rows[order], level[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1) | (level[1:] != level[:-1])
    labels = np.empty(len(order), dtype=np.int64)
    labels[order] = np.cumsum(new) - 1
    return labels.reshape(len(levels), len(pts)), level[new]


def _slice_denominator(phi: OrliczFunction, t: float, n: int) -> float:
    """The Luxemburg norm of the indicator of an n-ball of radius t, the
    Orlicz-slice denominator: one cell of weight |B_t| holding 1."""
    return float(_luxemburg_sum(unit_ball_volume(n) * t**n, np.ones(1), phi,
                                phi.lower_type, phi.upper_type))


# ---------------------------------------------------------------------------
# Convexification, Muckenhoupt constants, Hoelder defect

def convexify(spec: SpaceSpec, p: float):
    """Base space of the p-convexification representation of `spec`.

    The returned spec Y satisfies norm(spec, f) = norm(Y, |f|^p)^(1/p),
    i.e. spec = Y^p; for Lebesgue exponents this is q -> q/p.
    """
    if p <= 0:
        raise ValueError("convexification exponent must be positive")
    if spec.kind not in ("lebesgue", "weighted"):
        raise NotImplementedError(
            "convexification implemented for (weighted) Lebesgue specs"
        )
    if spec.q / p < 1:
        raise ValueError("q/p leaves the Banach range [1, inf)")
    return replace(spec, q=spec.q / p)


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
            mean_w = weight.cube_integral(1.0, clo, chi, eps) / vol
            if p == 1:
                bracket = mean_w * weight.cube_supremum_inverse(clo, chi, eps)
            else:
                pprime = p / (p - 1.0)
                dual = weight.cube_integral(1.0 - pprime, clo, chi, eps) / vol
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
    rhs = float(_lebesgue_norm(q, w, f.values)
                * _lebesgue_norm(qprime, w, g.values))
    return lhs - rhs
