"""Independent brute-force references for the derived numbers.

Nothing here imports kernels or norm engines from the modules it checks:
the sphere moment is plain Monte Carlo, the one-dimensional functional is
a sum over the grid's integer offsets, each pair's distance from its
coordinates, with its own inline kernel formulas, and the rearrangement
follows the distribution-function definition without sorting.
"""

from __future__ import annotations

import math

import numpy as np

from .field import TestFunction
from .geometry import Box

__all__ = [
    "mc_sphere_moment",
    "dense_1d_functional",
    "rearrangement_oracle",
]


def mc_sphere_moment(p: float, n: int, samples: int, seed: int = 0) -> float:
    """Surface-measure Monte Carlo estimate of the directional moment.

    Isotropic directions come from normalized Gaussian vectors; the mean of
    |omega_1|^p is scaled by the sphere surface 2 pi^(n/2) / Gamma(n/2).
    The moment converges for p > -1.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not (math.isfinite(p) and p > -1.0):
        raise ValueError(f"p must be a finite number > -1, got {p!r}")
    if isinstance(samples, bool) or \
            not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    total = 0.0
    remaining = samples
    while remaining > 0:
        m = min(remaining, 1_000_000)
        g = rng.standard_normal((m, n))
        norms = np.linalg.norm(g, axis=1)
        good = norms > 0
        first = np.abs(g[good, 0] / norms[good])
        total += float(np.sum(first**p))
        remaining -= m
    return surface * total / samples


def _dense_1d_scale(scale: float, p: float, a: float, b: float,
                    family_kind: str, mode: str):
    """(cut, rho, mass_below, prefactor) of one scale of the dense oracle:
    the kernel's cut, the kernel rho(r) on arrays, the kernel mass below
    t, and the functional's prefactor."""
    if mode == "rdati":
        nu = float(scale)
        if family_kind == "bump":
            if not 0.0 < nu < 1.0:
                raise ValueError(f"bump nu must lie in (0, 1), got {nu!r}")

            def rho(r):
                return np.where((r > 0) & (r <= nu), 1.0 / nu, 0.0)

            def mass_below(t):
                return min(t, nu) / nu

            return nu, rho, mass_below, 1.0
        if family_kind == "fractional":
            nu_max = min(1.0 / p, 1.0)
            if not 0.0 < nu < nu_max:
                raise ValueError(
                    f"fractional nu must lie in (0, {nu_max!r}), got {nu!r}")
            R = 2.0 * max(abs(a), abs(b))
            np_exp = nu * p

            def rho(r):
                out = np_exp * (2.0 * R) ** (-np_exp) * r ** (np_exp - 1.0)
                return np.where((r > 0) & (r <= 2.0 * R), out, 0.0)

            def mass_below(t):
                return (min(t, 2.0 * R) / (2.0 * R)) ** np_exp

            return 2.0 * R, rho, mass_below, 1.0
        raise ValueError(f"unknown family {family_kind!r}")
    if mode == "gagliardo":
        s = float(scale)
        if not 0.0 < s < 1.0:
            raise ValueError(f"gagliardo s must lie in (0, 1), got {s!r}")

        # rho / r^p must equal the Gagliardo kernel r^(-n - s p), n = 1
        def rho(r):
            return r ** (p - 1.0 - s * p)

        def mass_below(t):
            return t ** ((1.0 - s) * p) / ((1.0 - s) * p)

        return math.inf, rho, mass_below, (1.0 - s) ** (1.0 / p)
    raise ValueError(f"unknown mode {mode!r}")


def dense_1d_functional(fn: TestFunction, domain: Box, p: float,
                        q: float, scale, resolution: float,
                        family_kind: str = "bump",
                        mode: str = "rdati"):
    """The 1-d functional at fine resolution as a sum over the grid's
    integer offsets, each pair's distance from its coordinates.

    Reimplements the kernel formulas and the analytic near-field rule
    inline, so it shares no code with the main engine.  `scale` is nu for
    mode "rdati" and s for mode "gagliardo"; a scalar gives a float, and a
    sequence of scales an array of their values from one offset loop.
    Offset k pairs x_i with x_{i+k} at r = |x_{i+k} - x_i|, so the kernel's
    cut and the near rule r < 2h split the pairs that sit on them exactly
    as a loop over all pairs would.  Every term is symmetric in the pair
    and is added to both of its points.  A scale stops at the first offset
    whose every distance exceeds both its kernel's cut and 2h, and the
    loop at the last scale's stop; the scales share the distances, the
    differences and the near sums, and each keeps the operations of its
    own call, so its value is the same bit for bit.
    """
    if not (isinstance(domain, Box) and domain.dimension == 1):
        raise ValueError("the dense oracle needs a 1-d box or interval")
    h = float(resolution)
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"resolution must be a finite number > 0, got {h!r}")
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must be a finite number >= 1, got {p!r}")
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError(f"q must be a finite number > 0, got {q!r}")
    (a,), (b,) = domain.lo, domain.hi
    scales = np.atleast_1d(np.asarray(scale, dtype=float))
    if scales.ndim != 1 or not len(scales):
        raise ValueError(f"scale must be a number or a non-empty sequence "
                         f"of numbers, got {scale!r}")
    cuts, rhos, mass_belows, prefactors = zip(*(
        _dense_1d_scale(v, p, a, b, family_kind, mode) for v in scales))

    m = int(math.ceil((b - a) / h))
    x = a + (b - a) * (np.arange(m) + 0.5) / m
    h = (b - a) / m
    f = fn(x.reshape(-1, 1))
    near_radius = 2.0 * h
    far_sum = np.zeros((len(scales), m))
    quot_sum = np.zeros(m)
    counts = np.zeros(m, dtype=np.int64)
    live = list(range(len(scales)))
    next_cut = min(cuts)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, m):
            r = np.abs(x[k:] - x[:-k])
            r_min = r.min()
            if r_min > near_radius and r_min > next_cut:
                live = [i for i in live if not r_min > cuts[i]]
                if not live:
                    break
                next_cut = min(cuts[i] for i in live)
            df = np.abs(f[k:] - f[:-k])
            quot_r = df**p / r**p
            if r_min < near_radius:
                below = r < near_radius
                near = (r > 0) & below
                quot = np.where(near, (df / r) ** p, 0.0)
                quot_sum[:-k] += quot
                quot_sum[k:] += quot
                counts[:-k] += near
                counts[k:] += near
            for i in live:
                far_term = quot_r * rhos[i](r) * h
                if r_min < near_radius:
                    far_term[below] = 0.0
                far_term[np.isnan(far_term)] = 0.0
                far_sum[i, :-k] += far_term
                far_sum[i, k:] += far_term
    qbar = np.divide(quot_sum, counts, out=np.zeros(m), where=counts > 0)
    r_eff = (counts + 1) * h / 2.0
    values = np.empty(len(scales))
    for i, mass_below in enumerate(mass_belows):
        near_term = qbar * 2.0 * np.array([mass_below(t) for t in r_eff])
        energies = far_sum[i] + near_term
        values[i] = prefactors[i] * float(
            np.sum(h * energies ** (q / p)) ** (1.0 / q))
    return float(values[0]) if np.ndim(scale) == 0 else values


class _DistributionStep:
    """f* evaluated straight from the distribution function."""

    def __init__(self, values, weights):
        self._abs = [abs(v) for v in values]
        self._weights = list(weights)
        self._candidates = [0.0]
        for v in self._abs:
            if v not in self._candidates:
                self._candidates.append(v)

    def _measure_above(self, s: float) -> float:
        return sum(w for v, w in zip(self._abs, self._weights) if v > s)

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        # slack absorbs summation-order roundoff when t sits exactly on a
        # breakpoint produced by a differently ordered cumulative sum
        slack = 1e-12 * max(sum(self._weights), 1.0)
        out = []
        for ti in t:
            feasible = [s for s in self._candidates
                        if self._measure_above(s) <= ti + slack]
            out.append(min(feasible) if feasible else math.inf)
        result = np.asarray(out)
        return result if result.size > 1 else float(result[0])


def rearrangement_oracle(values, weights) -> _DistributionStep:
    """Decreasing rearrangement via inf{s : |{|f| > s}| <= t}, no sorting."""
    values = list(values)
    weights = list(weights)
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    return _DistributionStep(values, weights)
