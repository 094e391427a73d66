"""Independent brute-force references for the derived numbers.

Nothing here imports kernels or norm engines from the modules it checks:
the sphere moment is plain Monte Carlo, the one-dimensional functional is
a sum over the grid's integer offsets, at distance k*h for offset k save
at the near offsets and the kernel cuts, with its own inline kernel
formulas, and the rearrangement follows the distribution-function
definition without sorting.
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
    the kernel's cut, the kernel rho(r) and the kernel mass below t, both
    on arrays, and the functional's prefactor."""
    if mode == "rdati":
        nu = float(scale)
        if family_kind == "bump":
            if not 0.0 < nu < 1.0:
                raise ValueError(f"bump nu must lie in (0, 1), got {nu!r}")

            def rho(r):
                return np.where((r > 0) & (r <= nu), 1.0 / nu, 0.0)

            def mass_below(t):
                return np.minimum(t, nu) / nu

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
                return (np.minimum(t, 2.0 * R) / (2.0 * R)) ** np_exp

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


# entries of one block of differences, (offsets x left ends)
_BLOCK_ENTRIES = 1 << 17


def dense_1d_functional(fn: TestFunction, domain: Box, p: float,
                        q: float, scale, resolution: float,
                        family_kind: str = "bump",
                        mode: str = "rdati"):
    """The 1-d functional at fine resolution as a sum over the grid's
    integer offsets, at distance k*h for offset k.

    Reimplements the kernel formulas and the analytic near-field rule
    inline, so it shares no code with the main engine.  `scale` is nu for
    mode "rdati" and s for mode "gagliardo"; a scalar gives a float, and a
    sequence of scales an array of their values from one offset loop.
    Offset k pairs x_i with x_{i+k}, which lie k*h apart up to round-off
    in the coordinates.  Where k*h is more than a margin (past that
    round-off) from the near radius 2h and from a scale's kernel cut, the
    offset is clean for the scale: the scale weighs each of its pairs by
    the one kernel weight rho(k h) / (k h)^p * h.  The near offsets
    (k*h up to 2h and the margin) and a scale's tie offsets (k*h within
    the margin of its cut) take each pair's distance from its coordinates,
    so the near rule r < 2h and the cut split the pairs that sit on them
    exactly as a loop over all pairs would.  Clean offsets are summed in
    blocks of consecutive offsets: one array of |f_{i+k} - f_i|^p per
    block, which each scale's weights contract once for the pairs' left
    ends and once, skewed, for their right ends, so every term, symmetric
    in its pair, is added to both of its points.  A scale stops after the
    last block that reaches its cut.  The blocks depend on the grid alone
    and each scale keeps its own weights, tie offsets and operations, so
    its value from a schedule is its value alone bit for bit.
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
    bad = ~np.isfinite(f)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"fn must be finite on the grid, got "
                         f"{float(f[i])} at x = {float(x[i])}")
    near_radius = 2.0 * h
    # With M = max(|a|, |b|) and eps the machine epsilon, x_i is
    # a + (b - a)(i + 1/2)/m after four roundings, off by at most 3.5 eps M;
    # a pair's distance, rounded once more, by 8 eps M, and k*h <= 2M by
    # 3 eps M.  So every pair at offset k lies within 11 eps M of k*h, on
    # the side of 2h or of a cut that k*h takes once it is past the margin.
    # 1e-9 h is the larger term while M/h < 2.8e5.
    margin = max(1e-9 * h, 16.0 * np.finfo(float).eps * max(abs(a), abs(b)))
    far_sum = np.zeros((len(scales), m))

    def add_pair_terms(i, k):
        """Scale i's far terms at offset k, each pair at its own r."""
        r = np.abs(x[k:] - x[:-k])
        df = np.abs(f[k:] - f[:-k])
        far_term = df**p / r**p * rhos[i](r) * h
        far_sum[i, :-k] += far_term
        far_sum[i, k:] += far_term

    n_near = 2 + int(margin // h)
    quot_sum = np.zeros(m)
    counts = np.zeros(m, dtype=np.int64)
    # a pair at r = 0 (coordinates equal by round-off) is zeroed by `below`
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, n_near + 1):
            r = np.abs(x[k:] - x[:-k])
            df = np.abs(f[k:] - f[:-k])
            below = r < near_radius
            near = (r > 0) & below
            quot = np.where(near, (df / r) ** p, 0.0)
            quot_sum[:-k] += quot
            quot_sum[k:] += quot
            counts[:-k] += near
            counts[k:] += near
            quot_r = df**p / r**p
            for i, rho in enumerate(rhos):
                far_term = quot_r * rho(r) * h
                far_term[below] = 0.0
                far_sum[i, :-k] += far_term
                far_sum[i, k:] += far_term

    step = max(1, _BLOCK_ENTRIES // m)
    buffer = np.empty(min(step, m) * (m + 1))
    # ahead[k, i] = f[i + k], zero past the grid
    ahead = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([f, np.zeros(m)]), m)
    for k0 in range(n_near + 1, m, step):
        live = [i for i, cut in enumerate(cuts) if k0 * h <= cut + margin]
        if not live:
            break
        K, L = min(step, m - k0), m - k0
        # row j holds the pairs at offset k0 + j by their left ends i,
        # zero where i + k0 + j is past the grid, and a zero column after
        block = buffer[:K * (L + 1)].reshape(K, L + 1)
        diff = block[:, :L]
        np.subtract(ahead[k0:k0 + K, :L], f[:L], out=diff)
        if p == 2.0:
            np.square(diff, out=diff)
        else:
            np.power(np.abs(diff, out=diff), p, out=diff)
        block[:, L] = 0.0
        block[:, L - K + 1:L][
            np.add.outer(np.arange(K), np.arange(K - 1)) >= K - 1] = 0.0
        # the same entries by right end t = i + j: row j shifted by j,
        # with the zeros above filling in where t < j
        by_right = block.ravel()[:K * L].reshape(K, L)
        kh = np.arange(k0, k0 + K) * h
        for i in live:
            weight = rhos[i](kh) / kh**p * h
            tie = np.abs(kh - cuts[i]) <= margin
            weight[tie] = 0.0
            for j in np.flatnonzero(tie):
                add_pair_terms(i, k0 + int(j))
            far_sum[i, :L] += (weight @ block)[:L]
            far_sum[i, k0:] += weight @ by_right

    qbar = np.divide(quot_sum, counts, out=np.zeros(m), where=counts > 0)
    r_eff = (counts + 1) * h / 2.0
    values = np.empty(len(scales))
    for i, mass_below in enumerate(mass_belows):
        energies = far_sum[i] + qbar * 2.0 * mass_below(r_eff)
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
