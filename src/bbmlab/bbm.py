"""The sphere-moment constant, convergence studies, and membership verdicts."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import gammaln

from .field import SampledField, gradient_magnitude_field
from .mollifiers import GagliardoFamily, RdatiFamily, check_p
# gagliardo_functional stays bound here, where the benchmark's tracer
# wraps the energy entry points
from .nonlocal_energy import (  # noqa: F401
    bbm_functional_schedule,
    gagliardo_functional,
)
from .spaces import SpaceSpec, norm

__all__ = [
    "kappa",
    "sobolev_target",
    "ConvergenceReport",
    "convergence_study",
    "study_scales",
    "fit_limit",
    "upper_bound_diagnostics",
    "CSV_HEADER",
]

CSV_HEADER = "nu_or_s,value,target,ratio"

DIVERGENCE_FACTOR = 10.0
DIVERGENCE_TAIL = 5


def kappa(p: float, n: int) -> float:
    """p-th directional moment of surface measure on the unit sphere,
    2 pi^((n-1)/2) Gamma((p+1)/2) / Gamma((p+n)/2)."""
    if p < 1 or n < 1:
        raise ValueError("kappa needs p >= 1 and integer n >= 1")
    if n == 1:
        return 2.0
    log_val = (
        math.log(2.0)
        + 0.5 * (n - 1) * math.log(math.pi)
        + gammaln((p + 1.0) / 2.0)
        - gammaln((p + n) / 2.0)
    )
    return float(math.exp(log_val))


def sobolev_target(field: SampledField, p: float, spec: SpaceSpec) -> float:
    """kappa(p,n)^(1/p) times the X-norm of |grad f|."""
    if field.gradient_values is None:
        raise ValueError("field carries no gradient values")
    n = field.grid.dimension
    return kappa(p, n) ** (1.0 / p) * norm(spec, gradient_magnitude_field(field))


def _bounded_minimum(func, a: float, b: float, xatol: float):
    """(x, func(x)) at a local minimum of func on [a, b], by Brent's bounded
    method (Brent, Algorithms for Minimization without Derivatives, 1973):
    golden-section steps, replaced by parabolic interpolation through the
    three best points where the parabola's vertex falls well inside the
    bracket.  Step for step the Forsythe-Malcolm-Moler `fmin` that
    `scipy.optimize.minimize_scalar(method="bounded")` runs, so both
    return the same x and f(x)."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, fx


def _fit_misfit(scales: np.ndarray, values: np.ndarray, beta: float):
    """(RMS misfit, [L, C]) of the least-squares fit v = L + C * scale^beta."""
    design = np.stack([np.ones_like(scales), scales**beta], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ coef
    return float(np.sqrt(np.mean(resid**2))), coef


def fit_limit(scales: np.ndarray, values: np.ndarray):
    """Fit v = L + C * scale^beta over the last four points, beta in [1/2, 2].

    Returns (L, C, beta, residual) with residual the RMS misfit.  The rate
    is left free because no convergence order is guaranteed; the fit only
    has to extrapolate a boundary-layer decay.  beta minimises the misfit
    by Brent's bounded method (to 1e-6), unless the best of 16 evenly
    spaced rates fits at least as well.
    """
    scales = np.asarray(scales, dtype=float)[-4:]
    values = np.asarray(values, dtype=float)[-4:]
    if np.ptp(values) == 0.0:
        return float(values[-1]), 0.0, 1.0, 0.0

    def misfit(beta):
        return _fit_misfit(scales, values, beta)[0]

    best = min((misfit(b), b) for b in np.linspace(0.5, 2.0, 16))[1]
    x, fun = _bounded_minimum(misfit, 0.5, 2.0, 1e-6)
    beta = x if fun <= misfit(best) else float(best)
    residual, coef = _fit_misfit(scales, values, beta)
    return float(coef[0]), float(coef[1]), beta, residual


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of one scale sweep of the nonlocal functional.

    schedule holds the user-facing parameter (nu, or s for the Gagliardo
    mode); scales the equivalent strictly decreasing kernel scales.  The
    verdict is a numerical diagnosis, not a proof: member needs the
    extrapolated limit within tolerance of the target (and a space whose
    norm is absolutely continuous), non-member needs the divergence
    criterion, and everything else stays inconclusive.
    """

    mode: str
    p: float
    spec_label: str
    schedule: tuple
    scales: tuple
    functional_values: tuple
    target: Optional[float]
    extrapolated_limit: Union[float, str]
    relative_error: Optional[float]
    verdict: str
    fitted_beta: float
    fit_residual: float
    tolerance: float

    def to_dict(self) -> dict:
        data = asdict(self)
        data["spec"] = data.pop("spec_label")
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ConvergenceReport":
        data = {key: tuple(value) if isinstance(value, list) else value
                for key, value in data.items()}
        data["spec_label"] = data.pop("spec")
        return cls(**data)

    def csv_rows(self):
        rows = []
        for param, value in zip(self.schedule, self.functional_values):
            ratio = value / self.target if self.target else math.nan
            target = self.target if self.target is not None else math.nan
            rows.append((param, value, target, ratio))
        return rows


def _diverging(values: np.ndarray) -> bool:
    if values[0] <= 0.0:
        return False
    tail = values[-min(DIVERGENCE_TAIL, len(values)):]
    return bool(
        values[-1] > DIVERGENCE_FACTOR * values[0]
        and np.all(np.diff(tail) > 0)
    )


def study_scales(family: RdatiFamily | GagliardoFamily, schedule) -> list:
    """The kernel scales of a study's schedule, a list of floats: nu for
    an `RdatiFamily`, nu = 1 - s for a `GagliardoFamily`, whose schedule
    lists s values.  At least 4 (the fit takes the last four), each
    admissible for the family, strictly decreasing; else a ValueError."""
    if len(schedule) < 4:
        raise ValueError(f"schedule needs at least 4 points, "
                         f"got {len(schedule)}")
    if isinstance(family, GagliardoFamily):
        scales = [1.0 - s for s in schedule]
    elif isinstance(family, RdatiFamily):
        scales = schedule
    else:
        raise ValueError(f"not a kernel family: {family!r}")
    for nu in scales:
        family._check_nu(nu)
    if np.any(np.diff(scales) >= 0):
        raise ValueError("schedule scales must be strictly decreasing")
    return scales


def convergence_study(field: SampledField, p: float, spec: SpaceSpec,
                      family: RdatiFamily | GagliardoFamily, schedule,
                      tolerance: float = 0.05) -> ConvergenceReport:
    """Sweep the functional over a scale schedule and classify the field.

    The family picks the route (see `study_scales`).  An `RdatiFamily`
    study runs over scales nu, towards the target kappa(p,n)^(1/p) times
    the norm of |grad f|.  A `GagliardoFamily` study runs over s values
    increasing to 1 and applies its (1 - s)^(1/p) factors after the norm,
    towards (kappa(p,n)/p)^(1/p) times that norm.  Either makes one
    energy pass for the whole schedule and one stacked norm call, whose
    last row is |grad f| when the field carries gradient values.
    """
    check_p(p)
    schedule = [float(v) for v in schedule]
    scales = study_scales(family, schedule)
    gagliardo = isinstance(family, GagliardoFamily)
    n = field.grid.dimension
    with_gradient = field.gradient_values is not None
    norms = bbm_functional_schedule(field, p, family, scales, spec,
                                    with_gradient=with_gradient)
    values = norms[:len(scales)]
    if gagliardo:
        values = values * np.asarray(scales) ** (1.0 / p)
    target_factor = (kappa(p, n) / (p if gagliardo else 1.0)) ** (1.0 / p)
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("functional values must be finite and nonnegative")

    target = None
    if with_gradient:
        target = target_factor * float(norms[-1])

    diverging = _diverging(values)
    if diverging:
        limit: Union[float, str] = "diverging"
        rel_err = None
        beta, residual = math.nan, math.nan
        verdict = "non-member"
    else:
        fit_l, _, beta, residual = fit_limit(np.asarray(scales), values)
        limit = fit_l
        if target is None:
            rel_err = None
            verdict = "inconclusive"
        else:
            rel_err = abs(fit_l - target) / target if target > 0 else abs(fit_l)
            if spec.absolutely_continuous and rel_err <= tolerance:
                verdict = "member"
            else:
                verdict = "inconclusive"

    return ConvergenceReport(
        mode="gagliardo" if gagliardo else "rdati",
        p=p,
        spec_label=spec.label,
        schedule=tuple(schedule),
        scales=tuple(scales),
        functional_values=tuple(float(v) for v in values),
        target=target,
        extrapolated_limit=limit,
        relative_error=rel_err,
        verdict=verdict,
        fitted_beta=beta,
        fit_residual=residual,
        tolerance=tolerance,
    )


def upper_bound_diagnostics(field: SampledField, p: float, spec: SpaceSpec,
                            family: RdatiFamily, schedule):
    """Ratios functional / |grad f|-norm over a schedule, from one stacked
    norm call; judge their growth from successive increments."""
    norms = bbm_functional_schedule(field, p, family, schedule, spec,
                                    with_gradient=True)
    return norms[:-1] / norms[-1]
