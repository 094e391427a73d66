"""Radial decreasing approximations of the identity, as power-law kernels.

Two families ship: the fractional kernel nu*p*(2R)^(-nu*p) * r^(nu*p-n) on
(0, 2R], which turns the nonlocal energy into the Gagliardo seminorm, and a
compact bump n/nu^n on (0, nu].  Both have unit radial mass
int_0^inf rho_nu(r) r^(n-1) dr = 1 for every admissible nu, and their mass
concentrates at the origin as nu shrinks.

Every shipped kernel, the Gagliardo kernel r^(-n-sp) included, is a power
law cut off at some radius.  `RdatiFamily.kernel`, `gagliardo_kernel` and
`GagliardoFamily.kernel` return it as a `PowerKernel`, the one
representation that the family profiles, their closed-form masses and the
energy pass all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "check_p",
    "PowerKernel",
    "RdatiFamily",
    "fractional_family",
    "bump_family",
    "gagliardo_kernel",
    "GagliardoFamily",
    "normalization_defect",
    "tail_mass",
]


def check_p(p) -> float:
    """`p` as a float, if it is a finite exponent >= 1; every energy
    pass and kernel family needs one."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p!r}")
    return p


@dataclass(frozen=True)
class PowerKernel:
    """k(r) = A r^e on (0, cut], with k = rho(r) / r^p for the radial
    profile rho of an n-dimensional kernel; calling it evaluates rho."""

    A: float
    e: float
    cut: float
    p: float
    n: int

    def __call__(self, r) -> np.ndarray:
        """rho(r) = A r^(e + p) on (0, cut], zero elsewhere (vectorized)."""
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            out = self.A * r ** (self.e + self.p)
        return np.where((r > 0) & (r <= self.cut), out, 0.0)

    def cell_average(self, r: np.ndarray, dr: np.ndarray) -> np.ndarray:
        """Average of rho over the radial extent [r - dr/2, r + dr/2];
        exact mass against a frozen quotient."""
        expo = self.e + self.p
        a = np.maximum(r - dr / 2.0, 1e-300)
        b = np.minimum(r + dr / 2.0, self.cut)
        width = np.maximum(b - a, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            if abs(expo + 1.0) < 1e-9:
                anti = np.log(np.maximum(b, 1e-300) / a)
            else:
                anti = (b ** (expo + 1.0) - a ** (expo + 1.0)) / (expo + 1.0)
            return np.where(width > 0,
                            self.A * anti / np.maximum(dr, 1e-300), 0.0)

    def mass_below(self, t) -> np.ndarray:
        """int_0^t rho(r) r^(n-1) dr (closed form)."""
        expo = self.e + self.p + self.n
        t = np.minimum(np.asarray(t, dtype=float), self.cut)
        return self.A * np.maximum(t, 0.0) ** expo / expo


@dataclass(frozen=True)
class RdatiFamily:
    """One-parameter family nu -> rho_nu of radial decreasing profiles.

    kind: "fractional" (needs exponent p and enclosing radius R) or "bump".
    nu_max is the open upper end of the admissible scale range.
    """

    kind: str
    n: int
    p: float = math.nan
    R: float = math.nan

    @property
    def nu_max(self) -> float:
        if self.kind == "fractional":
            return min(self.n / self.p, 1.0)
        return 1.0

    def _check_nu(self, nu: float) -> None:
        if not 0.0 < nu < self.nu_max:
            bound = "(0, 1)" if self.kind == "bump" else \
                f"(0, min{{n/p, 1}}) = (0, {self.nu_max:g})"
            raise ValueError(f"nu={nu} outside the admissible range "
                             f"{bound} of the {self.kind} family")

    def kernel(self, nu: float, p: float = 0.0) -> PowerKernel:
        """rho_nu as the power kernel k = rho_nu / r^p (p = 0: rho_nu)."""
        self._check_nu(nu)
        if self.kind == "bump":
            return PowerKernel(self.n / nu**self.n, -p, nu, p, self.n)
        if self.kind == "fractional":
            np_exp = nu * self.p
            cut = 2.0 * self.R
            return PowerKernel(np_exp * cut ** (-np_exp),
                               np_exp - self.n - p, cut, p, self.n)
        raise ValueError(f"unknown family {self.kind!r}")

    def rho(self, nu: float, r) -> np.ndarray:
        """Evaluate rho_nu at radii r (vectorized)."""
        return self.kernel(nu)(r)

    def radial_mass_below(self, nu: float, t: float) -> float:
        """Closed form of int_0^t rho_nu(r) r^(n-1) dr."""
        return float(self.kernel(nu).mass_below(t))


def fractional_family(p: float, R: float, n: int) -> RdatiFamily:
    """The kernel driving the Gagliardo-seminorm limit, cut off at 2R."""
    p = check_p(p)
    if not 0.0 < R < math.inf:
        raise ValueError(f"fractional family needs a finite R > 0, got {R!r}")
    return RdatiFamily("fractional", n, p=p, R=float(R))


def bump_family(n: int) -> RdatiFamily:
    """Compactly supported constant profile n/nu^n on (0, nu]."""
    return RdatiFamily("bump", n)


def gagliardo_kernel(s: float, p: float, n: int) -> PowerKernel:
    """The uncut W^{s,p} Gagliardo kernel k(r) = r^(-n - sp)."""
    return PowerKernel(1.0, -n - s * p, math.inf, p, n)


@dataclass(frozen=True)
class GagliardoFamily:
    """The Gagliardo kernels indexed by the scale nu = 1 - s, so that a
    schedule of s values runs through the same pass as a kernel family."""

    n: int

    def _check_nu(self, nu: float) -> None:
        if not 0.0 < nu < 1.0:
            raise ValueError(f"nu={nu} outside the admissible range (0, 1): "
                             f"s = 1 - nu must lie in (0, 1)")

    def kernel(self, nu: float, p: float) -> PowerKernel:
        self._check_nu(nu)
        return gagliardo_kernel(1.0 - nu, p, self.n)


def _quad(integrand, lo: float, hi: float) -> float:
    """int_lo^hi integrand by adaptive quadrature to 1e-13.  Only the two
    mass diagnostics below integrate, and no run calls them, so
    scipy.integrate is imported here rather than with the package."""
    from scipy import integrate
    val, _ = integrate.quad(integrand, lo, hi, limit=200, epsabs=1e-13,
                            epsrel=1e-13)
    return val


def _radial_mass(kernel: PowerKernel, lo: float) -> float:
    """Numeric int_lo^cut rho(r) r^(n-1) dr."""
    return _quad(lambda r: float(kernel(r)) * r ** (kernel.n - 1),
                 lo, kernel.cut)


def normalization_defect(family: RdatiFamily, nu: float) -> float:
    """|numeric radial mass - 1| with singularity-aware quadrature.

    The fractional integrand r^(nu*p - 1) is flattened by the substitution
    u = r^(nu*p); the bump integrand is smooth on its support.
    """
    kernel = family.kernel(nu)
    if family.kind == "fractional":
        np_exp = nu * family.p
        cut = kernel.cut

        def integrand(u):
            # u = r^(nu p) flattens the r^(nu p - 1) singularity at zero;
            # composed in log space because r itself underflows for tiny nu p
            log_r = math.log(u) / np_exp
            log_rho = (math.log(np_exp) - np_exp * math.log(cut)
                       + (np_exp - family.n) * log_r)
            log_jacobian = (1.0 - np_exp) * log_r - math.log(np_exp)
            return math.exp(log_rho + (family.n - 1) * log_r + log_jacobian)

        val = _quad(integrand, 0.0, cut**np_exp)
    else:
        val = _radial_mass(kernel, 0.0)
    return abs(val - 1.0)


def tail_mass(family: RdatiFamily, nu: float, delta: float) -> float:
    """Numeric int_delta^inf rho_nu(r) r^(n-1) dr."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    kernel = family.kernel(nu)
    if delta >= kernel.cut:
        return 0.0
    return float(_radial_mass(kernel, delta))
