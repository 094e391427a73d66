import ast
import math
from pathlib import Path

import numpy as np
import pytest

from bbmlab import oracle
from bbmlab.field import linear, sample, indicator_halfspace
from bbmlab.geometry import Box, Interval, sample_quadrature
from bbmlab.mollifiers import bump_family
from bbmlab.nonlocal_energy import bbm_functional_schedule
from bbmlab.oracle import (
    dense_1d_functional,
    mc_sphere_moment,
    rearrangement_oracle,
)
from bbmlab.spaces import Lebesgue, decreasing_rearrangement
from bbmlab.field import SampledField


class TestSphereMoment:
    def test_circle_second_moment(self):
        got = mc_sphere_moment(2.0, 2, 1_000_000, seed=0)
        assert got == pytest.approx(math.pi, rel=5e-3)

    def test_degenerate_exponent_gives_surface(self):
        got = mc_sphere_moment(0.0, 3, 10_000, seed=0)
        assert got == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_sphere_second_moment(self):
        got = mc_sphere_moment(2.0, 3, 1_000_000, seed=1)
        assert got == pytest.approx(4.0 * math.pi / 3.0, rel=5e-3)

    def test_deterministic_per_seed(self):
        a = mc_sphere_moment(1.5, 2, 50_000, seed=9)
        b = mc_sphere_moment(1.5, 2, 50_000, seed=9)
        assert a == b

    @pytest.mark.parametrize("change, message", [
        ({"n": 0}, "^n must"),
        ({"n": -1}, "^n must"),
        ({"n": 2.5}, "^n must"),
        ({"n": True}, "^n must"),
        ({"p": -1.0}, "^p must"),
        ({"p": -2.0}, "^p must"),
        ({"p": math.nan}, "^p must"),
        ({"p": math.inf}, "^p must"),
        ({"samples": 0}, "^samples must"),
        ({"samples": math.nan}, "^samples must"),
        ({"samples": 100.0}, "^samples must"),
        ({"samples": True}, "^samples must"),
    ])
    def test_bad_input_is_named(self, change, message):
        call = {"p": 2.0, "n": 2, "samples": 100, **change}
        with pytest.raises(ValueError, match=message):
            mc_sphere_moment(**call)

    def test_integrable_negative_exponent(self):
        # int |omega_1|^p over the circle is finite for every p > -1
        assert math.isfinite(mc_sphere_moment(-0.5, 2, 1000, seed=0))


class TestDense1d:
    def test_linear_agrees_with_engine(self):
        domain = Interval(0.0, 1.0)
        grid = sample_quadrature(domain, 1e-3)
        f = sample(linear((1.0,)), grid)
        engine = bbm_functional_schedule(f, 2.0, bump_family(1), [0.1],
                                         Lebesgue(2.0))[0]
        dense = dense_1d_functional(linear((1.0,)), domain, 2.0, 2.0, 0.1,
                                    1e-4, family_kind="bump")
        assert engine == pytest.approx(dense, rel=0.01)

    @pytest.mark.parametrize("mode, family, scale", [
        ("rdati", "bump", 0.1), ("gagliardo", "bump", 0.9)])
    def test_one_dimensional_box_is_the_interval(self, mode, family, scale):
        values = [dense_1d_functional(linear((1.0,)), domain, 2.0, 2.0,
                                      scale, 1e-3, family_kind=family,
                                      mode=mode)
                  for domain in (Box((0.0,), (1.0,)), Interval(0.0, 1.0))]
        assert values[0] == values[1]

    def test_constant_zero(self):
        dense = dense_1d_functional(linear((0.0,)), Interval(0.0, 1.0), 2.0,
                                    2.0, 0.1, 1e-3, family_kind="bump")
        assert dense == 0.0

    def test_indicator_grows(self):
        domain = Interval(-1.0, 1.0)
        fn = indicator_halfspace((1.0,), 0.0)
        coarse_scale = dense_1d_functional(fn, domain, 2.0, 2.0, 0.1, 5e-4,
                                           family_kind="fractional")
        fine_scale = dense_1d_functional(fn, domain, 2.0, 2.0, 0.05, 5e-4,
                                         family_kind="fractional")
        assert fine_scale > coarse_scale

    def test_gagliardo_mode_prefactor(self):
        domain = Interval(0.0, 1.0)
        value = dense_1d_functional(linear((1.0,)), domain, 2.0, 2.0, 0.9,
                                    1e-3, mode="gagliardo")
        # analytic continuum value is (1 + 2 nu)^(-1/2) at nu = 1 - s
        assert value == pytest.approx((1.0 + 0.2) ** -0.5, rel=0.01)

    @pytest.mark.parametrize("fn", [
        linear((math.inf,)),
        lambda pts: np.where(pts[:, 0] > 0.5, math.nan, pts[:, 0]),
    ], ids=["infinite-slope", "nan-half"])
    def test_non_finite_field_is_named(self, fn):
        with pytest.raises(ValueError, match="^fn must be finite"):
            dense_1d_functional(fn, Interval(0.0, 1.0), 2.0, 2.0, 0.1, 1e-2)

    @pytest.mark.parametrize("change, message", [
        ({"resolution": 0.0}, "^resolution"),
        ({"resolution": -1e-3}, "^resolution"),
        ({"resolution": math.nan}, "^resolution"),
        ({"resolution": math.inf}, "^resolution"),
        ({"p": 0.5}, "^p must"),
        ({"p": math.nan}, "^p must"),
        ({"p": math.inf}, "^p must"),
        ({"q": 0.0}, "^q must"),
        ({"q": math.nan}, "^q must"),
        ({"scale": 0.0}, "^bump nu"),
        ({"scale": -0.1}, "^bump nu"),
        ({"scale": 1.0}, "^bump nu"),
        ({"scale": math.nan}, "^bump nu"),
        ({"family_kind": "fractional", "scale": 0.5}, "^fractional nu"),
        ({"family_kind": "fractional", "scale": 0.0}, "^fractional nu"),
        ({"mode": "gagliardo", "scale": 1.0}, "^gagliardo s"),
        ({"mode": "gagliardo", "scale": 1.5}, "^gagliardo s"),
        ({"mode": "gagliardo", "scale": 0.0}, "^gagliardo s"),
        ({"domain": Box((0.0, 0.0), (1.0, 1.0))}, "^the dense oracle needs"),
    ])
    def test_bad_input_is_named(self, change, message):
        call = {"fn": linear((1.0,)), "domain": Interval(0.0, 1.0),
                "p": 2.0, "q": 2.0, "scale": 0.1, "resolution": 1e-2,
                "family_kind": "bump", "mode": "rdati", **change}
        with pytest.raises(ValueError, match=message):
            dense_1d_functional(**call)


def _dense_reference(fn, domain, p, q, scale, resolution,
                     family_kind="bump", mode="rdati"):
    """The blocked double loop the offset loop replaced, as a reference:
    (block x m) arrays over every ordered pair, rows summed by np.nansum."""
    h = float(resolution)
    a, b = domain.a, domain.b
    m = int(math.ceil((b - a) / h))
    x = a + (b - a) * (np.arange(m) + 0.5) / m
    h = (b - a) / m
    f = fn(x.reshape(-1, 1))
    if mode == "rdati":
        nu = float(scale)
        if family_kind == "bump":
            def rho(r):
                return np.where((r > 0) & (r <= nu), 1.0 / nu, 0.0)

            def mass_below(t):
                return min(t, nu) / nu
        else:
            R = 2.0 * max(abs(a), abs(b))
            np_exp = nu * p

            def rho(r):
                out = np_exp * (2.0 * R) ** (-np_exp) * r ** (np_exp - 1.0)
                return np.where((r > 0) & (r <= 2.0 * R), out, 0.0)

            def mass_below(t):
                return (min(t, 2.0 * R) / (2.0 * R)) ** np_exp
        prefactor = 1.0
    else:
        s = float(scale)

        def rho(r):
            return r ** (p - 1.0 - s * p)

        def mass_below(t):
            return t ** ((1.0 - s) * p) / ((1.0 - s) * p)

        prefactor = (1.0 - s) ** (1.0 / p)
    near_radius = 2.0 * h
    energies = np.zeros(m)
    block = max(1, 4_000_000 // m)
    for start in range(0, m, block):
        xi = x[start:start + block]
        fi = f[start:start + block]
        r = np.abs(xi[:, None] - x[None, :])
        df = np.abs(fi[:, None] - f[None, :])
        far = r >= near_radius
        with np.errstate(divide="ignore", invalid="ignore"):
            far_term = np.where(far, df**p / r**p * rho(r) * h, 0.0)
        near = (r > 0) & (r < near_radius)
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = np.where(near, (df / r) ** p, 0.0)
        counts = near.sum(axis=1)
        qbar = np.divide(quot.sum(axis=1), counts,
                         out=np.zeros(len(xi)), where=counts > 0)
        r_eff = (counts + 1) * h / 2.0
        near_term = qbar * 2.0 * np.array([mass_below(t) for t in r_eff])
        energies[start:start + len(xi)] = \
            np.nansum(far_term, axis=1) + near_term
    value = float(np.sum(h * energies ** (q / p)) ** (1.0 / q))
    return prefactor * value


TIE_RESOLUTION = 1e-3
DOMAINS = [(0.0, 1.0), (-1.0, 1.0)]
EXPONENTS = [(1.5, 1.5), (2.0, 2.0), (3.0, 3.0), (2.0, 1.5)]
BUMP_NUS = (0.05, 0.1)
KERNELS = [("rdati", "bump", nu) for nu in BUMP_NUS] + [
    ("rdati", "fractional", 0.3), ("gagliardo", "bump", 0.9)]
# every (domain, field) setting meets every kernel; the exponents run
# through a Latin square, so each setting and each kernel sees all four
SETTINGS = [(dom, field) for dom in DOMAINS
            for field in ("linear", "indicator")]
EQUIVALENCE_CASES = [
    (dom, field, kernel, EXPONENTS[(i + j) % len(EXPONENTS)])
    for i, (dom, field) in enumerate(SETTINGS)
    for j, kernel in enumerate(KERNELS)
]
EQUIVALENCE_IDS = [
    f"({a:g},{b:g})-{field}-{family if mode == 'rdati' else mode}{scale:g}"
    f"-p{p:g}q{q:g}"
    for (a, b), field, (mode, family, scale), (p, q) in EQUIVALENCE_CASES
]


# off centre, the coordinates' round-off is about 10x larger relative to h
OFF_CENTRE = (10.0, 11.0)
OFF_CENTRE_CASES = [
    (field, kernel, EXPONENTS[(i + j) % len(EXPONENTS)])
    for i, field in enumerate(("linear", "indicator"))
    for j, kernel in enumerate(KERNELS)
]
OFF_CENTRE_IDS = [
    f"{field}-{family if mode == 'rdati' else mode}{scale:g}-p{p:g}q{q:g}"
    for field, (mode, family, scale), (p, q) in OFF_CENTRE_CASES
]


def _case_field(field, domain):
    return linear((1.0,)) if field == "linear" else \
        indicator_halfspace((1.0,), 0.5 * (domain.a + domain.b))


def _oracle_grid(a, b, resolution):
    """The oracle's grid: m cell midpoints of (a, b) and their spacing."""
    m = int(math.ceil((b - a) / resolution))
    return a + (b - a) * (np.arange(m) + 0.5) / m, (b - a) / m


class TestOffsetLoop:
    @pytest.mark.parametrize("dom, field, kernel, exponents",
                             EQUIVALENCE_CASES, ids=EQUIVALENCE_IDS)
    def test_matches_dense_reference(self, dom, field, kernel, exponents):
        domain = Interval(*dom)
        fn = linear((1.0,)) if field == "linear" else \
            indicator_halfspace((1.0,), 0.5 * (domain.a + domain.b))
        mode, family, scale = kernel
        p, q = exponents
        args = (fn, domain, p, q, scale, TIE_RESOLUTION)
        got = dense_1d_functional(*args, family_kind=family, mode=mode)
        want = _dense_reference(*args, family_kind=family, mode=mode)
        assert want > 0.0
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("field, kernel, exponents", OFF_CENTRE_CASES,
                             ids=OFF_CENTRE_IDS)
    def test_matches_dense_reference_off_centre(self, field, kernel,
                                                exponents):
        domain = Interval(*OFF_CENTRE)
        mode, family, scale = kernel
        p, q = exponents
        args = (_case_field(field, domain), domain, p, q, scale,
                TIE_RESOLUTION)
        got = dense_1d_functional(*args, family_kind=family, mode=mode)
        want = _dense_reference(*args, family_kind=family, mode=mode)
        assert want > 0.0
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("a, b", DOMAINS)
    def test_bump_cases_split_ties(self, a, b):
        """The pairs at r = nu and at r = 2h are split by round-off on
        these grids, so the equivalence cases pin each pair's own rule."""
        x, h = _oracle_grid(a, b, TIE_RESOLUTION)
        for nu in BUMP_NUS:
            k = round(nu / h)
            kept = np.count_nonzero(np.abs(x[k:] - x[:-k]) <= nu)
            assert 0 < kept < len(x) - k
        near = np.count_nonzero(np.abs(x[2:] - x[:-2]) < 2.0 * h)
        assert 0 < near < len(x) - 2


class TestScheduleLoop:
    """A sequence of scales shares one offset loop, and each value keeps
    the bits of its own scalar call."""

    @pytest.mark.parametrize("dom, field, family, mode, scales", [
        ((0.0, 1.0), "linear", "bump", "rdati", [0.2, 0.05, 0.1, 0.0125]),
        ((-1.0, 1.0), "indicator", "fractional", "rdati",
         [0.4 * 0.5**k for k in range(6)]),
        ((0.0, 1.0), "indicator", "bump", "gagliardo", [0.8, 0.9, 0.95]),
    ], ids=["bump", "fractional", "gagliardo"])
    def test_schedule_matches_scalar_calls(self, dom, field, family, mode,
                                           scales):
        domain = Interval(*dom)
        fn = linear((1.0,)) if field == "linear" else \
            indicator_halfspace((1.0,), 0.1)
        args = (fn, domain, 2.0, 2.0)
        got = dense_1d_functional(*args, scales, TIE_RESOLUTION,
                                  family_kind=family, mode=mode)
        single = [dense_1d_functional(*args, s, TIE_RESOLUTION,
                                      family_kind=family, mode=mode)
                  for s in scales]
        assert isinstance(got, np.ndarray) and got.shape == (len(scales),)
        assert all(type(v) is float for v in single)
        assert got.tolist() == single

    @pytest.mark.parametrize("field", ["linear", "indicator"])
    def test_schedule_across_blocks_matches_scalar_calls(self, field):
        """Cuts that tie at offsets 50, 200, 300 and 400, in four blocks
        of offsets, at p = 3."""
        domain = Interval(0.0, 1.0)
        scales = [0.4, 0.05, 0.3, 0.2]
        x, h = _oracle_grid(domain.a, domain.b, TIE_RESOLUTION)
        step = max(1, oracle._BLOCK_ENTRIES // len(x))
        tie_blocks = set()
        for nu in scales:
            k = round(nu / h)
            assert abs(k * h - nu) <= 1e-9 * h
            kept = np.count_nonzero(np.abs(x[k:] - x[:-k]) <= nu)
            assert 0 < kept < len(x) - k
            tie_blocks.add((k - 3) // step)
        assert len(tie_blocks) >= 3
        args = (_case_field(field, domain), domain, 3.0, 2.0)
        got = dense_1d_functional(*args, scales, TIE_RESOLUTION)
        single = [dense_1d_functional(*args, s, TIE_RESOLUTION)
                  for s in scales]
        assert got.tolist() == single

    @pytest.mark.parametrize("scale", [[], np.zeros((2, 2)),
                                       [0.1, 1.5]])
    def test_bad_schedule_is_named(self, scale):
        with pytest.raises(ValueError, match="^(scale|bump nu)"):
            dense_1d_functional(linear((1.0,)), Interval(0.0, 1.0), 2.0, 2.0,
                                scale, 1e-2)


def test_oracle_imports_no_engine_code():
    """The oracle stays code-independent of the engine it checks."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                imported.add(node.module)
            elif node.module:
                imported.add(f"bbmlab.{node.module}")
            else:
                imported.update(f"bbmlab.{alias.name}"
                                for alias in node.names)
    # a compiler directive, not code
    imported.discard("__future__")
    assert imported <= {"math", "numpy", "bbmlab.field", "bbmlab.geometry"}


class TestRearrangementOracle:
    def test_matches_sorted_small(self):
        step = rearrangement_oracle([3.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert step(0.5) == 3.0
        assert step(1.5) == 2.0
        assert step(2.5) == 1.0
        assert step(3.5) == 0.0

    def test_constant_field(self):
        step = rearrangement_oracle([2.0, 2.0], [0.5, 0.5])
        assert step(0.2) == 2.0
        assert step(0.99) == 2.0
        assert step(1.01) == 0.0

    def test_agrees_with_sorting_implementation(self, rng):
        from bbmlab.geometry import QuadratureGrid
        for _ in range(100):
            n = rng.integers(2, 12)
            values = rng.normal(size=n)
            weights = rng.uniform(0.05, 1.0, size=n)
            grid = QuadratureGrid(np.arange(n, dtype=float)[:, None], weights,
                                  1.0)
            sorted_step = decreasing_rearrangement(SampledField(grid, values))
            oracle_step = rearrangement_oracle(values, weights)
            # probe every breakpoint, the midpoints between them, and the
            # tail; avoid points an ulp away from the total measure where
            # the two summation orders may legitimately disagree
            breaks = sorted_step.breakpoints
            edges = np.concatenate([[0.0], breaks])
            mids = 0.5 * (edges[:-1] + edges[1:])
            probes = np.concatenate([breaks, mids, [breaks[-1] + 0.1]])
            got = np.array([oracle_step(t) for t in probes])
            want = sorted_step(probes)
            assert np.max(np.abs(got - want)) == 0.0
