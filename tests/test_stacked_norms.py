"""Stacked norm calls: `norm(spec, grid, values)` on a (B, N) stack gives
the norms of its rows one at a time, the audits measure the same fields
as a loop of single-field calls, and bad stacks fail by name."""

import math

import numpy as np
import pytest

from bbmlab import checks, mollifiers, nonlocal_energy, spaces
from bbmlab.field import SampledField, linear, sample
from bbmlab.geometry import (Box, Disk, Interval, QuadratureGrid,
                             sample_quadrature)
from bbmlab.nonlocal_energy import energy_half_field
from bbmlab.spaces import (
    SPACES,
    BesovBourgainMorrey,
    HerzGlobal,
    HerzLocal,
    Lebesgue,
    Lorentz,
    MixedLebesgue,
    Morrey,
    OrliczSlice,
    OrliczSpace,
    PowerLogOrlicz,
    PowerOrlicz,
    PowerWeight,
    VariableLebesgue,
    WeightedLebesgue,
    norm,
)

STACK_GRIDS = {
    "interval-24": (Interval(0.0, 1.0), 1.0 / 24, "tensor-midpoint"),
    "square-36": (Box((0.0, 0.0), (1.0, 1.0)), 1.0 / 6, "tensor-midpoint"),
    "disk-0.05": (Disk((0.0, 0.0), 1.0), 0.05, "tensor-midpoint"),
    "cloud-disk-0.1": (Disk((0.0, 0.0), 1.0), 0.1, "quasi-random"),
}

STACK_RTOL = 1e-15


def _grid(name):
    domain, h, scheme = STACK_GRIDS[name]
    return sample_quadrature(domain, h, scheme)


def _spec(kind, n):
    """One spec of every kind, measurable on an n-d grid."""
    return {
        "lebesgue": Lebesgue(2.5),
        "weighted": WeightedLebesgue(2.0, PowerWeight(0.5)),
        "lorentz": Lorentz(2.5, 1.5),
        "orlicz": OrliczSpace(PowerLogOrlicz(1.5)),
        "morrey": Morrey(3.0, 2.0),
        "variable": VariableLebesgue(lambda pts: 2.0 + 0.5 * pts[:, 0]),
        "mixed": MixedLebesgue((1.5, 2.5)[:n]),
        "herz_local": HerzLocal(2.0, 2.0, 0.3, (-0.1,) * n),
        "herz_global": HerzGlobal(2.0, 2.0, -0.1),
        "bbmorrey": BesovBourgainMorrey(1.5, 2.0, 2.5, 2.0),
        "orlicz_slice": OrliczSlice(PowerOrlicz(2.0), 2.0, 0.15),
    }[kind]


def _stack(grid, rows, rng):
    """`rows` fields with 30% zeros; the second row, if any, is all zero."""
    values = rng.normal(scale=2.0, size=(rows, len(grid)))
    values[rng.random(values.shape) < 0.3] = 0.0
    values[1:2] = 0.0
    return values


def _one_at_a_time(spec, grid, values):
    return np.array([norm(spec, SampledField(grid, row)) for row in values])


def _assert_rows_match(stacked, single):
    assert stacked.shape == single.shape
    assert np.all(np.abs(stacked - single) <= STACK_RTOL * np.abs(single))


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("grid_name", list(STACK_GRIDS))
@pytest.mark.parametrize("kind", list(SPACES))
def test_stack_matches_single_fields(kind, grid_name, rows):
    grid = _grid(grid_name)
    if kind == "mixed" and grid.axes is None:
        pytest.skip("mixed norms need a tensor-product grid")
    spec = _spec(kind, grid.dimension)
    values = _stack(grid, rows, np.random.default_rng(rows))
    stacked = norm(spec, grid, values)
    single = _one_at_a_time(spec, grid, values)
    _assert_rows_match(stacked, single)
    if rows > 1:
        assert stacked[1] == 0.0


@pytest.mark.parametrize("kind", ["morrey", "orlicz_slice"])
def test_stack_larger_than_a_group(kind):
    """A stack past `_STACK_ENTRIES` is measured in groups of fields (70
    fields on the 316-point cloud: 2 groups for Morrey's distance blocks,
    and 10 groups of 7 for Orlicz-slice's one block of 2,074 ball pairs),
    each row as on its own."""
    grid = _grid("cloud-disk-0.1")
    spec = _spec(kind, grid.dimension)
    values = _stack(grid, 70, np.random.default_rng(70))
    assert 70 * min(len(grid), spaces._BALL_BLOCK) > spaces._STACK_ENTRIES
    _assert_rows_match(norm(spec, grid, values),
                       _one_at_a_time(spec, grid, values))


def test_bbmorrey_stack_larger_than_a_group(monkeypatch):
    """Besov-Bourgain-Morrey tiles its fields' cube weights over every
    level in groups of at most `_STACK_ENTRIES` entries (70 fields on the
    316-point cloud, 1,264 entries each: five groups of 12 and one of 10),
    and each row keeps the bits of its one-field call."""
    grid = _grid("cloud-disk-0.1")
    spec = _spec("bbmorrey", grid.dimension)
    values = _stack(grid, 70, np.random.default_rng(71))
    tiled = []
    original = spaces._stacked_bincount

    def spy(labels, weights, size):
        tiled.append(weights.size)
        return original(labels, weights, size)

    monkeypatch.setattr(spaces, "_stacked_bincount", spy)
    stacked = norm(spec, grid, values)
    monkeypatch.undo()
    # two bincounts per group: the cube sums, then the level sums
    groups = tiled[::2]
    per_field = sum(groups) // len(values)
    per_group = spaces._STACK_ENTRIES // per_field
    assert 1 < per_group < len(values)
    assert groups == [per_group * per_field] * (len(values) // per_group) \
        + [len(values) % per_group * per_field]
    assert np.array_equal(stacked, _one_at_a_time(spec, grid, values))


@pytest.mark.parametrize("kind", list(SPACES))
def test_mass_on_zero_weight_cells_has_norm_zero(kind):
    """Cells of weight 0 (a CSV grid may carry them) count for nothing: a
    field that is nonzero only there has norm 0 in every space."""
    coords = (np.arange(24) + 0.5) / 24
    weights = np.full(24, 1.0 / 24)
    weights[[5, 17]] = 0.0
    grid = QuadratureGrid(coords[:, None], weights, 1.0 / 24,
                          axes=((coords, weights),))
    values = np.zeros((2, 24))
    values[0, 5] = 3.0
    values[1, [5, 17]] = [1e-3, 1e3]
    assert np.array_equal(norm(_spec(kind, 1), grid, values), [0.0, 0.0])


@pytest.mark.parametrize("kind", list(SPACES))
def test_empty_stack_has_no_norms(kind):
    grid = _grid("square-36")
    out = norm(_spec(kind, grid.dimension), grid, np.zeros((0, len(grid))))
    assert out.shape == (0,)


def _fft_guard_trips(spec, grid, values):
    """Per row, whether Morrey's FFT guard sends it to the distance block."""
    radii, coords, bounds, box = spaces._morrey_ladder(grid)
    n = grid.dimension
    vol = (spaces.unit_ball_volume(n) * radii**n) ** (
        1.0 / spec.alpha - 1.0 / spec.r)
    trips = []
    for row in values:
        power = np.abs(row) ** spec.r * grid.weights
        sums, error = next(spaces._fft_ball_sums(coords, power[None],
                                                 bounds, box))
        cand = vol[:, None] * sums ** (1.0 / spec.r)
        at = np.unravel_index(np.argmax(cand), cand.shape)
        trips.append(bool(error > spaces._BALL_FFT_GUARD * sums[at]))
    return trips


def test_morrey_guard_is_decided_per_row(monkeypatch):
    """On the h = 0.05 disk (the FFT source) a spike over ones trips the
    guard under Morrey(50, 1.01); a lone spike and a zero row do not.
    Stacked together, each row keeps its own source and its own value."""
    grid = _grid("disk-0.05")
    spec = Morrey(50.0, 1.01)
    spike = np.zeros(len(grid))
    spike[len(grid) // 2] = 20.0
    tripping = np.ones(len(grid)) + spike
    values = np.stack([tripping, spike, np.zeros(len(grid)), 3.0 * tripping])
    assert _fft_guard_trips(spec, grid, values) == [True, False, False, True]
    blocked = []
    original = spaces._ladder_ball_sums

    def spy(pts, power, bounds):
        blocked.append(np.array(power))
        return original(pts, power, bounds)

    monkeypatch.setattr(spaces, "_ladder_ball_sums", spy)
    stacked = norm(spec, grid, values)
    # one pass of distance blocks, for the two rows the guard sent there
    assert len(blocked) == 1 and blocked[0].shape == (2, len(grid))
    single = _one_at_a_time(spec, grid, values)
    _assert_rows_match(stacked, single)
    assert stacked[2] == 0.0
    monkeypatch.setattr(spaces, "_BALL_FFT_COST", math.inf)
    _assert_rows_match(stacked, _one_at_a_time(spec, grid, values))


def test_schedule_measures_its_half_fields_in_one_call(monkeypatch):
    """A scale schedule makes one stacked norm call, and each value is the
    norm of that scale's half-field on its own."""
    grid = sample_quadrature(Disk((0.0, 0.0), 1.0), 0.1)
    f = sample(linear((0.6, 0.8)), grid)
    family = mollifiers.bump_family(2)
    nus = [0.4, 0.2, 0.1]
    spec = OrliczSpace(PowerLogOrlicz(1.5))
    calls = []
    original = nonlocal_energy.norm

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(nonlocal_energy, "norm", spy)
    values = nonlocal_energy.bbm_functional_schedule(f, 2.0, family, nus,
                                                     spec)
    assert len(calls) == 1
    monkeypatch.setattr(nonlocal_energy, "norm", original)
    single = np.array([
        norm(spec, energy_half_field(f, 2.0, family, nu))
        for nu in nus])
    _assert_rows_match(values, single)


# ---------------------------------------------------------------------------
# The audits against a loop of single-field calls on the same draws

def _one(spec, grid, values):
    return norm(spec, SampledField(grid, values))


def _reference_cases(suite, spec, grid, rng, cases):
    """The audit's cases, drawn as the audit draws them (each random input
    as one stack over the cases) and measured one field at a time."""
    n = len(grid)
    if suite == "lattice":
        f = rng.normal(scale=2.0, size=(cases, n))
        damp = rng.uniform(0.0, 1.0, size=(cases, n))
        return [_one(spec, grid, fk * dk) - _one(spec, grid, fk)
                for fk, dk in zip(f, damp)]
    if suite == "fatou":
        out = []
        for fk in np.abs(rng.normal(scale=2.0, size=(cases, n))):
            cuts = np.linspace(0.2, 1.0, 5) * max(float(fk.max()), 1e-9)
            norms = [_one(spec, grid, np.minimum(fk, c)) for c in cuts]
            worst = max(norms[i] - norms[i + 1] for i in range(4))
            out.append(max(worst, abs(norms[-1] - _one(spec, grid, fk))))
        return out
    if suite == "triangle":
        pairs = rng.normal(scale=2.0, size=(cases, 2, n))
        return [_one(spec, grid, fk + gk) - _one(spec, grid, fk)
                - _one(spec, grid, gk) for fk, gk in pairs]
    f = rng.normal(scale=2.0, size=(cases, n))
    c = rng.uniform(0.1, 10.0, size=cases) * rng.choice([-1.0, 1.0],
                                                        size=cases)
    out = []
    for fk, ck in zip(f, c):
        ref = abs(ck) * _one(spec, grid, fk)
        out.append(abs(_one(spec, grid, ck * fk) - ref) / max(ref, 1.0))
    return out


SUITES = [("lattice", checks.LATTICE_SLACK), ("fatou", checks.FATOU_SLACK),
          ("triangle", checks.TRIANGLE_SLACK),
          ("homogeneity", checks.HOMOGENEITY_SLACK)]


def _worst_of(detail):
    """The worst violation a result row prints."""
    return float(detail.split()[3 if "relative" in detail else 2])


def _assert_worst_agrees(detail, want):
    # printed to 4 significant digits; the rest is round-off
    assert abs(_worst_of(detail) - want) <= 5e-4 * abs(want) + 1e-14


def test_axiom_suites_match_single_field_loop():
    cases, seed = 20, 7
    rows = checks.run_axiom_suites(cases=cases, seed=seed)
    expected = []
    for engine, spec, grid in checks.engine_catalog():
        for suite, slack in SUITES:
            rng = np.random.default_rng(seed)
            want = np.array(_reference_cases(suite, spec, grid, rng, cases))
            got = getattr(checks, f"{suite}_violation")(
                spec, grid, np.random.default_rng(seed), cases)
            assert np.abs(got - want).max() <= 1e-12, (suite, engine)
            expected.append((f"{suite}:{engine}", want.max() <= slack,
                             want.max()))
    assert [(r.name, r.passed) for r in rows] == [e[:2] for e in expected]
    for row, (_, _, worst) in zip(rows, expected):
        _assert_worst_agrees(row.detail, worst)


def test_reduction_suite_matches_single_field_loop():
    cases, seed = 20, 2024
    rows = checks.run_reduction_suite(cases=cases, seed=seed)
    expected = []
    for name, spec, ref, grid in checks.reduction_pairs():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(cases):
            f = rng.normal(scale=2.0, size=len(grid))
            a, b = _one(spec, grid, f), _one(ref, grid, f)
            worst = max(worst, abs(a - b) / max(b, 1e-30))
        expected.append((f"reduction:{name}", worst <= checks.REDUCTION_TOL,
                         worst))
    assert [(r.name, r.passed) for r in rows] == [e[:2] for e in expected]
    for row, (_, _, worst) in zip(rows, expected):
        _assert_worst_agrees(row.detail, worst)


# ---------------------------------------------------------------------------
# Bad stacks

@pytest.fixture
def audit_grid():
    return sample_quadrature(Interval(0.0, 1.0), 1.0 / 24)


def test_wrong_trailing_length_fails_by_name(audit_grid):
    values = np.ones((3, len(audit_grid) + 1))
    with pytest.raises(ValueError, match="values length must match the grid"):
        norm(Lebesgue(2.0), audit_grid, values)
    with pytest.raises(ValueError, match="values length must match the grid"):
        norm(Lebesgue(2.0), audit_grid, values[0])


def test_three_dimensional_values_fail_by_name(audit_grid):
    values = np.ones((2, 3, len(audit_grid)))
    with pytest.raises(ValueError, match=r"one field \(N,\) or a stack"):
        norm(Lebesgue(2.0), audit_grid, values)


def test_non_finite_entry_fails_by_name(audit_grid):
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones((4, len(audit_grid)))
        values[2, 5] = bad
        with pytest.raises(ValueError, match="field has non-finite values"):
            norm(Lebesgue(2.0), audit_grid, values)


def test_grid_is_checked_once_per_stack(audit_grid, monkeypatch):
    spec = VariableLebesgue(lambda pts: 2.0 + 0.5 * pts[:, 0])
    calls = []
    original = VariableLebesgue.check_grid

    def counting(self, grid):
        calls.append(grid)
        return original(self, grid)

    monkeypatch.setattr(VariableLebesgue, "check_grid", counting)
    out = norm(spec, audit_grid, np.ones((5, len(audit_grid))))
    assert out.shape == (5,) and len(calls) == 1
    bad = VariableLebesgue(lambda pts: 0.5 + pts[:, 0])
    with pytest.raises(ValueError, match="above 1"):
        norm(bad, audit_grid, np.ones((5, len(audit_grid))))
