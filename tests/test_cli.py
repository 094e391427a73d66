import csv
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from bbmlab import nonlocal_energy
from bbmlab.cli import ConfigError, main, parse_config, run_experiment
from bbmlab.field import indicator_halfspace, linear, radial_bump
from bbmlab.geometry import Box, Disk, Interval
from bbmlab.mollifiers import fractional_family
from bbmlab.spaces import (
    ConstantWeight,
    HerzLocal,
    OrliczSpace,
    PowerOrlicz,
    WeightedLebesgue,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

MEMBER_CFG = """
# 1-d linear field, bump kernel
domain.kind = interval
domain.a = 0
domain.b = 1
function.kind = linear
function.v = 1
space.kind = lebesgue
space.q = 2
family.kind = bump
schedule.nu_start = 0.2
schedule.ratio = 0.5
schedule.count = 5
p = 2
mode = rdati
h = 0.004
tolerance = 0.05
expectation = member
"""


@pytest.fixture
def member_config(tmp_path):
    path = tmp_path / "member.cfg"
    path.write_text(MEMBER_CFG)
    return path


class TestParseConfig:
    def test_key_value_nesting(self, member_config):
        config = parse_config(member_config)
        assert config["domain"]["kind"] == "interval"
        assert config["p"] == 2
        assert config["schedule"]["ratio"] == 0.5

    def test_lists_and_nested_lists(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("function.v = 1,0\ndomain.vertices = 0,0; 1,0; 0,1\n")
        config = parse_config(path)
        assert config["function"]["v"] == [1, 0]
        assert config["domain"]["vertices"] == [[0, 0], [1, 0], [0, 1]]

    def test_json_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"p": 2, "domain": {"kind": "disk"}}))
        config = parse_config(path)
        assert config["domain"]["kind"] == "disk"

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a key value pair\n")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestRun:
    def test_member_run_exit_zero(self, member_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(member_config),
                     "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "series.csv").exists()
        assert (out / "plot.svg").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "member"

    def test_report_json_roundtrip_bytes(self, member_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(member_config), "--out", str(out)])
        raw = (out / "report.json").read_bytes()
        data = json.loads(raw)
        again = (json.dumps(data, sort_keys=True, indent=2) + "\n").encode()
        assert raw == again

    def test_series_csv_schema(self, member_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(member_config), "--out", str(out)])
        lines = (out / "series.csv").read_text().strip().splitlines()
        assert lines[0] == "nu_or_s,value,target,ratio"
        assert len(lines) == 1 + 5

    def test_identical_config_identical_artifacts(self, member_config,
                                                  tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(member_config), "--out", str(out1)])
        main(["run", "--config", str(member_config), "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()
        assert (out1 / "series.csv").read_bytes() == \
            (out2 / "series.csv").read_bytes()

    def test_nu0_violation_names_the_bound(self, tmp_path, capsys):
        cfg = MEMBER_CFG.replace("family.kind = bump",
                                 "family.kind = fractional")
        cfg = cfg.replace("schedule.nu_start = 0.2",
                          "schedule.nu_start = 0.8")
        path = tmp_path / "bad.cfg"
        path.write_text(cfg)
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "min{n/p, 1}" in err

    def test_p_below_one_rejected_before_the_grid(self, tmp_path,
                                                  monkeypatch):
        from bbmlab import cli

        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for an invalid p")

        monkeypatch.setattr(cli, "sample_quadrature", no_grid)
        path = tmp_path / "p_half.cfg"
        path.write_text(MEMBER_CFG.replace("p = 2", "p = 0.5"))
        with pytest.raises(ConfigError) as info:
            cli.run_experiment(parse_config(path), tmp_path / "out")
        assert info.value.field == "p"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("h", 0), ("h", "fine"), ("stride", 2.5), ("stride", 0),
        ("tolerance", -1), ("scheme", "bogus"), ("p", "two"),
    ])
    def test_bad_value_rejected_before_the_grid(self, member_config,
                                                 tmp_path, monkeypatch,
                                                 field, value):
        from bbmlab import cli

        def no_grid(*args, **kwargs):
            raise AssertionError(f"grid built for {field} = {value!r}")

        monkeypatch.setattr(cli, "sample_quadrature", no_grid)
        config = parse_config(member_config)
        config[field] = value
        with pytest.raises(ConfigError) as info:
            cli.run_experiment(config, tmp_path / "out")
        assert info.value.field == field
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize("count", [4.9, 2.7])
    def test_fractional_schedule_count_named(self, member_config, tmp_path,
                                             monkeypatch, count):
        from bbmlab import cli

        def no_grid(*args, **kwargs):
            raise AssertionError(f"grid built for count = {count!r}")

        monkeypatch.setattr(cli, "sample_quadrature", no_grid)
        config = parse_config(member_config)
        config["schedule"]["count"] = count
        with pytest.raises(ConfigError) as info:
            cli.run_experiment(config, tmp_path / "out")
        assert info.value.field == "schedule.count"
        assert repr(count) in str(info.value)

    @pytest.mark.parametrize("record", [{"count": 2},
                                        {"values": [0.2, 0.1, 0.05]}])
    def test_short_schedule_named(self, member_config, tmp_path,
                                  monkeypatch, record):
        from bbmlab import cli

        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for a short schedule")

        monkeypatch.setattr(cli, "sample_quadrature", no_grid)
        config = parse_config(member_config)
        config["schedule"].update(record)  # `values` overrides the rest
        with pytest.raises(ConfigError) as info:
            cli.run_experiment(config, tmp_path / "out")
        assert info.value.field == "schedule"
        assert "at least 4" in str(info.value)

    def test_h_beyond_the_domain_names_h(self, member_config, tmp_path):
        config = parse_config(member_config)
        config["h"] = 2.0
        with pytest.raises(ConfigError) as info:
            run_experiment(config, tmp_path / "out")
        assert info.value.field == "h"

    def test_config_error_pickles(self):
        error = ConfigError("p", "bad")
        again = pickle.loads(pickle.dumps(error))
        assert type(again) is ConfigError
        assert (again.field, again.message) == ("p", "bad")
        assert str(again) == str(error)

    def test_missing_space_record(self, tmp_path, capsys):
        cfg = "\n".join(line for line in MEMBER_CFG.splitlines()
                        if not line.startswith("space."))
        path = tmp_path / "nospace.cfg"
        path.write_text(cfg)
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "space" in capsys.readouterr().err

    def test_inconclusive_exit_two(self, tmp_path):
        # Morrey norms only admit two-sided bounds, never a member verdict
        cfg = MEMBER_CFG.replace("space.kind = lebesgue",
                                 "space.kind = morrey\nspace.alpha = 3\n"
                                 "space.r = 2")
        cfg = cfg.replace("space.q = 2\n", "")
        cfg = cfg.replace("expectation = member\n", "")
        path = tmp_path / "morrey.cfg"
        path.write_text(cfg)
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_expectation_mismatch(self, tmp_path, capsys):
        cfg = MEMBER_CFG.replace("expectation = member",
                                 "expectation = non-member")
        path = tmp_path / "c.cfg"
        path.write_text(cfg)
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1


INTERVAL = "domain.kind = interval\ndomain.a = 0\ndomain.b = 1\n"
DISK = "domain.kind = disk\ndomain.center = 0, 0\ndomain.radius = 1\n"
LINEAR = "function.kind = linear\nfunction.v = 1\n"
LEBESGUE = "space.kind = lebesgue\nspace.q = 2\n"
GEOMETRIC = ("schedule.nu_start = 0.2\nschedule.ratio = 0.5\n"
             "schedule.count = 5\n")
POLYGON = "domain.kind = polygon\ndomain.vertices = {}\n"
BBMORREY = ("space.kind = bbmorrey\nspace.q = 2\nspace.p = 2\n"
            "space.r = 2\nspace.tau = 2\n")
WEIGHT_TABLE = ("space.kind = weighted\nspace.q = 2\nspace.weight = table\n"
                "space.weight_table = {tmp}/w.csv\n")

# (id, text of MEMBER_CFG, its replacement, the argument the error names)
# for domain records, whose errors name the record 'domain'
DOMAIN_ERRORS = [
    ("disk-radius", INTERVAL, DISK.replace("= 1", "= two"), "radius"),
    ("disk-radius-inf", INTERVAL, DISK.replace("= 1", "= inf"), "radius"),
    ("disk-radius-nan", INTERVAL, DISK.replace("= 1", "= nan"), "radius"),
    ("disk-radius-zero", INTERVAL, DISK.replace("= 1", "= 0"), "radius"),
    ("disk-center-inf", INTERVAL, DISK.replace("0, 0", "0, inf"), "center"),
    ("interval-a", "domain.a = 0", "domain.a = two", "a"),
    ("interval-b-inf", "domain.b = 1", "domain.b = inf", "b"),
    ("box-lo-nan", INTERVAL, "domain.kind = box\ndomain.lo = nan\n"
     "domain.hi = 1\n", "lo"),
    ("polygon-vertex-inf", INTERVAL, POLYGON.format("0, 0; 1, 0; inf, 1"),
     "vertices"),
    ("polygon-vertex-nan", INTERVAL, POLYGON.format("0, 0; 1, 0; nan, 1"),
     "vertices"),
    ("polygon-collinear", INTERVAL, POLYGON.format("0, 0; 1, 0; 2, 0"),
     "vertices"),
    ("polygon-vertex-3d", INTERVAL, POLYGON.format("0, 0, 0; 1, 0; 0, 1"),
     "vertices"),
    ("polygon-self-intersecting", INTERVAL,
     POLYGON.format("0, 0; 2, 2; 2, 0; 0, 1"), "vertices"),
]

# (id, text of MEMBER_CFG, its replacement, the field the error names);
# {tmp} is a directory holding w.csv and phi.csv, each with a short row
CONFIG_ERRORS = [
    *[(name, old, new, "domain") for name, old, new, _ in DOMAIN_ERRORS],
    ("disk-center", INTERVAL, DISK.replace("0, 0", "0"), "domain"),
    ("polygon-vertices", INTERVAL,
     "domain.kind = polygon\ndomain.vertices = 1\n", "domain"),
    ("function-plain", LINEAR, "function = linear\n", "function"),
    ("schedule-plain", GEOMETRIC, "schedule = 0.2\n", "schedule"),
    ("function-kind", "= linear", "= cubic", "function.kind"),
    ("domain-kind-list", "= interval", "= interval, box", "domain.kind"),
    ("space-kind-list", "= lebesgue", "= lebesgue, lorentz", "space.kind"),
    ("function-v", "function.v = 1", "function.v = two", "function"),
    ("nu-start", "nu_start = 0.2", "nu_start = two", "schedule"),
    ("schedule-values", GEOMETRIC, "schedule.values = 0.2, 0.1, x, 0.02\n",
     "schedule"),
    ("bump-radius-negative", LINEAR,
     "function.kind = radial-bump\nfunction.radius = -1\n", "function"),
    ("bump-radius-zero", LINEAR,
     "function.kind = radial-bump\nfunction.radius = 0\n", "function"),
    ("halfspace-zero-normal", LINEAR,
     "function.kind = indicator-halfspace\nfunction.normal = 0\n",
     "function"),
    ("weight-table-short-row", LEBESGUE, WEIGHT_TABLE, "space"),
    ("orlicz-table-short-row", LEBESGUE,
     "space.kind = orlicz\nspace.phi = table\n"
     "space.phi_table = {tmp}/phi.csv\n", "space"),
    ("orlicz-table-number", LEBESGUE,
     "space.kind = orlicz\nspace.phi = table\nspace.phi_table = 0\n",
     "space"),
    ("bbmorrey-j-float", LEBESGUE, BBMORREY + "space.j_min = 1.5\n", "space"),
    ("bbmorrey-j-reversed", LEBESGUE,
     BBMORREY + "space.j_min = 5\nspace.j_max = -5\n", "space"),
    # specs that cannot measure on the grid the config builds
    ("mixed-disk", INTERVAL + LINEAR + LEBESGUE,
     DISK + "function.kind = linear\nspace.kind = mixed\n"
     "space.rvec = 2, 2\n", "space"),
    ("mixed-quasi-random", LEBESGUE,
     "space.kind = mixed\nspace.rvec = 2\nscheme = quasi-random\n", "space"),
    ("mixed-rvec-length", LEBESGUE, "space.kind = mixed\nspace.rvec = 2, 2\n",
     "space"),
    ("variable-exponent-one", LEBESGUE,
     "space.kind = variable\nspace.base = 1\n", "space"),
    ("variable-exponent-nan", LEBESGUE,
     "space.kind = variable\nspace.base = nan\n", "space"),
    ("variable-exponent-inf", LEBESGUE,
     "space.kind = variable\nspace.base = inf\n", "space"),
    ("herz-xi-dimension", LEBESGUE,
     "space.kind = herz_local\nspace.p = 2\nspace.q = 2\nspace.xi = 0, 0\n",
     "space"),
    # non-finite spec parameters
    ("orlicz-slice-t-inf", LEBESGUE,
     "space.kind = orlicz_slice\nspace.r = 2\nspace.t = inf\n", "space"),
    ("lebesgue-q-nan", "space.q = 2", "space.q = nan", "space"),
    ("lebesgue-q-inf", "space.q = 2", "space.q = inf", "space"),
    ("power-orlicz-q-inf", LEBESGUE,
     "space.kind = orlicz\nspace.phi_q = inf\n", "space"),
]


def _error_line(tmp_path, capsys, old, new):
    """The one stderr line of a run of MEMBER_CFG with `old` replaced."""
    (tmp_path / "w.csv").write_text("0.25,1\n0.75\n")
    (tmp_path / "phi.csv").write_text("1,1\n2\n")
    assert old in MEMBER_CFG
    return _only_error_line(tmp_path, capsys,
                            MEMBER_CFG.replace(old, new.format(tmp=tmp_path)))


def _only_error_line(tmp_path, capsys, text):
    """The one stderr line of a failing run of the config `text`."""
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code = main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


class TestTinyH:
    @pytest.mark.parametrize("domain", [
        INTERVAL + LINEAR,
        DISK + "function.kind = linear\nfunction.v = 1, 0\n",
    ], ids=["1d", "2d"])
    @pytest.mark.parametrize("scheme", ["tensor-midpoint", "quasi-random"])
    def test_one_named_line(self, tmp_path, capsys, domain, scheme):
        """A spacing whose point count no array can hold fails by name."""
        text = MEMBER_CFG.replace(INTERVAL + LINEAR, domain).replace(
            "h = 0.004", f"h = 1e-200\nscheme = {scheme}")
        line = _only_error_line(tmp_path, capsys, text)
        assert line.startswith("config error in 'h'")


class TestConfigErrors:
    @pytest.mark.parametrize("old, new, field",
                             [case[1:] for case in CONFIG_ERRORS],
                             ids=[case[0] for case in CONFIG_ERRORS])
    def test_one_named_line(self, tmp_path, capsys, old, new, field):
        line = _error_line(tmp_path, capsys, old, new)
        assert line.startswith(f"config error in {field!r}")

    @pytest.mark.parametrize("old, new, field",
                             [case[1:] for case in CONFIG_ERRORS],
                             ids=[case[0] for case in CONFIG_ERRORS])
    def test_fails_before_the_energy_pass(self, tmp_path, capsys,
                                          monkeypatch, old, new, field):
        from bbmlab import cli

        def energy_pass(*args, **kwargs):
            raise AssertionError("the energy pass ran")

        monkeypatch.setattr(cli, "convergence_study", energy_pass)
        line = _error_line(tmp_path, capsys, old, new)
        assert line.startswith(f"config error in {field!r}")

    @pytest.mark.parametrize("base", ["1", "nan", "inf"])
    def test_constant_exponent_fails_before_the_grid(self, tmp_path, capsys,
                                                     monkeypatch, base):
        from bbmlab import cli

        grids = []
        monkeypatch.setattr(cli, "sample_quadrature",
                            lambda *args, **kwargs: grids.append(args))
        line = _error_line(tmp_path, capsys, LEBESGUE,
                           f"space.kind = variable\nspace.base = {base}\n")
        assert line.startswith("config error in 'space': variable exponent")
        assert grids == []

    @pytest.mark.parametrize("old, new, key",
                             [case[1:] for case in DOMAIN_ERRORS],
                             ids=[case[0] for case in DOMAIN_ERRORS])
    def test_domain_line_names_the_argument(self, tmp_path, capsys, old,
                                            new, key):
        line = _error_line(tmp_path, capsys, old, new)
        assert line.startswith(f"config error in 'domain': {key} must ")

    @pytest.mark.parametrize("line, key, value", [
        ("tolerence = 0.0001", "tolerence", "0.0001"),
        ("stride = 2", "stride", "2"),
    ])
    def test_unknown_key_named_with_its_value(self, tmp_path, capsys, line,
                                              key, value):
        error = _only_error_line(tmp_path, capsys, MEMBER_CFG + line + "\n")
        assert error.startswith(f"config error in {key!r}: unknown key "
                                f"(set to {value})")

    @pytest.mark.parametrize("kind", ["bump", "nonsense"])
    def test_gagliardo_mode_takes_no_family(self, tmp_path, capsys, kind):
        text = (CONFIG_DIR / "gagliardo_1d_linear.cfg").read_text()
        error = _only_error_line(tmp_path, capsys,
                                 text + f"family.kind = {kind}\n")
        assert error.startswith("config error in 'family'")

    def test_gagliardo_s_outside_the_unit_interval(self, tmp_path, capsys,
                                                   monkeypatch):
        from bbmlab import cli

        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for s = 1")

        monkeypatch.setattr(cli, "sample_quadrature", no_grid)
        text = (CONFIG_DIR / "gagliardo_1d_linear.cfg").read_text()
        error = _only_error_line(tmp_path, capsys, text.replace(
            "0.95, 0.975", "0.95, 1.0"))
        assert error.startswith("config error in 'schedule': nu=0.0 outside")

    def test_table_error_names_file_and_line(self, tmp_path, capsys):
        (tmp_path / "w.csv").write_text("0.25,1\n0.75\n")
        path = tmp_path / "bad.cfg"
        path.write_text(MEMBER_CFG.replace(LEBESGUE, WEIGHT_TABLE)
                        .format(tmp=tmp_path))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"{tmp_path}/w.csv, line 2" in capsys.readouterr().err


# records as the README documents them, defaults left out, and the objects
# they must build
RECORDS = [
    ({}, "domain", Interval(0.0, 1.0)),
    ({"domain": {"kind": "box", "lo": 0, "hi": 1}},
     "domain", Box((0.0,), (1.0,))),
    ({"domain": {"kind": "box", "lo": [0, 0], "hi": [1, 2]},
      "function": {"kind": "quadratic"}},
     "domain", Box((0.0, 0.0), (1.0, 2.0))),
    ({"domain": {"kind": "disk", "center": [0, 0], "radius": 1},
      "function": {"kind": "product-sine"}},
     "domain", Disk((0.0, 0.0), 1)),
    ({"domain": {"kind": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]},
      "function": {"kind": "linear"}},
     "fn", linear((1.0, 1.0))),
    ({"function": {"kind": "linear"}}, "fn", linear((1.0,))),
    ({"function": {"kind": "indicator-halfspace"}},
     "fn", indicator_halfspace((1.0,), 0.0)),
    ({"function": {"kind": "radial-bump"}}, "fn", radial_bump((0.0,), 1.0)),
    ({"family": {"kind": "fractional"}},
     "family", fractional_family(2.0, 2.0, 1)),
    ({"space": {"kind": "weighted", "q": 2}},
     "spec", WeightedLebesgue(2, ConstantWeight(1.0))),
    ({"space": {"kind": "orlicz"}}, "spec", OrliczSpace(PowerOrlicz(2.0))),
    ({"space": {"kind": "herz_local", "p": 2, "q": 2}},
     "spec", HerzLocal(2, 2, 0.0, (0.0,))),
]


@pytest.mark.parametrize("change, part, expected", RECORDS)
def test_record_builds_the_documented_object(member_config, monkeypatch,
                                             tmp_path, change, part,
                                             expected):
    from bbmlab import cli

    def capture(field, p, spec, family, schedule, **kwargs):
        raise LookupError({"domain": field.grid.domain, "fn": field.fn,
                           "family": family, "spec": spec})

    monkeypatch.setattr(cli, "convergence_study", capture)
    config = {**parse_config(member_config), **change, "h": 0.1}
    with pytest.raises(LookupError) as info:
        run_experiment(config, tmp_path / "out")
    assert info.value.args[0][part] == expected


class TestSweep:
    def test_sweep_over_p(self, member_config, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(member_config),
                     "--out", str(out), "--set", "p=1,2"])
        assert code == 0
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 3
        assert (out / "run_000" / "report.json").exists()
        assert (out / "run_001" / "report.json").exists()

    def test_reduction_across_specs(self, member_config, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(member_config),
                     "--out", str(out), "--set", "space.kind=lebesgue"])
        assert code == 0
        report = json.loads((out / "run_000" / "report.json").read_text())
        assert report["verdict"] == "member"

    def test_sweep_specs_share_the_limit(self, tmp_path):
        # lorentz(r, r) must reproduce the Lebesgue limit; the base config
        # carries parameters for both spaces so the sweep can swap kinds
        cfg = {
            "domain": {"kind": "interval", "a": 0, "b": 1},
            "function": {"kind": "linear", "v": 1},
            "space": {"kind": "lebesgue", "q": 2, "r": 2, "tau": 2},
            "family": {"kind": "bump"},
            "schedule": {"nu_start": 0.2, "ratio": 0.5, "count": 5},
            "p": 2, "mode": "rdati", "h": 0.004, "tolerance": 0.05,
        }
        path = tmp_path / "base.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(path), "--out", str(out),
                     "--set", "space.kind=lebesgue,lorentz"])
        assert code == 0
        limits = []
        for run in ("run_000", "run_001"):
            report = json.loads((out / run / "report.json").read_text())
            limits.append(report["extrapolated_limit"])
        assert limits[0] == pytest.approx(limits[1], rel=1e-9)

    def test_empty_override_single_run(self, member_config, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(member_config),
                     "--out", str(out)])
        assert code == 0
        single = json.loads((out / "run_000" / "report.json").read_text())
        run_out = tmp_path / "plain"
        main(["run", "--config", str(member_config), "--out", str(run_out)])
        plain = json.loads((run_out / "report.json").read_text())
        assert single == plain

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_case_is_recorded(self, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config",
                     str(CONFIG_DIR / "bbm_1d_linear.cfg"),
                     "--out", str(out), "--set", "p=2,0.5", "--jobs", jobs])
        assert code == 1
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["run"] for row in rows] == ["run_000", "run_001"]
        assert [row["status"] for row in rows] == ["ok", "failed"]
        assert rows[0]["verdict"] == "member"
        assert rows[0]["error"] == ""
        assert "'p'" in rows[1]["error"]
        assert rows[1]["verdict"] == ""
        assert all(float(row["wall_s"]) >= 0.0 for row in rows)
        assert (out / "run_000" / "report.json").exists()
        assert "run_001 failed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, env, name", [
        (["--jobs", "-3"], None, "--jobs"),
        (["--jobs", "2.5"], None, "--jobs"),
        ([], "two", "BBMLAB_JOBS"),
        ([], "0", "BBMLAB_JOBS"),
    ])
    def test_bad_jobs_value_named(self, member_config, tmp_path, capsys,
                                  monkeypatch, flag, env, name):
        if env is not None:
            monkeypatch.setenv("BBMLAB_JOBS", env)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(member_config),
                     "--out", str(out), *flag])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and repr(name) in err[0]
        assert not out.exists()

    def test_jobs_environment_read_by_sweep_only(self, member_config,
                                                 tmp_path, monkeypatch):
        monkeypatch.setenv("BBMLAB_JOBS", "two")
        assert main(["run", "--config", str(member_config),
                     "--out", str(tmp_path / "out")]) == 0
        assert main(["sweep", "--config", str(member_config),
                     "--out", str(tmp_path / "sweep"), "--jobs", "1"]) == 0

    def test_unknown_override_key(self, member_config, tmp_path, capsys):
        code = main(["sweep", "--config", str(member_config),
                     "--out", str(tmp_path / "s"), "--set", "nope=1,2"])
        assert code == 1

    def test_sweep_over_a_defaulted_key(self, tmp_path, capsys):
        # the config leaves `scheme` to its default, tensor-midpoint
        config = CONFIG_DIR / "bbm_1d_linear.cfg"
        assert "scheme" not in parse_config(config)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config), "--out", str(out),
                     "--set", "scheme=tensor-midpoint,quasi-random"])
        assert code == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["scheme"] for row in rows] == ["tensor-midpoint",
                                                   "quasi-random"]
        assert [row["status"] for row in rows] == ["ok", "ok"]
        plain = tmp_path / "plain"
        assert main(["run", "--config", str(config),
                     "--out", str(plain)]) == 0
        assert (out / "run_000" / "report.json").read_text() == \
            (plain / "report.json").read_text()
        assert (out / "run_001" / "report.json").read_text() != \
            (plain / "report.json").read_text()
        capsys.readouterr()
        code = main(["sweep", "--config", str(config), "--out",
                     str(tmp_path / "s"), "--set", "schema=quasi-random"])
        assert code == 1
        assert "'schema': override references a missing key" in \
            capsys.readouterr().err


    def test_sweep_over_a_defaulted_record_key(self, tmp_path, capsys):
        # the config's space record leaves `phi` to its default, power
        config = CONFIG_DIR / "bbm_1d_linear.cfg"
        assert "phi" not in parse_config(config)["space"]
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config), "--out", str(out),
                     "--set", "space.phi=power,plog"])
        assert code == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["space.phi"] for row in rows] == ["power", "plog"]
        assert [row["status"] for row in rows] == ["ok", "ok"]
        capsys.readouterr()
        code = main(["sweep", "--config", str(config), "--out",
                     str(tmp_path / "s"), "--set", "space.phy=power,plog"])
        assert code == 1
        assert "'space.phy': override references a missing key" in \
            capsys.readouterr().err


class TestBundledConfigs:
    def test_bbm_1d_linear_example(self, tmp_path):
        code = main(["run", "--config", str(CONFIG_DIR / "bbm_1d_linear.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] == "member"

    def test_indicator_divergence_example(self, tmp_path):
        code = main(["run",
                     "--config", str(CONFIG_DIR / "indicator_divergence.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] == "non-member"
        assert report["extrapolated_limit"] == "diverging"


@pytest.mark.parametrize("name", ["bbm_1d_linear", "gagliardo_1d_linear",
                                  "indicator_divergence"])
def test_bundled_config_report_bytes(tmp_path, name):
    """report.json of each bundled config is pinned byte for byte."""
    run_experiment(parse_config(CONFIG_DIR / f"{name}.cfg"), tmp_path)
    assert (tmp_path / "report.json").read_bytes() == \
        (GOLDEN_DIR / f"{name}.report.json").read_bytes()


def test_indicator_divergence_golden_is_the_offset_pass(tmp_path,
                                                        monkeypatch):
    """Every bundled golden may take the FFT far field; with every offset
    on the offset pass each report agrees with its golden to round-off:
    functional values and the extrapolated limit within 1e-12 relative,
    every other field equal apart from the fit's own diagnostics."""
    monkeypatch.setattr(nonlocal_energy, "_FFT_COST", math.inf)
    for name in ("bbm_1d_linear", "gagliardo_1d_linear",
                 "indicator_divergence"):
        out = tmp_path / name
        out.mkdir()
        run_experiment(parse_config(CONFIG_DIR / f"{name}.cfg"), out)
        got = json.loads((out / "report.json").read_text())
        golden = json.loads(
            (GOLDEN_DIR / f"{name}.report.json").read_text())
        for report in (got, golden):
            for key in ("fit_residual", "fitted_beta", "relative_error"):
                report.pop(key)
        values, golden_values = (r.pop("functional_values")
                                 for r in (got, golden))
        assert np.allclose(values, golden_values, rtol=1e-12, atol=0.0)
        limit, golden_limit = (r.pop("extrapolated_limit")
                               for r in (got, golden))
        if isinstance(golden_limit, str):
            assert limit == golden_limit
        else:
            assert limit == pytest.approx(golden_limit, rel=1e-12, abs=0.0)
        assert got == golden


class TestOracleCommand:
    def test_sphere_moment(self, capsys):
        code = main(["oracle", "sphere-moment", "--p", "2", "--n", "2",
                     "--samples", "20000", "--seed", "0"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(np.pi, rel=0.05)

    def test_rearrangement(self, tmp_path, capsys):
        path = tmp_path / "vals.csv"
        path.write_text("3.0,1.0\n1.0,1.0\n2.0,1.0\n")
        code = main(["oracle", "rearrangement", "--input", str(path)])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        levels = [float(r.split(",")[2]) for r in rows]
        assert levels == [3.0, 2.0, 1.0]

    def test_dense_1d(self, capsys):
        code = main(["oracle", "dense-1d", "--function", "linear",
                     "--a", "0", "--b", "1", "--p", "2", "--q", "2",
                     "--scale", "0.1", "--resolution", "0.001"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(np.sqrt(2.0 - 0.1), rel=0.02)

    @pytest.mark.parametrize("argv, named", [
        (["dense-1d", "--mode", "gagliardo", "--scale", "1.5"], "s must"),
        (["dense-1d", "--resolution", "0"], "resolution"),
        (["rearrangement", "--input", "missing.csv"], "missing.csv"),
        (["sphere-moment", "--n", "0", "--samples", "10"], "n must"),
        (["dense-1d", "--function", "cubic"], "cubic"),
        (["rearrangement"], "--input"),
        (["rearrangement", "--input", "short.csv"], "short.csv, line 2"),
        (["sphere-moment", "--seed", "-1", "--samples", "10"], "'--seed'"),
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, monkeypatch,
                                         capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "short.csv").write_text("3.0,1.0\n1.0\n")
        assert main(["oracle", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and named in lines[0]


class TestDomainRecords:
    def test_polygon_run(self, tmp_path):
        cfg = {
            "domain": {"kind": "polygon",
                       "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            "function": {"kind": "linear", "v": [1, 0]},
            "space": {"kind": "lebesgue", "q": 2},
            "family": {"kind": "bump"},
            "schedule": {"nu_start": 0.2, "ratio": 0.5, "count": 4},
            "p": 2, "mode": "rdati", "h": 0.02, "tolerance": 0.05,
        }
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_sweep_starts_no_more_workers_than_runs(self, member_config,
                                                    tmp_path, monkeypatch):
        from bbmlab import cli

        sizes = []

        class RecordingPool:
            """Records the pool size and runs the cases in-process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        assert main(["sweep", "--config", str(member_config), "--out",
                     str(tmp_path / "two"), "--set", "p=1,2",
                     "--jobs", "8"]) == 0
        assert sizes == [2]
        # one run takes no pool at all
        assert main(["sweep", "--config", str(member_config), "--out",
                     str(tmp_path / "one"), "--jobs", "8"]) == 0
        assert sizes == [2]
        assert (tmp_path / "one" / "run_000" / "report.json").exists()

    def test_parallel_sweep(self, member_config, tmp_path):
        out = tmp_path / "par"
        code = main(["sweep", "--config", str(member_config),
                     "--out", str(out), "--set", "p=1,2", "--jobs", "2"])
        assert code == 0
        assert (out / "summary.csv").exists()
        assert (out / "run_001" / "report.json").exists()


def test_check_spaces_smoke(capsys):
    code = main(["check-spaces", "--cases", "3", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS lattice:lebesgue" in out


@pytest.mark.parametrize("cases", ["0", "-3", "1.5"])
def test_check_spaces_needs_a_case(capsys, cases):
    """An audit of no cases would report PASS after checking nothing."""
    code = main(["check-spaces", "--cases", cases])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and repr("--cases") in lines[0]


@pytest.mark.parametrize("suite", ["run_axiom_suites", "run_reduction_suite"])
@pytest.mark.parametrize("cases", [0, -3, 1.5, True])
def test_audit_suites_need_a_case(suite, cases):
    from bbmlab import checks

    with pytest.raises(ValueError, match="cases must be an integer >= 1"):
        getattr(checks, suite)(cases=cases)


@pytest.mark.parametrize("seed", ["-1", "1.5", "one"])
def test_check_spaces_needs_a_seed(capsys, seed):
    """numpy takes no negative seed; the flag is named before any audit."""
    code = main(["check-spaces", "--cases", "1", "--seed", seed])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and repr("--seed") in lines[0]


def test_check_spaces_takes_a_large_seed(capsys):
    assert main(["check-spaces", "--cases", "1",
                 "--seed", str(2**64 + 1)]) == 0


@pytest.mark.parametrize("suite", ["run_axiom_suites", "run_reduction_suite"])
@pytest.mark.parametrize("seed", [-1, 1.5, True, None])
def test_audit_suites_need_a_seed(suite, seed):
    from bbmlab import checks

    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        getattr(checks, suite)(cases=1, seed=seed)
