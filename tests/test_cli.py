import csv
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from bbmlab.cli import ConfigError, main, parse_config, run_experiment

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
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, monkeypatch,
                                         capsys, argv, named):
        monkeypatch.chdir(tmp_path)
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
