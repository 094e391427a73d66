"""Config-driven experiment runner.

Subcommands: run (one convergence study -> report.json, series.csv,
plot.svg), sweep (Cartesian product of config overrides), oracle (the
brute-force references), and check-spaces (the randomized norm audits).
Configs are flat key = value text with one dotted nesting level; JSON
files are accepted as-is.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import checks, oracle
from .bbm import (CSV_HEADER, ConvergenceReport, convergence_study,
                  study_scales)
from .field import (
    indicator_halfspace,
    linear,
    product_sine,
    quadratic,
    radial_bump,
    read_csv_table,
    sample,
)
from .geometry import (
    SCHEMES,
    Box,
    Disk,
    Interval,
    Polygon,
    sample_quadrature,
)
from .mollifiers import GagliardoFamily, bump_family, fractional_family
from .spaces import (
    SPACES,
    ConstantWeight,
    PowerLogOrlicz,
    PowerOrlicz,
    PowerWeight,
    orlicz_from_csv,
    weight_from_csv,
)

__all__ = ["main", "parse_config", "run_experiment", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config error in {field!r}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):
        # rebuild from both arguments, so the error crosses process pools
        return type(self), (self.field, self.message)


def _positive_number(value, field: str) -> float:
    """`value` as a finite float > 0, else a ConfigError naming `field`."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not 0.0 < number < math.inf:
        raise ConfigError(field, f"must be a positive number, got {value!r}")
    return number


def _count(value, field: str, least: int = 1) -> int:
    """`value` as an integer >= `least`, else a ConfigError naming
    `field`."""
    try:
        number = int(value)
        valid = number >= least and (isinstance(value, str)
                                     or number == value)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if isinstance(value, bool) or not valid:
        raise ConfigError(field,
                          f"must be an integer >= {least}, got {value!r}")
    return number


def _parse_atom(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_value(text: str):
    text = text.strip()
    if ";" in text:
        return [[_parse_atom(a) for a in chunk.split(",")]
                for chunk in text.split(";") if chunk.strip()]
    if "," in text:
        return [_parse_atom(a) for a in text.split(",")]
    return _parse_atom(text)


def parse_config(path) -> dict:
    """Read a config file: JSON if it starts with '{', else key = value."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    config: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}", f"expected key = value: {body!r}")
        key, value = body.split("=", 1)
        key = key.strip()
        parsed = _parse_value(value)
        if "." in key:
            head, tail = key.split(".", 1)
            config.setdefault(head, {})[tail] = parsed
        else:
            config[key] = parsed
    return config


# the top-level keys `run` reads with a default; `sweep --set` may vary
# them whether or not the config names them
_RUN_DEFAULTS = {"mode": "rdati", "tolerance": 0.05,
                 "scheme": "tensor-midpoint"}


# the record keys the builders read with a default; `sweep --set` may
# vary them whether or not the record names them
_RECORD_DEFAULTS = {
    "function": ("v", "normal", "offset", "center", "radius"),
    "space": ("phi", "phi_q", "weight", "weight_c", "base", "slope", "a",
              "xi"),
}


def set_config_key(config: dict, key: str, value) -> None:
    if "." in key:
        head, tail = key.split(".", 1)
        if head not in config or (tail not in config[head] and
                                  tail not in _RECORD_DEFAULTS.get(head, ())):
            raise ConfigError(key, "override references a missing key")
        config[head][tail] = value
    else:
        if key not in config and key not in _RUN_DEFAULTS:
            raise ConfigError(key, "override references a missing key")
        config[key] = value


def _require(record: dict, field: str, context: str):
    if field not in record:
        raise ConfigError(f"{context}.{field}", "missing required field")
    return record[field]


def _build(table: dict, kind, field: str, *args):
    """`table[kind](*args)`.  An unknown kind is a ConfigError naming
    `field`, the key that chose it; a KeyError names the missing key of
    the record (`field` up to its dot), and any other TypeError or
    ValueError the record.  A nested ConfigError passes unchanged."""
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(field, f"unknown kind {kind!r}; expected one of "
                                 f"{', '.join(table)}")
    record = field.split(".")[0]
    try:
        return table[kind](*args)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{record}.{exc.args[0]}",
                          "missing required field") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(record, str(exc)) from None


def _build_kind(table: dict, record: dict, name: str, *args):
    """Record `name` built by the entry of `table` its `kind` names."""
    return _build(table, _require(record, "kind", name), f"{name}.kind",
                  record, *args)


def _listed(value) -> list:
    return value if isinstance(value, list) else [value]


# kind -> constructor for each config record; a constructor reads the
# record's keys with their defaults and leaves error reporting to _build
_DOMAINS = {
    "interval": lambda rec: Interval(rec["a"], rec["b"]),
    "box": lambda rec: Box(tuple(_listed(rec["lo"])),
                           tuple(_listed(rec["hi"]))),
    "disk": lambda rec: Disk(tuple(rec["center"]), rec["radius"]),
    "polygon": lambda rec: Polygon(tuple(tuple(v) for v in rec["vertices"])),
}

_FUNCTIONS = {
    "linear": lambda rec, n: linear(rec.get("v", [1.0] * n)),
    "quadratic": lambda rec, n: quadratic(n),
    "product-sine": lambda rec, n: product_sine(n),
    "indicator-halfspace": lambda rec, n: indicator_halfspace(
        rec.get("normal", [1.0] * n), rec.get("offset", 0.0)),
    "radial-bump": lambda rec, n: radial_bump(
        rec.get("center", [0.0] * n), rec.get("radius", 1.0)),
}

_FAMILIES = {
    "bump": lambda rec, p, domain: bump_family(domain.dimension),
    "fractional": lambda rec, p, domain: fractional_family(
        p, domain.enclosing_radius(), domain.dimension),
}

_ORLICZ = {
    "power": lambda rec: PowerOrlicz(rec.get("phi_q", 2.0)),
    "plog": lambda rec: PowerLogOrlicz(rec.get("phi_q", 2.0)),
    "table": lambda rec: orlicz_from_csv(rec["phi_table"]),
}

_WEIGHTS = {
    "constant": lambda rec, n: ConstantWeight(rec.get("weight_c", 1.0)),
    "power": lambda rec, n: PowerWeight(rec["weight_a"]),
    "table": lambda rec, n: weight_from_csv(rec["weight_table"], n),
}

# an explicit list of values, else a geometric nu_start * ratio**k
_SCHEDULES = {
    "values": lambda rec: [float(v) for v in _listed(rec["values"])],
    "geometric": lambda rec: [
        float(rec["nu_start"]) * float(rec["ratio"]) ** k
        for k in range(_count(rec["count"], "schedule.count"))],
}


def _spec(record: dict, dimension: int):
    """The spec named by `space.kind`; its other keys are the spec's
    dataclass fields, except that `phi`, `weight` and the variable
    exponent are built from keys of their own."""
    cls = SPACES[record["kind"]]
    # Herz specs default to the unweighted norm around the origin
    values = {"a": 0.0, "xi": [0.0] * dimension, **record}
    args = {}
    for fld in dataclasses.fields(cls):
        name = fld.name
        if name == "phi":
            args[name] = _build(_ORLICZ, record.get("phi", "power"),
                                "space.phi", record)
        elif name == "weight":
            args[name] = _build(_WEIGHTS, record.get("weight", "constant"),
                                "space.weight", record, dimension)
        elif name == "exponent":  # r(x) = base + slope * x_1
            base = record.get("base", 2.0)
            slope = record.get("slope", 0.0)
            args[name] = float(base) if slope == 0.0 else (
                lambda pts: base + slope * pts[:, 0])
        elif name in values or (fld.default is dataclasses.MISSING and
                                fld.default_factory is dataclasses.MISSING):
            args[name] = values[name]  # a KeyError names the missing key
    return cls(**args)


# every space kind is built from its spec class's dataclass fields
_SPACE_KINDS = dict.fromkeys(SPACES, _spec)


def build_space(record: dict, dimension: int):
    """The spec of a `space` record (see `_spec`)."""
    return _build_kind(_SPACE_KINDS, record, "space", dimension)


def build_schedule(record: dict) -> list:
    kind = "values" if "values" in record else "geometric"
    return _build(_SCHEDULES, kind, "schedule", record)


def run_experiment(config: dict, out_dir) -> ConvergenceReport:
    """Build the experiment from a parsed config, run it, emit artifacts."""
    config = {**_RUN_DEFAULTS, **config}
    required = ("domain", "function", "space", "schedule", "p", "h")
    known = (*required, "family", "expectation", *_RUN_DEFAULTS)
    for key in (*required, *config):
        if key not in config:
            raise ConfigError(key, "missing required field")
        if key not in known:
            raise ConfigError(key, f"unknown key (set to {config[key]!r}); "
                                   f"a run reads {', '.join(known)}")
    for name in ("domain", "function", "space", "schedule", "family"):
        if not isinstance(config.get(name, {}), dict):
            raise ConfigError(name, f"expected {name}.* keys, "
                                    f"got {config[name]!r}")
    domain = _build_kind(_DOMAINS, config["domain"], "domain")
    n = domain.dimension
    p = _positive_number(config["p"], "p")
    if p < 1.0:
        raise ConfigError("p", f"must be >= 1, got {p:g}")
    spec = build_space(config["space"], n)
    schedule = build_schedule(config["schedule"])
    h = _positive_number(config["h"], "h")
    tolerance = _positive_number(config["tolerance"], "tolerance")
    scheme = config["scheme"]
    if scheme not in SCHEMES:
        raise ConfigError("scheme", f"unknown scheme {scheme!r}; "
                                    f"expected one of {', '.join(SCHEMES)}")
    fn = _build_kind(_FUNCTIONS, config["function"], "function", n)
    if fn.dimension != n:
        raise ConfigError("function", "function dimension does not match domain")
    mode = config["mode"]  # names the family, which picks the route
    if mode == "gagliardo":
        if "family" in config:
            raise ConfigError("family", "mode gagliardo takes no family")
        family = GagliardoFamily(n)
    elif mode == "rdati":
        family = _build_kind(_FAMILIES, config.get("family", {}), "family",
                             p, domain)
    else:
        raise ConfigError("mode", f"unknown mode {mode!r}")
    try:
        study_scales(family, schedule)
    except ValueError as exc:
        raise ConfigError("schedule", str(exc)) from None

    try:
        grid = sample_quadrature(domain, h, scheme)
    except ValueError as exc:  # h too large or too coarse for the domain
        raise ConfigError("h", str(exc))
    try:
        spec.check_grid(grid)
    except ValueError as exc:  # e.g. a mixed norm off a tensor grid
        raise ConfigError("space", str(exc))
    field_data = sample(fn, grid)

    report = convergence_study(field_data, p, spec, family, schedule,
                               tolerance=tolerance)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    )
    _write_series_csv(out / "series.csv", report)
    _write_plot_svg(out / "plot.svg", report)
    return report


def _write_series_csv(path: Path, report: ConvergenceReport) -> None:
    lines = [CSV_HEADER]
    for param, value, target, ratio in report.csv_rows():
        lines.append(f"{param!r},{value!r},{target!r},{ratio!r}".replace("'", ""))
    path.write_text("\n".join(lines) + "\n")


# pixel size of plot.svg
_PLOT_WIDTH, _PLOT_HEIGHT = 640, 420


def _write_plot_svg(path: Path, report: ConvergenceReport) -> None:
    """Hand-rolled SVG: functional values and target vs scale, log x."""
    xs = np.log10(np.asarray(report.scales, dtype=float))
    ys = np.asarray(report.functional_values, dtype=float)
    y_all = list(ys) + ([report.target] if report.target else [])
    y_lo, y_hi = min(y_all), max(y_all)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 50
    x_lo, x_hi = xs.min(), xs.max()
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (_PLOT_WIDTH - 2 * pad)

    def sy(y):
        return _PLOT_HEIGHT - pad - (y - y_lo) / (y_hi - y_lo) \
            * (_PLOT_HEIGHT - 2 * pad)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_WIDTH}" '
        f'height="{_PLOT_HEIGHT}">',
        f'<rect width="{_PLOT_WIDTH}" height="{_PLOT_HEIGHT}" fill="white"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
        'stroke-width="2"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                     'fill="#1f77b4"/>')
    if report.target:
        ty = sy(report.target)
        parts.append(
            f'<line x1="{pad}" y1="{ty:.2f}" x2="{_PLOT_WIDTH - pad}" '
            f'y2="{ty:.2f}" stroke="#d62728" stroke-dasharray="6,4"/>'
        )
    parts.append(
        f'<text x="{_PLOT_WIDTH / 2:.0f}" y="{_PLOT_HEIGHT - 12}" '
        'text-anchor="middle" '
        f'font-size="13">log10 scale (mode={report.mode})</text>'
    )
    parts.append(
        f'<text x="16" y="{_PLOT_HEIGHT / 2:.0f}" font-size="13" '
        f'transform="rotate(-90 16 {_PLOT_HEIGHT / 2:.0f})" '
        'text-anchor="middle">functional value</text>'
    )
    parts.append(
        f'<text x="{_PLOT_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-size="13">{report.spec_label}, verdict {report.verdict}</text>'
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _cmd_run(args) -> int:
    try:
        config = parse_config(args.config)
        report = run_experiment(config, args.out)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"verdict: {report.verdict} "
          f"(limit {report.extrapolated_limit}, target {report.target})")
    if report.verdict == "inconclusive":
        return 2
    expectation = config.get("expectation")
    if expectation is not None and expectation != report.verdict:
        print(f"expectation {expectation!r} not met", file=sys.stderr)
        return 1
    return 0


def _run_sweep_case(payload) -> dict:
    """One sweep run; a failure is recorded as this case's, not raised."""
    config, out_dir = payload
    start = time.perf_counter()
    try:
        case = {**run_experiment(config, out_dir).to_dict(),
                "status": "ok", "error": ""}
    except Exception as exc:  # a failing case must not stop the sweep
        case = {"status": "failed", "error": str(exc)}
    case["wall_s"] = round(time.perf_counter() - start, 3)
    return case


SUMMARY_COLUMNS = ["status", "error", "wall_s", "verdict",
                   "extrapolated_limit", "relative_error"]


def _cmd_sweep(args) -> int:
    try:
        if args.jobs is not None:
            jobs = _count(args.jobs, "--jobs")
        else:
            jobs = _count(os.environ.get("BBMLAB_JOBS", "1"), "BBMLAB_JOBS")
        base = parse_config(args.config)
        overrides = []
        for item in args.set or []:
            if "=" not in item:
                raise ConfigError("--set", f"expected key=v1,v2,... got {item!r}")
            key, values = item.split("=", 1)
            parsed = _parse_value(values)
            if not isinstance(parsed, list):
                parsed = [parsed]
            overrides.append((key.strip(), parsed))
        combos = list(itertools.product(*[vals for _, vals in overrides])) \
            if overrides else [()]
        out_root = Path(args.out)
        out_root.mkdir(parents=True, exist_ok=True)
        payloads = []
        for idx, combo in enumerate(combos):
            config = json.loads(json.dumps(base))
            for (key, _), value in zip(overrides, combo):
                set_config_key(config, key, value)
            payloads.append((config, out_root / f"run_{idx:03d}"))
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a fork pool starts all its workers at once: no more than the runs
    workers = min(jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cases = list(pool.map(_run_sweep_case, payloads))
    else:
        cases = [_run_sweep_case(p) for p in payloads]
    failed = 0
    with open(out_root / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run"] + [key for key, _ in overrides]
                        + SUMMARY_COLUMNS)
        for idx, (combo, case) in enumerate(zip(combos, cases)):
            writer.writerow([f"run_{idx:03d}", *combo]
                            + [str(case.get(col, "")) for col in
                               SUMMARY_COLUMNS])
            if case["status"] != "ok":
                failed += 1
                print(f"run_{idx:03d} failed: {case['error']}",
                      file=sys.stderr)
    print(f"{len(cases)} runs ({failed} failed) -> {out_root}/summary.csv")
    return 1 if failed else 0


def _cmd_oracle(args) -> int:
    try:
        if args.op == "sphere-moment":
            value = oracle.mc_sphere_moment(
                args.p, args.n, args.samples, _count(args.seed, "--seed", 0))
            print(repr(value))
            return 0
        if args.op == "dense-1d":
            fn = _build(_FUNCTIONS, args.function, "--function", {}, 1)
            value = oracle.dense_1d_functional(
                fn, Interval(args.a, args.b), args.p, args.q, args.scale,
                args.resolution, family_kind=args.family, mode=args.mode,
            )
            print(repr(value))
            return 0
        if args.op == "rearrangement":
            if args.input is None:
                raise ValueError("rearrangement needs --input")
            data = read_csv_table(args.input, 2, "value, weight")
            step = oracle.rearrangement_oracle(data[:, 0], data[:, 1])
            ts = np.cumsum(data[:, 1])
            for t_left, t_right in zip(np.concatenate([[0.0], ts[:-1]]), ts):
                level = step(0.5 * (t_left + t_right))
                print(f"{t_left!r},{t_right!r},{level!r}")
            return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"unknown oracle op {args.op!r}", file=sys.stderr)
    return 1


def _cmd_check_spaces(args) -> int:
    try:
        cases = _count(args.cases, "--cases")
        seed = _count(args.seed, "--seed", 0)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    results = checks.run_axiom_suites(cases=cases, seed=seed)
    results += checks.run_reduction_suite(cases=min(cases, 100), seed=seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += not res.passed
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bbmlab",
        description="Nonlocal-functional workbench on bounded domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="Cartesian product of overrides")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="sweep")
    p_sweep.add_argument("--set", action="append", metavar="KEY=V1,V2,...")
    p_sweep.add_argument("--jobs", help="worker processes, an integer >= 1 "
                                        "(default: BBMLAB_JOBS, else 1)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="brute-force reference values")
    p_oracle.add_argument("op", choices=["sphere-moment", "dense-1d",
                                         "rearrangement"])
    p_oracle.add_argument("--p", type=float, default=2.0)
    p_oracle.add_argument("--n", type=int, default=2)
    p_oracle.add_argument("--samples", type=int, default=1_000_000)
    p_oracle.add_argument("--seed", default=0,
                          help="random seed, an integer >= 0")
    p_oracle.add_argument("--function", default="linear")
    p_oracle.add_argument("--a", type=float, default=0.0)
    p_oracle.add_argument("--b", type=float, default=1.0)
    p_oracle.add_argument("--q", type=float, default=2.0)
    p_oracle.add_argument("--scale", type=float, default=0.1)
    p_oracle.add_argument("--resolution", type=float, default=1e-4)
    p_oracle.add_argument("--family", default="bump")
    p_oracle.add_argument("--mode", default="rdati")
    p_oracle.add_argument("--input", help="CSV of value,weight rows for "
                                          "the rearrangement oracle")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_check = sub.add_parser("check-spaces", help="randomized norm audits")
    p_check.add_argument("--cases", default=200,
                         help="random fields per audit, an integer >= 1")
    p_check.add_argument("--seed", default=0,
                         help="random seed, an integer >= 0")
    p_check.set_defaults(func=_cmd_check_spaces)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
