"""The benchmark's tracer must find every name it wraps.

`perfbench/tracing.py` wraps module attributes of `bbmlab` by name and
binds some of their parameters by name; a rename would otherwise surface
only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

from bbmlab import bbm
from bbmlab.field import linear, sample
from bbmlab.geometry import Interval, sample_quadrature
from bbmlab.mollifiers import GagliardoFamily, bump_family
from bbmlab.spaces import Lebesgue

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_and_restores_every_boundary():
    tracing = _load_tracing()
    bindings = tracing.boundaries()
    originals = [getattr(module, name) for module, name, _, _ in bindings]
    tracer = tracing.Tracer()
    tracer.install(bindings)
    try:
        field = sample(linear((1.0,)),
                       sample_quadrature(Interval(0.0, 1.0), 1.0 / 64))
        # both energy bindings, through the parameters the tracer binds
        bbm.gagliardo_functional(field, 2.0, 0.9, Lebesgue(2.0), stride=1)
        bbm.bbm_functional_schedule(field, 2.0, bump_family(1), [0.4, 0.2],
                                    Lebesgue(2.0), stride=1)
        direct = [span[4] for span in tracer.spans
                  if span[0] == "nonlocal_energy"]
        tracer.begin_pass()
        bbm.convergence_study(field, 2.0, Lebesgue(2.0), bump_family(1),
                              [0.4, 0.3, 0.2, 0.1])
        bbm.convergence_study(field, 2.0, Lebesgue(2.0), GagliardoFamily(1),
                              [0.6, 0.7, 0.8, 0.9])
    finally:
        tracer.uninstall()
    assert all(getattr(module, name) is original
               for (module, name, _, _), original in zip(bindings, originals))
    assert direct == [{"points": 64, "kernels": 1},
                      {"points": 64, "kernels": 2}]
    metrics = tracer.pass_metrics(1.0)
    # one schedule pass for each study, each feeding one stacked norm
    # call that also measures the study's target
    assert metrics["nonlocal_energy.calls"] == 2
    assert metrics["spaces.norm_calls"] == 2
    assert metrics["spaces.lebesgue_s"] > 0.0
