"""What a fresh process loads and keeps: `bbmlab run` and `sweep` import
numpy, scipy.fft and scipy.spatial, and none of the heavier scipy
subpackages; on glibc, the heap a study frees is kept for the next."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import bbmlab

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(bbmlab.__file__).resolve().parent.parent

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate",
         "scipy.interpolate", "scipy.ndimage")

# argv: the bundled configs' directory, an output directory, and a config
# on the quasi-random scheme to sweep
SCRIPT = """
import json, sys
from pathlib import Path
import bbmlab
from bbmlab import cli

configs, out = sorted(Path(sys.argv[1]).glob("*.cfg")), Path(sys.argv[2])
codes = [cli.main(["run", "--config", str(cfg), "--out",
                   str(out / cfg.stem)]) for cfg in configs]
codes.append(cli.main(["sweep", "--config", sys.argv[3], "--jobs", "1",
                       "--out", str(out / "sweep"), "--set", "h=0.002,0.001"]))
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def _python(*args, cwd, environ=os.environ):
    env = dict(environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_run_and_sweep_load_no_heavy_scipy(tmp_path):
    quasi_random = tmp_path / "quasi_random.cfg"
    quasi_random.write_text((CONFIG_DIR / "bbm_1d_linear.cfg").read_text()
                            + "scheme = quasi-random\n")
    result = _python("-c", SCRIPT, str(CONFIG_DIR), str(tmp_path),
                     str(quasi_random), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * (len(list(CONFIG_DIR.glob("*.cfg"))) + 1)
    # a submodule's import loads its package, so the packages suffice
    assert sorted(set(HEAVY) & set(report["modules"])) == []


def test_python_m_bbmlab_help(tmp_path):
    result = _python("-m", "bbmlab", "--help", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: bbmlab")


# disk-bump-sized studies: the minor faults of one after two warm-ups, and
# of one more after both thresholds are reset to glibc's 128 KiB default
HEAP_SCRIPT = """
import ctypes, json, resource, warnings
from bbmlab import bbm, field, geometry, mollifiers, spaces

warnings.simplefilter("ignore")


def study_faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    grid = geometry.sample_quadrature(geometry.Disk((0.0, 0.0), 1.0), 0.0225)
    bbm.convergence_study(field.sample(field.linear((0.6, 0.8)), grid), 2.0,
                          spaces.Lebesgue(2.0), mollifiers.bump_family(2),
                          [0.2 * 0.5**k for k in range(7)])
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


for _ in range(2):
    study_faults()
kept = study_faults()
mallopt = ctypes.CDLL(None).mallopt
mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
mallopt(-3, 128 << 10)         # M_MMAP_THRESHOLD
mallopt(-1, 128 << 10)         # M_TRIM_THRESHOLD
print(json.dumps({"kept": kept, "reset": study_faults()}))
"""

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the thresholds are glibc's")


def _heap_faults(tmp_path, **malloc_env):
    """The fault counts of HEAP_SCRIPT, run with only `malloc_env` of the
    allocator's environment variables."""
    environ = {var: value for var, value in os.environ.items()
               if not var.startswith("MALLOC_") and var != "GLIBC_TUNABLES"}
    result = _python("-c", HEAP_SCRIPT, cwd=tmp_path,
                     environ={**environ, **malloc_env})
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@glibc_only
def test_a_study_reuses_the_heap_freed_before_it(tmp_path):
    """With the thresholds pinned at import, a warm study takes almost no
    fresh pages (0 seen); reset to glibc's defaults, the same study
    faults in thousands (3,300 seen)."""
    faults = _heap_faults(tmp_path)
    assert faults["kept"] <= 50
    assert faults["reset"] >= 1000


@glibc_only
def test_a_user_malloc_setting_leaves_the_allocator_alone(tmp_path):
    """A trim threshold set in the environment wins: the import sets
    nothing, and warm studies fault in their pages as at 128 KiB."""
    faults = _heap_faults(tmp_path, MALLOC_TRIM_THRESHOLD_=str(128 << 10))
    assert faults["kept"] >= 1000
