"""What a fresh process loads: `bbmlab run` and `sweep` import numpy,
scipy.fft and scipy.spatial, and none of the heavier scipy subpackages."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _python(*args, cwd):
    env = dict(os.environ)
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
