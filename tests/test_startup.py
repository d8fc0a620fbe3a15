"""Run paths load no scipy.

scipy serves only the §4 analysis and the output statistics (sparse CTMC
solves, the Poisson blocking tail, Student-t quantiles) and its import
costs more than a second, so the modules a simulation or the live
service needs import it only inside the functions that use it.  The
check runs in a fresh interpreter: this test session has long imported
scipy itself.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUN_PATHS = """
import sys

import repro, repro.cli, repro.service.cli
from repro.core.config import HybridConfig
from repro.obs.manifest import build_manifest
from repro.service import SchedulerCore, ServiceConfig
from repro.sim.system import HybridSystem

for engine in ("reference", "fast", "population"):
    HybridSystem(HybridConfig(), seed=1, warmup=10.0, engine=engine).run(100.0)
SchedulerCore(ServiceConfig())
build_manifest(HybridConfig(), base_seed=1, seeds=[1])
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_run_paths_import_no_scipy():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_PATHS],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout[-2000:]
