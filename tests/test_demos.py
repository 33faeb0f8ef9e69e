"""The demo scripts run end to end against this checkout's package."""

import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_demos_run(tmp_path):
    assert len(DEMOS) == 5
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for demo in DEMOS:
        script = shutil.copy(demo, tmp_path)
        proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, f"{demo.name}:\n{proc.stderr}"
