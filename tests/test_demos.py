"""Every demo runs to completion.

Each script runs from a copy of demos/ in a temporary directory, with the
package on PYTHONPATH: demo 02 writes its CSV next to itself.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demos / name)], cwd=demos, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
