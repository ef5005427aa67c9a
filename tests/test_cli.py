import os
import subprocess
import sys
from pathlib import Path

import geosketch


def test_python_m_geosketch_help():
    src = str(Path(geosketch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    r = subprocess.run([sys.executable, "-m", "geosketch", "--help"], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: geosketch")
