import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geosketch
from geosketch import HypercubePoint, TurnstileUpdate, gen_instance, run_estimator, write_stream
from geosketch.cli import main


def test_python_m_geosketch_help():
    src = str(Path(geosketch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    r = subprocess.run([sys.executable, "-m", "geosketch", "--help"], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: geosketch")


def _run_cli(*args, stdin=None):
    src = str(Path(geosketch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    env.pop("GEOSKETCH_SEED", None)
    return subprocess.run([sys.executable, "-m", "geosketch", *args], env=env, input=stdin,
                          capture_output=True, text=True, timeout=120)


def _padded(updates, d):
    """The updates with every point zero-padded on the right to dimension d."""
    return [
        TurnstileUpdate(u.sign, u.label, HypercubePoint(d, u.point.value << (d - u.point.d)))
        for u in updates
    ]


@pytest.mark.parametrize("kind,problem", [("uniform", "mst"), ("matched_noise", "emd")])
def test_run_pads_dimension_to_power_of_two(tmp_path, capsys, kind, problem):
    """A d = 24 stream runs; its estimate equals that of the same points
    padded by hand to d = 32, the report keeps d = 24, and the exact value
    is unchanged by the padding."""
    updates = gen_instance(kind, 8, 24, seed=1).updates
    stream = tmp_path / "s24.txt"
    stream.write_text(write_stream(updates))
    assert main(["run", "--problem", problem, "--oracle", str(stream)]) == 0
    got = json.loads(capsys.readouterr().out)
    want = run_estimator(_padded(updates, 32), problem, oracle=True)
    assert got["d"] == 24 and want.d == 32
    assert got["estimate"] == want.estimate
    assert got["exact"] == want.exact


@pytest.mark.parametrize("stream,extra,message", [
    ("# d=8\n+ A zz\n", ["-"], "line 2: invalid literal"),
    ("+ A 0f\n+ A 1f\n+ B 2f\n", ["-"], "|A| = |B|"),
    ("+ A 0f\n+ B 1f\n", ["--config", "CFG", "-"], "unrecognized config kind 'foo'"),
    ("", ["MISSING"], "No such file"),
])
def test_bad_input_is_reported_without_traceback(tmp_path, stream, extra, message):
    """Malformed streams, unbalanced A/B, an unknown config kind and a
    missing stream file exit with status 2 and one `geosketch: error:` line
    on stderr."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kind": "foo"}')
    paths = {"CFG": str(cfg), "MISSING": str(tmp_path / "missing.txt")}
    r = _run_cli("run", "--problem", "emd", *[paths.get(a, a) for a in extra], stdin=stream)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("geosketch: error: ") and message in r.stderr
    assert "Traceback" not in r.stderr and r.stderr.count("\n") == 1
