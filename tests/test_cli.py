import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geosketch
from geosketch import (
    EmdSketchConfig, MstSketchConfig, gen_instance, run_estimator, write_stream,
    write_stream_binary,
)
from geosketch import cli
from geosketch.cli import main

from conftest import stream_of, updates_of


def test_python_m_geosketch_help():
    src = str(Path(geosketch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    r = subprocess.run([sys.executable, "-m", "geosketch", "--help"], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: geosketch")


def test_python_m_geosketch_cli_warns_nothing():
    """The CLI module runs as `python -m geosketch.cli` without runpy's
    warning that the package had imported it already."""
    src = str(Path(geosketch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    r = subprocess.run([sys.executable, "-W", "error", "-m", "geosketch.cli", "--help"],
                       env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: geosketch")


def test_estimates_without_oracle_load_no_scipy():
    """Only the exact oracle and the stable-median solver import scipy: a
    fresh interpreter that imports geosketch and estimates EMD (one and two
    passes) and MST without `oracle` loads no scipy module."""
    src = str(Path(geosketch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    code = "\n".join([
        "import sys",
        "from geosketch import gen_instance, run_estimator",
        "emd = gen_instance('matched_noise', 16, 8, 1).updates",
        "for passes in (1, 2):",
        "    run_estimator(emd, 'emd', passes=passes)",
        "run_estimator(gen_instance('uniform', 8, 8, 1).updates, 'mst')",
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
    ])
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def _run_cli(*args, stdin=None, env=None):
    """`python -m geosketch *args`, with the given environment variables
    and no GEOSKETCH_SEED beyond them."""
    src = str(Path(geosketch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    extra, env = env or {}, dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    env.pop("GEOSKETCH_SEED", None)
    env.update(extra)
    return subprocess.run([sys.executable, "-m", "geosketch", *args], env=env, input=stdin,
                          capture_output=True, text=True, timeout=120)


def _padded(stream, d):
    """The stream with every point zero-padded on the right to dimension d,
    by hand: each record's packed value shifted left by d - stream.d."""
    return stream_of(d, [(sign, label, value << (d - stream.d))
                         for sign, label, value in updates_of(stream)])


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


@pytest.mark.parametrize("kind,problem", [("uniform", "mst"), ("matched_noise", "emd")])
def test_run_reads_binary_streams(tmp_path, capsys, monkeypatch, kind, problem):
    """`run` tells a binary stream by its magic: on the binary form, from a
    file and from stdin, it prints the report of the text form."""
    updates = gen_instance(kind, 8, 16, seed=1).updates
    text, blob = tmp_path / "s.txt", tmp_path / "s.bin"
    text.write_text(write_stream(updates))
    blob.write_bytes(write_stream_binary(updates))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(blob.read_bytes())))
    reports = []
    for path in (str(text), str(blob), "-"):
        assert main(["run", "--problem", problem, path]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["wall_time_s"]
        reports.append(report)
    assert reports[0]["d"] == 16 and reports[1:] == [reports[0]] * 2


@pytest.mark.parametrize("problem,kind,cap", [("emd", "matched_noise", "EMD_ORACLE_CAP"),
                                              ("mst", "uniform", "MST_ORACLE_CAP")])
def test_oracle_above_its_cap_says_so(tmp_path, capsys, monkeypatch, problem, kind, cap):
    """With --oracle above the oracle's cap (lowered here below n = 8) the
    report is the one without --oracle, which has no exact value, and one
    stderr line names the oracle, its cap and n; the exit status is 0. At
    the cap the oracle runs and stderr stays empty."""
    stream = tmp_path / "s.txt"
    stream.write_text(write_stream(gen_instance(kind, 8, 16, seed=1).updates))
    reports = []
    for lowered, flags in ((7, ["--oracle"]), (7, []), (8, ["--oracle"])):
        monkeypatch.setattr(cli, cap, lowered)
        assert main(["run", "--problem", problem, *flags, str(stream)]) == 0
        out = capsys.readouterr()
        report = json.loads(out.out)
        del report["wall_time_s"]
        reports.append((report, out.err))
    (above, err), (plain, plain_err), (at, at_err) = reports
    assert above == plain and "exact" not in above
    assert err == (f"geosketch: --oracle skipped: exact_{problem} is capped at n = 7, "
                   "and this stream has n = 8\n")
    assert plain_err == at_err == "" and at["exact"] > 0


@pytest.mark.parametrize("stream,extra,message", [
    ("# d=8\n+ A zz\n", ["-"], "line 2: invalid literal"),
    ("+ A 0f\n+ A 1f\n+ B 2f\n", ["-"], "|A| = |B|"),
    ("+ A 0f\n+ B 1f\n", ["--config", "CFG", "-"], "unrecognized config kind 'foo'"),
    ("", ["MISSING"], "No such file"),
    ("+ A 1\n+ B 2\n", ["--eps", "nan", "-"], "eps must be a finite number greater than 0"),
    ("+ A 1\n+ B 2\n", ["--eps", "inf", "-"], "eps must be a finite number greater than 0"),
    ("+ A 1\n+ B 2\n", ["--eps", "-1", "-"], "eps must be a finite number greater than 0"),
    ("+ X 1\n+ X 2\n", ["--problem", "mst", "--eps", "nan", "-"], "eps must be a finite"),
    ("+ A 1\n+ B 2\n", ["GEOSKETCH_SEED=abc", "-"], "GEOSKETCH_SEED must be an integer, got 'abc'"),
    ("", ["NON_ASCII"], "line 2: byte 0xff is not ASCII"),
    ("# d=0\n+ A 0\n+ B 1\n", ["-"], "line 1: bad dimension comment '# d=0'"),
    ("\n# d=\n+ A 1\n+ B 2\n", ["-"], "line 2: bad dimension comment '# d='"),
])
def test_bad_input_is_reported_without_traceback(tmp_path, stream, extra, message):
    """Malformed streams (a bad point, a byte that is not ASCII, a `# d=`
    without a dimension of at least 1), unbalanced A/B, an unknown config kind, a missing stream
    file, a GEOSKETCH_SEED that is not an integer and an --eps that is not
    a finite number above 0 (which the report would print as invalid JSON,
    or which would lower an EMD estimate) exit with status 2 and one
    `geosketch: error:` line on stderr, which names the line or the
    variable. An `extra` of the form NAME=value sets that variable."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kind": "foo"}')
    non_ascii = tmp_path / "non_ascii.txt"
    non_ascii.write_bytes(b"+ A 1\n\xff\n+ B 2\n")
    paths = {"CFG": str(cfg), "MISSING": str(tmp_path / "missing.txt"),
             "NON_ASCII": str(non_ascii)}
    env = dict(a.split("=", 1) for a in extra if "=" in a)
    argv = [paths.get(a, a) for a in extra if "=" not in a]
    r = _run_cli("run", "--problem", "emd", *argv, stdin=stream, env=env)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("geosketch: error: ") and message in r.stderr
    assert "Traceback" not in r.stderr and r.stderr.count("\n") == 1


def test_mst_config_beyond_stable_median_table_exits_2(tmp_path):
    """An MST config with n = 2^25 + 1 is rejected before the stream is
    read, as a `geosketch: error:` naming the limit."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "mst-config", "version": 1, "n": 2**25 + 1, "d": 8}))
    r = _run_cli("run", "--problem", "mst", "--config", str(cfg), "-", stdin="+ X 0f\n")
    assert r.returncode == 2
    assert r.stderr.startswith("geosketch: error: ") and "n <= 2^25" in r.stderr


_EMD, _MST = {"kind": "emd-config", "version": 1}, {"kind": "mst-config", "version": 1}


@pytest.mark.parametrize("problem,config,message", [
    ("mst", {**_MST, "n": 4, "d": 4, "foo": 1}, "unknown field(s) 'foo'"),
    ("emd", [1, 2], "must hold a JSON object"),
    ("mst", {**_MST, "n": 4, "d": 4, "samples": -1}, "'samples' must be an integer in [0, 2^64)"),
    ("mst", {**_MST, "n": 4, "d": 4, "rec_buckets": 0}, "'rec_buckets' must be an integer in [1"),
    ("emd", {**_EMD, "n": 4, "d": 4, "cs_buckets": 0}, "'cs_buckets' must be an integer in [1"),
    ("emd", {**_EMD, "n": 4, "d": 4, "n_sets": 0}, "'n_sets' must be an integer in [1"),
    ("emd", {**_EMD, "d": 4}, "missing field(s) 'n'"),
    ("emd", {**_EMD, "n": 4, "d": 4, "eps": float("nan")}, "'eps' must be a finite number"),
    ("emd", {**_EMD, "n": 4, "d": 4, "sampler_gamma": float("inf")},
     "'sampler_gamma' must be a finite number"),
    ("emd", {**_EMD, "n": 4, "d": 4, "eps": -1}, "'eps' must be greater than 0"),
    ("emd", {**_EMD, "n": 4, "d": 4, "universe_m": 1}, "'universe_m' must be 0 or at least 2"),
    ("mst", {**_MST, "n": 4, "d": 4, "universe_m": 1}, "'universe_m' must be 0 or at least 2"),
])
def test_bad_config_is_reported_without_traceback(tmp_path, problem, config, message):
    """A config with an unknown field, one that is not a JSON object, a
    missing field, a count out of range, a universe of one node, a float
    field that is not finite or an eps not above 0 exits with status 2 and one `geosketch: error:`
    line naming it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    kind = "uniform" if problem == "mst" else "matched_noise"
    stream = write_stream(gen_instance(kind, 4, 4, seed=1).updates)
    r = _run_cli("run", "--problem", problem, "--config", str(cfg), "-", stdin=stream)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("geosketch: error: ") and message in r.stderr
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize("problem,config,kind", [
    ("emd", {**_MST, "n": 2, "d": 4}, "mst-config"),
    ("mst", {**_EMD, "n": 2, "d": 4}, "emd-config"),
])
def test_config_of_the_other_problem_exits_2(tmp_path, problem, config, kind):
    """A --config whose kind does not match --problem is rejected with one
    `geosketch: error:` line naming both, not ignored for the default
    config."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    stream = "+ A 1\n+ B 2\n" if problem == "emd" else "+ X 1\n+ X 2\n"
    r = _run_cli("run", "--problem", problem, "--config", str(cfg), "-", stdin=stream)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("geosketch: error: ") and r.stderr.count("\n") == 1
    assert kind in r.stderr and f"--problem {problem}" in r.stderr


def test_mst_level_without_a_sample_exits_2(tmp_path):
    """With one sample per level (the config below; the default has at
    least 8, so it no longer fails on this stream) the level-1 sample fails,
    at the child scan, which is reported as one error line naming the
    level, the sample count, the failures per stage, and pointing to
    `samples` in a --config file."""
    stream = _run_cli("gen", "--kind", "uniform", "--n", "2", "--d", "2", "--seed", "1").stdout
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_MST, "n": 2, "d": 2, "samples": 1}))
    r = _run_cli("run", "--problem", "mst", "--config", str(cfg), "-", stdin=stream)
    assert r.returncode == 2
    assert r.stderr == ("geosketch: error: all samples failed at level 1 (samples = 1: "
                        "0 at parent recovery, 1 at the child scan, 0 at the witnesses); "
                        "raise `samples` in a --config file\n")


def test_report_carries_the_config_eps(tmp_path, capsys):
    """With --config the report's eps is the config's, which the estimate
    used, not the --eps flag: the report equals that of `--eps 0.5`."""
    stream = tmp_path / "s.txt"
    stream.write_text(write_stream(gen_instance("matched_noise", 4, 4, seed=1).updates))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_EMD, "n": 4, "d": 4, "eps": 0.5}))
    reports = []
    for extra in (["--config", str(cfg)], ["--eps", "0.5"]):
        assert main(["run", "--problem", "emd", *extra, str(stream)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    with_config, with_flag = reports
    assert with_config["eps"] == 0.5
    assert with_config["estimate"] == with_flag["estimate"]


@pytest.mark.parametrize("flag,value", [("--eps", "0.3"), ("--seed", "7")])
def test_run_with_config_rejects_an_explicit_flag(tmp_path, capsys, monkeypatch, flag, value):
    """A flag whose value a --config file sets, given next to it, exits 2
    with one line naming the flag and the config file instead of being
    dropped. Without the flag the run uses the config's values (its seed
    defaults to 0), and GEOSKETCH_SEED still overrides the config's seed."""
    monkeypatch.delenv("GEOSKETCH_SEED", raising=False)
    stream = tmp_path / "s.txt"
    stream.write_text(write_stream(gen_instance("matched_noise", 4, 4, seed=1).updates))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_EMD, "n": 4, "d": 4, "eps": 0.5}))
    argv = ["run", "--problem", "emd", "--config", str(cfg), str(stream)]
    assert main([*argv, flag, value]) == 2
    assert capsys.readouterr() == ("", f"geosketch: error: {flag} cannot be given with "
                                       f"--config: the config file sets the {flag[2:]}\n")
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["eps"], report["seeds"]["config"]) == (0.5, 0)
    monkeypatch.setenv("GEOSKETCH_SEED", "7")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seeds"]["config"] == 7


def test_mst_report_states_the_eps_its_sketch_is_built_at():
    """The MST estimator reads no eps: its sketch is built at eps = 1/2,
    where p = eps / (2 log n) = 1/(4L), and the report states that eps
    whatever `eps` `run_estimator` is given."""
    updates = gen_instance("uniform", 8, 8, seed=1).updates
    reports = [run_estimator(updates, "mst", eps=eps) for eps in (0.1, 0.5)]
    assert [r.eps for r in reports] == [0.5, 0.5]
    assert reports[0].estimate == reports[1].estimate
    cfg = MstSketchConfig(n=8, d=8)
    assert cfg.eps == 0.5 and cfg.p == 1.0 / (4.0 * cfg.L)


def test_run_estimator_takes_one_config_of_its_problem():
    """`config` builds the sketch of its own problem, here at seed 5, and a
    config of the other problem raises ValueError naming both, instead of
    being ignored for the defaults."""
    mst = gen_instance("uniform", 8, 8, seed=1).updates
    emd = gen_instance("matched_noise", 8, 8, seed=1).updates
    assert run_estimator(mst, "mst", config=MstSketchConfig(n=8, d=8, seed=5)).seeds["config"] == 5
    assert run_estimator(emd, "emd", config=EmdSketchConfig(n=8, d=8, seed=5)).seeds["config"] == 5
    for stream, problem, other in ((mst, "mst", EmdSketchConfig), (emd, "emd", MstSketchConfig)):
        with pytest.raises(ValueError, match=f"takes a .*, got a {other.__name__}"):
            run_estimator(stream, problem, config=other(n=8, d=8, seed=5))


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("delta_rows", [2, 5, 8])
def test_emd_estimate_at_a_few_delta_rows_is_finite(passes, delta_rows):
    """Delta-hat of 2 to 8 rows takes the median of a 1-D array with the
    compare-exchange network (`sketches._median`), which raised a TypeError
    on such an array: both EMD estimators now give a finite estimate."""
    emd = gen_instance("matched_noise", 16, 8, seed=1).updates
    cfg = EmdSketchConfig(n=16, d=8, delta_rows=delta_rows)
    assert math.isfinite(run_estimator(emd, "emd", passes=passes, config=cfg).estimate)


def test_mst_run_with_an_eps_flag_exits_2():
    """`--eps` given with `--problem mst` is rejected as unread, one
    `geosketch: error:` line naming the flag; without it the run reports
    eps = 0.5."""
    stream = _run_cli("gen", "--kind", "uniform", "--n", "8", "--d", "8", "--seed", "1").stdout
    r = _run_cli("run", "--problem", "mst", "--eps", "0.1", "-", stdin=stream)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == ("geosketch: error: --eps is not read by the MST estimator, "
                        "which is built at eps = 0.5\n")
    r = _run_cli("run", "--problem", "mst", "-", stdin=stream)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["eps"] == 0.5


@pytest.mark.parametrize("problem,stream,labels", [
    ("emd", "+ A 1\n+ B 2\n+ X 3\n", "got X"),
    ("mst", "+ A 1\n+ B 2\n+ X 3\n+ X 0\n", "got A, B"),
])
def test_run_rejects_labels_the_problem_does_not_read(tmp_path, capsys, problem, stream, labels):
    """A record whose label the problem does not read (X for EMD, A or B
    for MST) is not dropped: the run exits 2 naming the labels."""
    path = tmp_path / "s.txt"
    path.write_text(stream)
    assert main(["run", "--problem", problem, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("geosketch: error: ") and labels in out.err


@pytest.mark.parametrize("kind,params,message", [
    ("hard_emd", ["alpha=0"], "alpha must be a finite number greater than 0, got 0"),
    ("hard_emd", ["alpha=nan"], "alpha must be a finite number greater than 0"),
    ("hard_emd", ["k"], "--param 'k' is not name=number"),
    ("hard_emd", ["alpha=x"], "--param 'alpha=x' is not name=number"),
    ("hard_emd", ["k=3"], "hard_emd takes no parameter(s) 'k'"),
    ("uniform", ["bogus=3"], "uniform takes no parameter(s) 'bogus'"),
    ("clustered", ["k=0"], "clustered needs an integer k >= 1, got 0"),
    ("clustered", ["k=2.5"], "clustered needs an integer k >= 1, got 2.5"),
    ("hard_mst", ["k=1"], "hard_mst needs an integer k >= 2, got 1"),
    ("hard_mst", ["z=2"], "z must be 0 or 1, got 2"),
    ("matched_noise", ["eps=1.5"], "eps must be in [0, 1], got 1.5"),
])
def test_gen_rejects_bad_params(capsys, kind, params, message):
    """A --param that is not name=number, that the kind does not read, or
    whose value is out of the kind's range exits 2 with one error line
    naming it, and writes no stream."""
    argv = ["gen", "--kind", kind, "--n", "32", "--d", "16"]
    assert main(argv + [a for p in params for a in ("--param", p)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("geosketch: error: ") and message in out.err
    assert out.err.count("\n") == 1


def test_gen_reads_float_and_int_params(capsys):
    """`alpha=1e-3` is read as a float and `z=1` as an int; the stream is
    that of gen_instance with the same parameters."""
    argv = ["gen", "--kind", "hard_emd", "--n", "32", "--d", "16", "--seed", "2"]
    assert main(argv + ["--param", "alpha=1e-3", "--param", "z=1"]) == 0
    inst = gen_instance("hard_emd", 32, 16, 2, alpha=1e-3, z=1)
    assert inst.meta["alpha"] == 1e-3 and inst.meta["Z"] == 1
    comments = [f"{k}={v}" for k, v in inst.meta.items()]
    assert capsys.readouterr().out == write_stream(inst.updates, comments=comments)


def test_planted_kinds_write_n_points_per_cluster():
    """n counts the points of one cluster, as meta's `n` says: hard_mst
    writes k clusters of n points (k n records, all X), hard_emd n records
    each to A and B, and a hard kind needs n to be a multiple of 2d."""
    for k, inst in ((5, gen_instance("hard_mst", 16, 8, 1)),
                    (3, gen_instance("hard_mst", 32, 8, 1, k=3))):
        assert inst.meta["k"] == k
        assert [label for _, label, _ in updates_of(inst.updates)] == ["X"] * (k * inst.meta["n"])
    inst = gen_instance("hard_emd", 16, 8, 1)
    labels = [label for _, label, _ in updates_of(inst.updates)]
    assert inst.meta["n"] == 16 and labels == ["A"] * 16 + ["B"] * 16
    for kind in ("hard_mst", "hard_emd"):
        with pytest.raises(ValueError, match="multiple of 2d = 16, got n = 24"):
            gen_instance(kind, 24, 8, 1)


def test_gen_out_does_not_need_a_binary_stdout(tmp_path):
    """With --out the binary stream goes to the file, so a stdout without a
    byte buffer (a StringIO here) is never touched."""
    out = tmp_path / "s.bin"
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(["gen", "--kind", "uniform", "--n", "8", "--d", "4", "--seed", "1",
                     "--format", "bin", "--out", str(out)]) == 0
    assert text.getvalue() == ""
    assert out.read_bytes() == write_stream_binary(gen_instance("uniform", 8, 4, 1).updates)
