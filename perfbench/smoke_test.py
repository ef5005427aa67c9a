"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs `run.py --tiny`, untraced and
traced, and checks that the result line carries exactly the metrics
BENCHMARK.json names, with their units; that the run is correct; and that
the traced jobs reproduced the untraced estimate bit for bit. It also checks
that a directory holding only the benchmark, without the program source,
makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def test_every_metric_is_emitted_and_traced_estimate_matches():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            p = run(ROOT, "--workload", wl["name"], "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--tiny")
            where = f"{wl['name']} --trace {trace}"
            check(p.returncode == 0, f"{where}: exit {p.returncode}\n{p.stderr}")
            *_, detail_line, result_line = p.stdout.splitlines()
            result, detail = json.loads(result_line), json.loads(detail_line)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{where}: {result_line}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{where}: metrics differ: {set(got) ^ set(want)}")
            if trace == "1":
                hexes = detail["traced"]["estimates_hex"]
                check(hexes and set(hexes) == {detail["estimate_hex"]},
                      f"{where}: traced {hexes} vs untraced {detail['estimate_hex']}")


def test_fails_without_program_source():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run(bare, "--workload", "emd1-matched", "--seed", "1", "--seconds", "1",
                "--trace", "0")
        check(p.returncode != 0 and not p.stdout.strip(),
              f"bare directory: exit {p.returncode}, stdout {p.stdout!r}")
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_every_metric_is_emitted_and_traced_estimate_matches,
                 test_fails_without_program_source):
        test()
        print(f"ok {test.__name__}")
