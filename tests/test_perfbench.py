"""The benchmark's contract with the program: every workload that
BENCHMARK.json declares runs through `perfbench/run.py` at its smoke-test
size, reading the sketch attributes the benchmark reads, and passes its
correctness gate, with and without its span tracer."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _passes_gate(workload, trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--tiny", "--seconds", "0.3",
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_passes_its_gate(workload):
    _passes_gate(workload, "0")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_passes_its_gate_traced(workload):
    """With every public function and method of the layers wrapped by the
    span tracer, which passes their results through."""
    _passes_gate(workload, "1")
