"""geosketch benchmark: one EMD/MST estimation job, stage by stage.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`. The seed picks the generated instance; the sketches always run with
the CLI's default seed, so the program only ever sees the generated stream.

A run (one process, one thread, closed loop with one client):
  1. generates the workload's stream and computes the exact value offline;
  2. correctness gate: `cli.run_estimator` on the parsed stream gives the
     reference estimate, which must be finite;
  3. runs jobs back to back for the `--seconds` window (at least MIN_JOBS;
     a job starts only while more than half of one still fits): parse,
     aggregate, construct, ingest, decode -- the steps of
     `cli.run_estimator`, timed one by one. Every estimate must equal the
     reference bit for bit;
  4. interleaved with the jobs (one before each, more while they have
     taken less than REP_SHARE of the window), constructs fresh sketches
     (set-up samples) and, for one-pass estimators, feeds each the whole
     stream (ingest samples);
  5. times every step in yardstick seconds (`speed.MachineClock`): wall
     time scaled by how fast the machine ran a fixed piece of work outside
     the program, sampled before every step and five times a second, so
     that the shared host's speed, which flips by ≈1.8x, cancels out;
  6. with `--trace 1` the window is halved, and the second half runs the same
     jobs with every layer wrapped by `spans.Tracer`; the per-layer metrics
     are reported instead of the end-to-end ones.

The last line of stdout is the result JSON; the line before it holds the
details (estimate as float hex, exact value, per-job samples). See README.md
for the metrics, the layer map and why each workload was chosen.
"""

from __future__ import annotations

import os
import sys

# One thread: pin the BLAS/OpenMP pools before numpy is imported, and ignore
# the CLI's seed override so the benchmark alone picks every seed.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GEOSKETCH_SEED", None)

import argparse
import gc
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from speed import MachineClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EPS = 0.1  # `geosketch run` default
SKETCH_SEED = 0  # `geosketch run` default
MIN_JOBS = 3
REP_SHARE = 0.10  # share of the window spent on fresh-sketch samples
OUT_DIR = ROOT / ".bench_out"


@dataclass(frozen=True)
class Workload:
    problem: str
    passes: int
    kind: str
    n: int
    d: int


WORKLOADS = {
    "emd1-matched": Workload("emd", 1, "matched_noise", 256, 64),
    "emd2-matched": Workload("emd", 2, "matched_noise", 256, 64),
    "mst1-uniform": Workload("mst", 1, "uniform", 16, 16),
}
# Same estimators at a size whose job takes about half a second (smoke test).
TINY = {
    "emd1-matched": Workload("emd", 1, "matched_noise", 16, 8),
    "emd2-matched": Workload("emd", 2, "matched_noise", 16, 8),
    "mst1-uniform": Workload("mst", 1, "uniform", 4, 8),
}

END_TO_END = {
    "setup_s": "s",
    "ingest_ups": "updates/s",
    "decode_s": "s",
    "job_s": "s",
    "state_bytes": "bytes",
    "peak_rss_mb": "MiB",
    "success_share": "share",
}

# Traced calls reported per layer: (name, has a failure outcome).
TRACED = [
    ("streamio.parse_stream", False),
    ("streamio.aggregate", False),
    ("quadtree.QuadtreeSpec.__init__", False),
    ("quadtree.QuadtreeSpec.node_path", False),
    ("quadtree.QuadtreeSpec.node_fingerprints", False),
    ("emd_sketch.CharacterSet.__init__", False),
    ("emd_sketch.CharacterSet.eval_value", False),
    ("emd_sketch.UniverseMap.u_of", False),
    ("emd_sketch.UniverseMap.w_of", False),
    ("emd_sketch.EmdOnePassSketch.__init__", False),
    ("emd_sketch.EmdOnePassSketch.update", False),
    ("emd_sketch.EmdOnePassSketch.estimate", False),
    ("emd_sketch.EmdTwoPassSketch.__init__", False),
    ("emd_sketch.EmdTwoPassSketch.update", False),
    ("emd_sketch.EmdTwoPassSketch.finalize_pass1", False),
    ("emd_sketch.EmdTwoPassSketch.update_pass2", False),
    ("emd_sketch.EmdTwoPassSketch.estimate", False),
    ("emd_sketch._LevelReplica.__init__", False),
    ("emd_sketch._LevelReplica.node_key", False),
    ("emd_sketch._LevelReplica.update", False),
    ("emd_sketch._LevelReplica.update_pass2", False),
    ("emd_sketch._LevelReplica.finalize_pass1", False),
    ("emd_sketch._LevelReplica.vectors", False),
    ("emd_sketch._LevelReplica.one_round_estimates", False),
    ("emd_sketch._LevelReplica.two_round_estimates", False),
    ("emd_sketch._LevelReplica.eta", False),
    ("emd_sketch._OneRoundDecoder.__init__", False),
    ("emd_sketch._OneRoundDecoder.ls1", False),
    ("emd_sketch._OneRoundDecoder.ls2", False),
    ("emd_sketch._OneRoundDecoder.ls3", False),
    ("sketches.LinearSketch.update", False),
    ("sketches.CountSketch.estimate_many", False),
    ("sketches.CauchyL1Sketch.coefficients", False),
    ("sketches.CauchyL1Sketch.estimate", False),
    ("sketches.ExpScaler.variate", False),
    ("sketches.ExpScaler.variates", False),
    ("sketches.L1Sampler.__init__", False),
    ("sketches.L1Sampler.update", False),
    ("sketches.L1Sampler.sample", True),
    ("sketches.L0Sketch.estimate", False),
    ("sketches.stable_median", False),
    ("mst_sketch.MstSketch.__init__", False),
    ("mst_sketch.MstSketch.update", False),
    ("mst_sketch.MstSketch.estimate", False),
    ("mst_sketch.MstSketch.level_counts", False),
    ("mst_sketch.MstSketch.level_mu", True),
    ("mst_sketch._RepState.__init__", False),
    ("mst_sketch._RepState.update", False),
    ("mst_sketch.MstRepView.__init__", False),
    ("mst_sketch.MstRepView.parent_recover", True),
    ("mst_sketch.MstRepView.scan_children", True),
    ("mst_sketch.MstRepView.child_recover", False),
    ("mst_sketch.MstRepView.in_D", False),
    ("mst_sketch.MstRepView.child_representative", True),
    ("mst_sketch.MstRepView.char_of_representative", False),
    ("mst_sketch.MstRepView.sample_tuple", True),
    ("offline.exact_emd", False),
    ("offline.exact_mst", False),
]
DERIVED = {
    "abs_log_ratio": "ln",
    "mst_sketch.sample_success_share": "share",
    "sketches.L1Sampler.sample.fail_share": "share",
    "tracing_overhead": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units: Dict[str, str] = {}
    for name, has_fails in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if has_fails:
            units[f"{name}.fails"] = "count"
    units.update(DERIVED)
    return units


# ---------------------------------------------------------------------------
# one job, stage by stage
# ---------------------------------------------------------------------------


@dataclass
class Job:
    estimate: float
    parse_s: float
    aggregate_s: float
    setup_s: float
    ingest_s: float
    decode_s: float
    updates: int
    sketch: object

    @property
    def job_s(self) -> float:
        return self.parse_s + self.aggregate_s + self.setup_s + self.ingest_s + self.decode_s


def make_sketch(gs, w: Workload, nets):
    """The sketch `cli.run_estimator` builds for these net multisets."""
    if w.problem == "emd":
        A = nets["A"]
        cfg = gs.emd_sketch.EmdSketchConfig(n=len(A), d=A.d, eps=EPS, seed=SKETCH_SEED)
        cls = gs.emd_sketch.EmdTwoPassSketch if w.passes == 2 else gs.emd_sketch.EmdOnePassSketch
        return cls(cfg)
    X = nets["X"]
    return gs.mst_sketch.MstSketch(gs.mst_sketch.MstSketchConfig(n=len(X), d=X.d, seed=SKETCH_SEED))


def feed(sk, w: Workload, nets, second_pass: bool = False) -> int:
    """Apply the net updates in the order of `cli.run_estimator`; returns
    how many were applied."""
    if w.problem == "mst":
        for p, c in nets["X"].items():
            sk.update(p, c)
        return len(nets["X"])
    up = sk.update_pass2 if second_pass else sk.update
    for label in ("A", "B"):
        for p, c in nets[label].items():
            up(p, label, c)
    return len(nets["A"]) + len(nets["B"])


def run_job(gs, w: Workload, stream: bytes, clock: Callable[[], float]) -> Job:
    """Stream bytes to estimate, in the order of `cli.run_estimator`."""
    t0 = clock()
    updates = gs.streamio.parse_stream(stream)
    t1 = clock()
    nets = gs.streamio.aggregate(updates)
    t2 = clock()
    sk = make_sketch(gs, w, nets)
    t3 = clock()
    n_up = feed(sk, w, nets)
    t4 = clock()
    ingest, decode = t4 - t3, 0.0
    if w.passes == 2:
        sk.finalize_pass1()
        t5 = clock()
        n_up += feed(sk, w, nets, second_pass=True)
        t6 = clock()
        decode, ingest, t4 = t5 - t4, ingest + (t6 - t5), t6
    est = sk.estimate()
    decode += clock() - t4
    return Job(float(est), t1 - t0, t2 - t1, t3 - t2, ingest, decode, n_up, sk)


def attempt_job(gs, w: Workload, stream: bytes, ref_hex: str, mc: MachineClock):
    """One job, timed by `mc`, with the heap collected first so that garbage
    left by the previous job is not charged to this one. Returns (job or
    None if it raised or gave a non-finite estimate, estimate differs from
    reference)."""
    gc.collect()
    mc.sample()
    try:
        job = run_job(gs, w, stream, mc.now)
    except (ArithmeticError, ValueError, RuntimeError) as e:
        print(f"perfbench: job raised {type(e).__name__}: {e}", file=sys.stderr)
        return None, False
    if not math.isfinite(job.estimate):
        return None, False
    return job, job.estimate.hex() != ref_hex


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def state_size(gs, sk) -> int:
    """Serialized sketch state in bytes. `EmdTwoPassSketch` has no serializer
    of its own, so its size is the one-pass serialization of the replica
    state it shares plus each round-one sampler's `state_bytes()` and the
    four int64 round-two counters per sampled edge."""
    if not isinstance(sk, gs.emd_sketch.EmdTwoPassSketch):
        return len(sk.state_bytes())
    total = len(gs.emd_sketch.EmdOnePassSketch.state_bytes(sk))
    for per_level in sk.replicas:
        for rep in per_level:
            total += sum(len(s.state_bytes()) for s in rep.samplers.values())
            total += 4 * 8 * len(rep.pass2_counters)
    return total


def median(xs) -> float:
    return float(statistics.median(xs))


def fresh_sample(gs, w: Workload, nets, s: dict, mc: MachineClock) -> None:
    """Construct a fresh sketch (a set-up sample) and, for a one-pass
    estimator, whose ingest needs no decode in between, feed it the whole
    stream (an ingest sample)."""
    gc.collect()
    mc.sample()
    clock = mc.now
    t0 = clock()
    sk = make_sketch(gs, w, nets)
    t1 = clock()
    s["setup_s"].append(t1 - t0)
    if w.passes == 1:
        s["ingest_updates"].append(feed(sk, w, nets))
        s["ingest_s"].append(clock() - t1)


def fits(elapsed: float, wall_s: List[float], seconds: float) -> bool:
    """Whether more than half of another job (judged by the median wall time
    so far) still fits in the window, so that a run overshoots by half a job
    at most."""
    return elapsed + (median(wall_s) / 2 if wall_s else 0.0) < seconds


def measure(gs, w: Workload, nets, stream: bytes, ref_hex: str, seconds: float,
            min_jobs: int) -> dict:
    """The untraced window: jobs back to back, at least `min_jobs` of them,
    with fresh-sketch samples interleaved -- one before each job, and more
    while they have taken less than REP_SHARE of the time -- so that they
    span the whole window as the jobs do. Every sample is timed in
    yardstick seconds (`speed.MachineClock`); the jobs' wall times are kept
    too."""
    clock, mc = time.perf_counter, MachineClock()
    s = {"setup_s": [], "ingest_updates": [], "ingest_s": [], "job_s": [], "decode_s": [],
         "parse_s": [], "aggregate_s": [], "job_wall_s": [], "attempted": 0, "failed": 0,
         "wrong": 0}
    start, rep_s, reps = clock(), 0.0, 0
    mc.start()
    try:
        while True:
            elapsed = clock() - start
            if reps <= s["attempted"] or rep_s < REP_SHARE * elapsed:
                fresh_sample(gs, w, nets, s, mc)
                rep_s += clock() - start - elapsed
                reps += 1
                continue
            if s["attempted"] >= min_jobs and not fits(elapsed, s["job_wall_s"], seconds):
                break
            s["attempted"] += 1
            job, wrong = attempt_job(gs, w, stream, ref_hex, mc)
            if job is None:
                s["failed"] += 1
                continue
            s["job_wall_s"].append(clock() - start - elapsed)
            s["wrong"] += wrong
            if "state_bytes" not in s:
                s["state_bytes"] = state_size(gs, job.sketch)
            job.sketch = None
            s["setup_s"].append(job.setup_s)
            s["ingest_updates"].append(job.updates)
            s["ingest_s"].append(job.ingest_s)
            for key in ("job_s", "decode_s", "parse_s", "aggregate_s"):
                s[key].append(getattr(job, key))
    finally:
        mc.stop()
    s["machine_speed"], s["yardstick_samples"] = mc.mean_speed(), len(mc.samples)
    return s


def traced(gs, w: Workload, stream: bytes, ref_hex: str, seconds: float,
           span_path: Path) -> dict:
    """Jobs with every layer wrapped, for `seconds` (at least one job). The
    counters are per-job means: name -> [calls, self_s, fails, total_s];
    spans, like `job_s`, are in yardstick seconds. The oracle, which is not
    part of a job, is traced once on its own."""
    from spans import Tracer

    mc = MachineClock()
    tracer = Tracer(gs, clock=mc.now)
    totals: Dict[str, List[float]] = {}
    s = {"job_s": [], "job_wall_s": [], "estimates_hex": [], "top_level_s": [],
         "attempted": 0, "failed": 0, "wrong": 0}
    span_path.unlink(missing_ok=True)
    tracer.install()
    try:
        mc.start()
        start = time.perf_counter()
        while s["attempted"] < 1 or fits(time.perf_counter() - start, s["job_wall_s"], seconds):
            s["attempted"] += 1
            tracer.reset()
            t0 = time.perf_counter()
            job, wrong = attempt_job(gs, w, stream, ref_hex, mc)
            if job is None:
                s["failed"] += 1
                continue
            s["job_wall_s"].append(time.perf_counter() - t0)
            s["wrong"] += wrong
            s["job_s"].append(job.job_s)
            s["estimates_hex"].append(job.estimate.hex())
            job.sketch = None
            s["top_level_s"].append(tracer.top_level_time())
            tracer.write(str(span_path), s["attempted"])
            for name, vals in tracer.snapshot().items():
                acc = totals.setdefault(name, [0, 0.0, 0, 0.0])
                acc[:] = [a + v for a, v in zip(acc, vals)]
        mc.stop()
        tracer.reset()
        nets = gs.streamio.aggregate(gs.streamio.parse_stream(stream))
        if w.problem == "emd":
            gs.offline.exact_emd(nets["A"], nets["B"])
        else:
            gs.offline.exact_mst(nets["X"])
        oracle = {k: v for k, v in tracer.snapshot().items() if k.startswith("offline.")}
    finally:
        mc.stop()
        tracer.uninstall()
    k = max(1, len(s["job_s"]))
    per_job = {name: [v / k for v in acc] for name, acc in totals.items()}
    per_job.update(oracle)
    s["per_job"] = {name: v for name, v in sorted(per_job.items()) if v[0]}
    s["self_s_sum"] = sum(v[1] for name, v in per_job.items() if name not in oracle)
    return s


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (seconds instead of minutes)")
    args = ap.parse_args(argv)
    w = (TINY if args.tiny else WORKLOADS)[args.workload]

    if not (SRC / "geosketch" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geosketch as gs
    from geosketch import cli, offline, streamio

    # the instance and its exact value (off the job path)
    inst = gs.generators.gen_instance(w.kind, w.n, w.d, args.seed)
    stream = streamio.write_stream(inst.updates).encode("ascii")
    nets = streamio.aggregate(streamio.parse_stream(stream))
    if w.problem == "emd":
        exact = float(offline.exact_emd(nets["A"], nets["B"]))
    else:
        exact = float(offline.exact_mst(nets["X"]))

    # correctness gate: the CLI's own path gives the reference estimate
    ref = cli.run_estimator(streamio.parse_stream(stream), problem=w.problem,
                            passes=w.passes, eps=EPS, seed=SKETCH_SEED).estimate
    if not math.isfinite(ref):
        print(f"perfbench: cli.run_estimator gave a non-finite estimate {ref}",
              file=sys.stderr)
        return 1
    ref_hex = float(ref).hex()

    # a traced run needs only the untraced job time, for tracing_overhead
    s = measure(gs, w, nets, stream, ref_hex, args.seconds / 2 if args.trace else args.seconds,
                min_jobs=1 if args.trace else MIN_JOBS)
    if not s["job_s"]:
        print("perfbench: every job failed", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {"workload": args.workload, "seed": args.seed, "n": w.n, "d": w.d,
              "estimate_hex": ref_hex, "estimate": ref, "exact": exact, **s}
    attempted, failed, wrong = s["attempted"], s["failed"], s["wrong"]

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        t = traced(gs, w, stream, ref_hex, args.seconds / 2, span_path)
        if not t["job_s"]:
            print("perfbench: every traced job failed", file=sys.stderr)
            return 1
        attempted, failed, wrong = (attempted + t["attempted"], failed + t["failed"],
                                    wrong + t["wrong"])
        detail["traced"] = {**t, "spans_file": str(span_path.relative_to(ROOT))}
        values = per_layer_values(t, median(s["job_s"]), ref, exact)
        units = per_layer_units()
    else:
        values = {
            "setup_s": median(s["setup_s"]),
            "ingest_ups": sum(s["ingest_updates"]) / sum(s["ingest_s"]),
            "decode_s": median(s["decode_s"]),
            "job_s": median(s["job_s"]),
            "state_bytes": float(s["state_bytes"]),
            "peak_rss_mb": peak_rss_mb,
            "success_share": (attempted - failed) / attempted,
        }
        units = END_TO_END
    print(json.dumps(detail))
    correct = wrong == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0 if correct else 1


def per_layer_values(t: dict, untraced_job_s: float, estimate: float, exact: float) -> dict:
    """The per-layer metrics of a traced run, by name."""
    values: Dict[str, float] = {}
    for name, has_fails in TRACED:
        calls, self_s, fails, _ = t["per_job"].get(name, (0, 0.0, 0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        if has_fails:
            values[f"{name}.fails"] = fails
    tup, smp = "mst_sketch.MstRepView.sample_tuple", "sketches.L1Sampler.sample"
    values["mst_sketch.sample_success_share"] = (
        1.0 - values[f"{tup}.fails"] / values[f"{tup}.calls"] if values[f"{tup}.calls"] else 0.0)
    values[f"{smp}.fail_share"] = (
        values[f"{smp}.fails"] / values[f"{smp}.calls"] if values[f"{smp}.calls"] else 0.0)
    values["tracing_overhead"] = median(t["job_s"]) / untraced_job_s
    values["abs_log_ratio"] = abs(math.log(estimate / exact))
    return values


if __name__ == "__main__":
    sys.exit(main())
