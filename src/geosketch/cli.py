"""Turnstile-stream command line: run estimators, generate instances.

    geosketch run  --problem {emd,mst} [--passes {1,2}] [--eps E] [--seed S]
                   [--oracle] [--config cfg.json] [--format {text,bin}]
                   [--report out.json] [--csv out.csv] STREAM
    geosketch gen  --kind KIND --n N --d D [--seed S] [--param k=v ...]
                   [--format {text,bin}] [--out FILE]

Reports are machine-readable JSON. The environment variable GEOSKETCH_SEED
overrides any configured seed. A dimension that is not a power of two is
zero-padded to the next one, which changes no distance. Bad input is
reported as `geosketch: error: <message>` with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, asdict
from typing import Dict, List, Optional

from .emd_sketch import EmdOnePassSketch, EmdSketchConfig, EmdTwoPassSketch
from .generators import gen_instance
from .mst_sketch import MstSketch, MstSketchConfig, SamplesFailed
from .offline import EMD_ORACLE_CAP, MST_ORACLE_CAP, exact_emd, exact_mst
from .points import HypercubePoint, PointMultiset
from .streamio import (
    TurnstileUpdate,
    aggregate,
    parse_stream,
    parse_stream_binary,
    write_stream,
    write_stream_binary,
)

__all__ = ["EstimateReport", "run_estimator", "main"]


@dataclass
class EstimateReport:
    problem: str
    estimate: float
    n: int
    d: int
    eps: float
    seeds: Dict[str, int]
    wall_time_s: float
    exact: Optional[float] = None
    ratio: Optional[float] = None

    def to_json(self) -> str:
        obj = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(obj, indent=2, sort_keys=True)


def _feed_emd(sk, A, B, second_pass: bool = False):
    up = sk.update_pass2 if second_pass else sk.update
    for p, c in A.items():
        up(p, "A", c)
    for p, c in B.items():
        up(p, "B", c)


def _pad(ms: PointMultiset) -> PointMultiset:
    """ms with every point zero-padded on the right to the next power-of-two
    dimension, which the quadtree needs; Hamming distances are unchanged."""
    d = 1 << (ms.d - 1).bit_length()
    out = PointMultiset(d)
    for p, c in ms.items():
        out.add(HypercubePoint(d, p.value << (d - ms.d)), c)
    return out


def run_estimator(
    updates: List[TurnstileUpdate],
    problem: str,
    passes: int = 1,
    eps: float = 0.1,
    seed: int = 0,
    oracle: bool = False,
    emd_config: Optional[EmdSketchConfig] = None,
    mst_config: Optional[MstSketchConfig] = None,
) -> EstimateReport:
    """Aggregate the stream (estimates are unchanged, by linearity), pad the
    points to a power-of-two dimension, run the requested estimator, and
    optionally the exact oracle. The report keeps the input dimension."""
    t0 = time.monotonic()
    nets = aggregate(updates)
    if problem == "emd":
        A = nets.get("A")
        B = nets.get("B")
        if A is None or B is None or len(A) != len(B) or len(A) == 0:
            raise ValueError("EMD streams must end with non-empty |A| = |B|")
        n, d = len(A), A.d
        A, B = _pad(A), _pad(B)
        cfg = emd_config or EmdSketchConfig(n=n, d=A.d, eps=eps, seed=seed)
        if passes == 2:
            sk = EmdTwoPassSketch(cfg)
            _feed_emd(sk, A, B)
            sk.finalize_pass1()
            _feed_emd(sk, A, B, second_pass=True)
        elif passes == 1:
            sk = EmdOnePassSketch(cfg)
            _feed_emd(sk, A, B)
        else:
            raise ValueError("passes must be 1 or 2")
        estimate = sk.estimate()
        exact = float(exact_emd(A, B)) if oracle and n <= EMD_ORACLE_CAP else None
    elif problem == "mst":
        if passes != 1:
            raise ValueError("the MST estimator is one-pass")
        X = nets.get("X")
        if X is None or len(X) == 0:
            raise ValueError("MST streams must end with a non-empty X")
        n, d = len(X), X.d
        X = _pad(X)
        cfg = mst_config or MstSketchConfig(n=n, d=X.d, seed=seed)
        sk = MstSketch(cfg)
        for p, c in X.items():
            sk.update(p, c)
        estimate = sk.estimate()
        exact = float(exact_mst(X)) if oracle and n <= MST_ORACLE_CAP else None
    else:
        raise ValueError(f"unknown problem {problem!r}")

    report = EstimateReport(
        problem=problem,
        estimate=float(estimate),
        n=n,
        d=d,
        eps=eps,
        seeds={"config": cfg.seed, "tree": sk.tree.seed},
        wall_time_s=round(time.monotonic() - t0, 6),
        exact=exact,
        ratio=(float(estimate) / exact) if exact else None,
    )
    return report


def _read_updates(path: str, fmt: str) -> List[TurnstileUpdate]:
    data = sys.stdin.buffer.read() if path == "-" else open(path, "rb").read()
    if fmt == "bin" or (fmt == "auto" and data[:4] == b"GSK1"):
        return parse_stream_binary(data)
    return parse_stream(data)


def _cmd_run(args) -> int:
    seed = int(os.environ.get("GEOSKETCH_SEED", args.seed))
    emd_cfg = mst_cfg = None
    if args.config:
        obj = json.loads(open(args.config).read())
        if not isinstance(obj, dict):
            raise ValueError("a --config file must hold a JSON object")
        kind = obj.get("kind")
        if kind not in ("emd-config", "mst-config"):
            raise ValueError(f"unrecognized config kind {kind!r}")
        if "GEOSKETCH_SEED" in os.environ:
            obj["seed"] = seed
        if kind == "emd-config":
            emd_cfg = EmdSketchConfig.from_json(json.dumps(obj))
        else:
            mst_cfg = MstSketchConfig.from_json(json.dumps(obj))
    updates = _read_updates(args.stream, args.format)
    try:
        report = run_estimator(
            updates,
            problem=args.problem,
            passes=args.passes,
            eps=args.eps,
            seed=seed,
            oracle=args.oracle,
            emd_config=emd_cfg,
            mst_config=mst_cfg,
        )
    except SamplesFailed as e:
        raise ValueError(f"{e}; raise `samples` in a --config file") from e
    text = report.to_json()
    if args.report:
        with open(args.report, "w") as f:
            f.write(text + "\n")
    if args.csv:
        import csv

        new = not os.path.exists(args.csv)
        with open(args.csv, "a", newline="") as f:
            w = csv.writer(f)
            if new:
                w.writerow(["problem", "n", "d", "eps", "estimate", "exact", "ratio",
                            "wall_time_s"])
            w.writerow([report.problem, report.n, report.d, report.eps,
                        report.estimate, report.exact, report.ratio,
                        report.wall_time_s])
    print(text)
    return 0


def _cmd_gen(args) -> int:
    params = {}
    for kv in args.param or []:
        k, _, v = kv.partition("=")
        params[k] = float(v) if "." in v else int(v)
    inst = gen_instance(args.kind, args.n, args.d, args.seed, **params)
    comments = [f"{k}={v}" for k, v in inst.meta.items()]
    if args.format == "bin":
        blob = write_stream_binary(inst.updates)
        out = sys.stdout.buffer if args.out is None else open(args.out, "wb")
        out.write(blob)
        if args.out is not None:
            out.close()
    else:
        text = write_stream(inst.updates, comments=comments)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as f:
                f.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="geosketch", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an estimator over a stream")
    run.add_argument("stream", help="stream file, or '-' for stdin")
    run.add_argument("--problem", choices=["emd", "mst"], required=True)
    run.add_argument("--passes", type=int, choices=[1, 2], default=1)
    run.add_argument("--eps", type=float, default=0.1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--oracle", action="store_true",
                     help="also compute the exact value (size-capped)")
    run.add_argument("--config", help="estimator config JSON")
    run.add_argument("--format", choices=["auto", "text", "bin"], default="auto")
    run.add_argument("--report", help="write the JSON report here too")
    run.add_argument("--csv", help="append a CSV row here")
    run.set_defaults(func=_cmd_run)

    gen = sub.add_parser("gen", help="generate an instance stream")
    gen.add_argument("--kind", required=True,
                     choices=["uniform", "clustered", "matched_noise",
                              "hard_mst", "hard_emd"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--param", action="append",
                     help="extra generator parameter, e.g. --param k=5")
    gen.add_argument("--format", choices=["text", "bin"], default="text")
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"geosketch: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
