"""Turnstile-stream command line: run estimators, generate instances.

    geosketch run  --problem {emd,mst} [--passes {1,2}] [--eps E (EMD)] [--seed S]
                   [--oracle] [--config cfg.json] [--report out.json]
                   [--csv out.csv] STREAM
    geosketch gen  --kind KIND --n N --d D [--seed S] [--param k=v ...]
                   [--format {text,bin}] [--out FILE]

`run` reads a stream as binary if it starts with the magic `GSK1`, else as
text. Reports are machine-readable JSON. The environment variable
GEOSKETCH_SEED overrides any configured seed. A dimension that is not a
power of two is zero-padded to the next one, which changes no distance. Bad
input is reported as `geosketch: error: <message>` with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, asdict
from typing import Dict, List, Optional

from .emd_sketch import EmdOnePassSketch, EmdSketchConfig, EmdTwoPassSketch, SamplesFailed
from .generators import gen_instance
from .mst_sketch import MstSketch, MstSketchConfig
from .offline import EMD_ORACLE_CAP, MST_ORACLE_CAP, exact_emd, exact_mst
from .streamio import (
    Stream,
    aggregate,
    parse_stream,
    parse_stream_binary,
    write_stream,
    write_stream_binary,
)

__all__ = ["EstimateReport", "run_estimator", "main"]

# The stream labels each problem reads.
_LABELS = {"emd": ("A", "B"), "mst": ("X",)}
_EPS = 0.1  # the EMD eps of `geosketch run`


def _check_eps(eps: float) -> None:
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be a finite number greater than 0, got {eps!r}")


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


def run_estimator(
    stream: Stream,
    problem: str,
    passes: int = 1,
    eps: float = _EPS,
    seed: int = 0,
    oracle: bool = False,
    config: EmdSketchConfig | MstSketchConfig | None = None,
) -> EstimateReport:
    """Pad the stream's points to a power-of-two dimension (`Stream.padded`),
    aggregate it (estimates are unchanged, by linearity), run the requested
    estimator, and optionally the exact oracle. The sketch is built from
    `config` if given, which must be the problem's (`EmdSketchConfig` or
    `MstSketchConfig`, else ValueError), and otherwise from `eps` and
    `seed`. The report keeps the input dimension and the eps the estimate
    used: the EMD config's, or the 1/2 at which every MST sketch is built
    (`MstSketchConfig.eps`; the MST estimator reads no `eps`). A stream
    label the problem does not read (EMD reads A and B, MST reads X) raises
    ValueError. `oracle` runs the exact oracle only up to n =
    `EMD_ORACLE_CAP` (512) or `MST_ORACLE_CAP` (2048): above its cap the
    report's `exact` and `ratio` are None."""
    _check_eps(eps)
    if problem not in _LABELS:
        raise ValueError(f"unknown problem {problem!r}")
    want = EmdSketchConfig if problem == "emd" else MstSketchConfig
    if config is not None and not isinstance(config, want):
        raise ValueError(f"the {problem.upper()} estimator takes a {want.__name__}, "
                         f"got a {type(config).__name__}")
    t0 = time.monotonic()
    nets = aggregate(stream.padded(1 << (stream.d - 1).bit_length()))
    unread = sorted(set(nets) - set(_LABELS[problem]))
    if unread:
        raise ValueError(f"{problem.upper()} streams read labels {', '.join(_LABELS[problem])} "
                         f"only, got {', '.join(unread)}")
    if problem == "emd":
        A = nets.get("A")
        B = nets.get("B")
        if A is None or B is None or len(A) != len(B) or len(A) == 0:
            raise ValueError("EMD streams must end with non-empty |A| = |B|")
        n = len(A)
        cfg = config or EmdSketchConfig(n=n, d=A.d, eps=eps, seed=seed)
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
    else:
        if passes != 1:
            raise ValueError("the MST estimator is one-pass")
        X = nets.get("X")
        if X is None or len(X) == 0:
            raise ValueError("MST streams must end with a non-empty X")
        n = len(X)
        cfg = config or MstSketchConfig(n=n, d=X.d, seed=seed)
        sk = MstSketch(cfg)
        for p, c in X.items():
            sk.update(p, c)
        estimate = sk.estimate()
        exact = float(exact_mst(X)) if oracle and n <= MST_ORACLE_CAP else None

    report = EstimateReport(
        problem=problem,
        estimate=float(estimate),
        n=n,
        d=stream.d,
        eps=cfg.eps,  # the eps the estimate used
        seeds={"config": cfg.seed, "tree": sk.tree.seed},
        wall_time_s=round(time.monotonic() - t0, 6),
        exact=exact,
        ratio=(float(estimate) / exact) if exact else None,
    )
    return report


def _read_stream(path: str) -> Stream:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            data = f.read()
    if data[:4] == b"GSK1":
        return parse_stream_binary(data)
    return parse_stream(data)


def _cmd_run(args) -> int:
    if args.eps is not None:
        _check_eps(args.eps)  # a bad value is named as such first
        if args.problem == "mst":
            raise ValueError(f"--eps is not read by the MST estimator, which is built at "
                             f"eps = {MstSketchConfig.eps}")
    try:
        seed = int(os.environ.get("GEOSKETCH_SEED", args.seed or 0))
    except ValueError:  # args.seed is an int already
        raise ValueError("GEOSKETCH_SEED must be an integer, got "
                         f"{os.environ['GEOSKETCH_SEED']!r}") from None
    config = None
    if args.config:
        for flag, value in (("--eps", args.eps), ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"{flag} cannot be given with --config: the config file "
                                 f"sets the {flag[2:]}")
        with open(args.config) as f:
            obj = json.load(f)
        if not isinstance(obj, dict):
            raise ValueError("a --config file must hold a JSON object")
        kind = obj.get("kind")
        if kind not in ("emd-config", "mst-config"):
            raise ValueError(f"unrecognized config kind {kind!r}")
        if kind != f"{args.problem}-config":
            raise ValueError(f"--config holds an {kind}, which --problem {args.problem} "
                             f"cannot use")
        if "GEOSKETCH_SEED" in os.environ:
            obj["seed"] = seed
        cls = EmdSketchConfig if kind == "emd-config" else MstSketchConfig
        config = cls.from_json(json.dumps(obj))
    stream = _read_stream(args.stream)
    try:
        report = run_estimator(
            stream,
            problem=args.problem,
            passes=args.passes,
            eps=_EPS if args.eps is None else args.eps,
            seed=seed,
            oracle=args.oracle,
            config=config,
        )
    except SamplesFailed as e:
        raise ValueError(f"{e}; raise `samples` in a --config file") from e
    if args.oracle and report.exact is None:
        cap = EMD_ORACLE_CAP if args.problem == "emd" else MST_ORACLE_CAP
        print(f"geosketch: --oracle skipped: exact_{args.problem} is capped at n = {cap}, "
              f"and this stream has n = {report.n}", file=sys.stderr)
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


def _param(token: str):
    """(name, number) of a `--param name=number` token: an int if it reads as one."""
    name, _, text = token.partition("=")
    for number in (int, float):
        try:
            return name, number(text)
        except ValueError:
            pass
    raise ValueError(f"--param {token!r} is not name=number")


def _cmd_gen(args) -> int:
    params = dict(_param(kv) for kv in args.param or [])
    inst = gen_instance(args.kind, args.n, args.d, args.seed, **params)
    comments = [f"{k}={v}" for k, v in inst.meta.items()]
    if args.format == "bin":
        data, mode = write_stream_binary(inst.updates), "wb"
    else:
        data, mode = write_stream(inst.updates, comments=comments), "w"
    if args.out is None:
        (sys.stdout.buffer if mode == "wb" else sys.stdout).write(data)
    else:
        with open(args.out, mode) as f:
            f.write(data)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="geosketch", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an estimator over a stream")
    run.add_argument("stream", help="stream file, or '-' for stdin")
    run.add_argument("--problem", choices=["emd", "mst"], required=True)
    run.add_argument("--passes", type=int, choices=[1, 2], default=1)
    run.add_argument("--eps", type=float,
                     help=f"EMD additive error (default {_EPS}); MST reads none")
    run.add_argument("--seed", type=int,
                     help="sketch seed (default 0); a --config file sets its own")
    run.add_argument("--oracle", action="store_true",
                     help=f"also compute the exact value, up to n = {EMD_ORACLE_CAP} (EMD) "
                          f"or {MST_ORACLE_CAP} (MST)")
    run.add_argument("--config", help="estimator config JSON")
    run.add_argument("--report", help="write the JSON report here too")
    run.add_argument("--csv", help="append a CSV row here")
    run.set_defaults(func=_cmd_run)

    gen = sub.add_parser("gen", help="generate an instance stream")
    gen.add_argument("--kind", required=True,
                     choices=["uniform", "clustered", "matched_noise",
                              "hard_mst", "hard_emd"])
    gen.add_argument("--n", type=int, required=True,
                     help="points per label; hard_mst writes k clusters of n points "
                          "(k n in all), and the hard kinds need n a multiple of 2d")
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
