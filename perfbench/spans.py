"""Span tracing of geosketch's layers, installed from outside the program.

`Tracer.install()` replaces every public function of the traced modules, and
every public method (plus `__init__`) of the classes they define, with a
wrapper that records one span per call: (id, name, start, end, parent id).
Every binding of a wrapped function in the package is replaced, so callers
that imported it by name are traced too. `uninstall()` restores the
originals. The wrapper only observes: arguments and results pass through
unchanged, so estimates stay bit-identical.

Per wrapped name the tracer keeps the call count, self time (span time minus
the time of wrapped calls made inside it), a failure count -- calls that
raised, returned the `FAIL` sentinel, or, for the functions in
`NONE_IS_FAIL`, returned None -- and total (inclusive) time.
"""

from __future__ import annotations

import gzip
import json
import time
import types
from typing import Callable, Dict, List, Tuple

# The layers: geosketch modules whose public API is wrapped.
LAYERS = ("streamio", "quadtree", "emd_sketch", "mst_sketch", "sketches", "offline")

# One-line arithmetic run on every read of a config's derived parameters
# (`L`, `p`, `alpha`), like hashing.mix64/combine (which lie outside the
# layers); wrapping it would measure the wrapper, not the program.
SKIP = {"emd_sketch.log2n"}

# Functions whose documented failure value is None rather than FAIL.
NONE_IS_FAIL = {"mst_sketch.MstRepView.parent_recover"}

Span = Tuple[int, int, float, float, int]


class Tracer:
    def __init__(self, package, clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.clock = clock
        self.names: List[str] = []
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, self_s, fails, total_s]
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._child: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        st = self.stats.setdefault(name, [0, 0.0, 0, 0.0])
        none_fails = name in NONE_IS_FAIL
        fail = self.package.FAIL
        clock, spans, stack, child = self.clock, self.spans, self._stack, self._child

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id; filled in below
            stack.append(sid)
            child.append(0.0)
            failed = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = out is fail or (none_fails and out is None)
                return out
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += t1 - t0
                st[0] += 1
                st[1] += (t1 - t0) - inner
                st[2] += failed
                st[3] += t1 - t0
                spans[sid] = (sid, idx, t0, t1, parent)

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public API of every module in LAYERS."""
        pkg = self.package.__name__
        modules = [self.package] + [
            m for m in vars(self.package).values()
            if isinstance(m, types.ModuleType) and m.__name__.startswith(pkg + ".")
        ]
        replaced: Dict[int, Callable] = {}
        for short in LAYERS:
            mod = getattr(self.package, short)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    if name not in SKIP:
                        replaced[id(obj)] = self._wrap(name, obj)
                elif isinstance(obj, type):
                    self._install_class(short, obj)
        # rebind every module-level reference to a wrapped function
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if id(obj) in replaced and isinstance(obj, types.FunctionType):
                    self._patches.append((m, attr, obj))
                    setattr(m, attr, replaced[id(obj)])

    def _install_class(self, short: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, types.FunctionType):
                new = self._wrap(name, raw)
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                continue  # properties and data
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reading -----------------------------------------------------------------
    def reset(self) -> None:
        """Drop spans and zero the counters (the wrappers stay installed)."""
        self.spans.clear()
        for st in self.stats.values():
            st[:] = [0, 0.0, 0, 0.0]

    def snapshot(self) -> Dict[str, List[float]]:
        """name -> [calls, self_s, fails, total_s] since the last reset."""
        return {k: list(v) for k, v in self.stats.items()}

    def top_level_time(self) -> float:
        """Total time of spans without a traced parent."""
        return sum(s[3] - s[2] for s in self.spans if s is not None and s[4] < 0)

    def write(self, path: str, job: int) -> None:
        """Append this job's spans to a gzip file as JSON lines
        [job, id, name, start, end, parent]."""
        names = [json.dumps(n) for n in self.names]
        with gzip.open(path, "at", compresslevel=1) as f:
            f.writelines(f"[{job}, {sid}, {names[idx]}, {t0!r}, {t1!r}, {parent}]\n"
                         for sid, idx, t0, t1, parent in self.spans)
