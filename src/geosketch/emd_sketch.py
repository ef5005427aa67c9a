"""Composed EMD estimators over the quadtree: characters, universe reduction,
the two-round sampling sketch, and the one-round LS1/LS2/LS3 stack.

Per tree level i, the target quantity is

    I_i = (2 Delta_i / alpha_i) * E_{v ~ V_i, S ~ S_i}[ p_{pi(v), v, S} ]

where Delta_i is the total discrepancy sum_v ||A_v| - |B_v||, S is drawn by
keeping each coordinate with probability alpha_i = 2^i / (d log^2 n), and
p_{u,v,S} is the probability that the character chi_S disagrees on a random
point of C_u and a random point of C_v. Summed over levels, I sandwiches
EMD(A, B) within ~log n factors for most trees, and every factor of it is
estimable by small linear sketches.

State discipline: the sketch keeps one `SparseCounts`, packed point ->
[net |A| count, net |B| count], plus seeds (a two-pass sketch keeps a second
one for pass 2); an update adds one row to it and writes nothing else. That
store is the aggregated input, the smallest exact state, not the paper's
polylog-size sketch (a bounded mode is ROADMAP Direction 6). Every
replica's counts are a view of it, built once per read for all replicas in
one batch (`views`): a `CountView` whose sorted key array holds the
universe-reduced nodes (u, w) and whose rows hold |A_v|, |B_v|, and per
character set the positive-parity count. Every reader takes those arrays
directly, and every sketch of a level is a view of them, built in
canonical order: the LS1/LS2/LS3 Count-Sketch tables, the Delta-hat Cauchy
sketch and the round-one l1 samplers (both of the node discrepancy
q_v = |A_v| - |B_v|), and the round-two counters, sums of the pass-2 view
at each sampled edge. By linearity the result is identical to eager
per-update accumulation, but states merge and replay bit-for-bit. Node ids
are uint64 throughout. `state_bytes` is `encode_state` of the one store.

One-pass decode: a replica averages one-round LS1 -> LS2 -> LS3 decodes
over a grid of (set, inner copy, round, repetition) cells, decoded in
blocks of about `_LS_BLOCK_WORDS` hashed words with one stacked array call
per stage; it equals one decode per cell bit for bit (`one_round_estimates`).

Repetition counts are configuration. Paper-rate defaults (log-power laws) are
provided for reference but are far too heavy for interactive use; the desk
profile keeps end-to-end runs at seconds while exercising every stage.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import hashing as hx
from .hashing import U64
from .points import HypercubePoint, PointMultiset, hamming_matrix, values_to_matrix
from .quadtree import QuadtreeSpec, sample_quadtree
from .offline import _decompose_pair
from .sketches import (
    FAIL,
    CauchyL1Sketch,
    CountView,
    L1Sampler,
    SparseCounts,
    _cs_coords,
    _cs_estimates,
    _cs_table,
    _median,
    _scatter_sum,
    encode_state,
)

__all__ = [
    "CharacterSet",
    "UniverseMap",
    "EmdSketchConfig",
    "EmdOnePassSketch",
    "EmdTwoPassSketch",
    "split_probability",
    "reference_I_i",
    "expected_split_probability",
]


# Hashed words per block of one-round grid cells: a block's temporaries stay
# in cache, and the memory they take does not grow with the grid.
_LS_BLOCK_WORDS = 100_000


def log2n(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n))))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


class CharacterSet:
    """Random S subset of [d], each coordinate kept i.i.d. at `rate`.

    chi_S(x) = (-1)^{sum_{k in S} x_k}; stored as a packed mask aligned with
    HypercubePoint.value.
    """

    _SALT = 0xC4A2

    def __init__(self, d: int, rate: float, seed: int):
        self.d = d
        self.rate = min(1.0, max(0.0, rate))
        self.seed = seed
        u = hx.uniform01(hx.combine(seed, self._SALT, np.arange(d, dtype=U64)))
        member = u < self.rate
        mask = 0
        for k in np.nonzero(member)[0]:
            mask |= 1 << (d - 1 - int(k))
        self.mask = mask
        self.indices = np.nonzero(member)[0]

    def eval(self, x: HypercubePoint) -> int:
        """chi_S(x) in {-1, +1}."""
        if x.d != self.d:
            raise ValueError("dimension mismatch")
        return -1 if (self.mask & x.value).bit_count() & 1 else 1

    def eval_matrix(self, X: np.ndarray) -> np.ndarray:
        """chi_S row-wise over a (n, d) bit matrix."""
        if len(self.indices) == 0:
            return np.ones(X.shape[0], dtype=np.int8)
        par = X[:, self.indices].sum(axis=1) & 1
        return np.where(par == 1, -1, 1).astype(np.int8)


def split_probability(C_u: PointMultiset, C_v: PointMultiset, S: CharacterSet) -> float:
    """Pr[chi_S(c_u) != chi_S(c_v)] for independent uniform draws from the two
    populations; 0 when either population is empty (the avg = 0 convention)."""
    if len(C_u) == 0 or len(C_v) == 0:
        return 0.0

    def plus_fraction(ms: PointMultiset) -> float:
        tot = plus = 0
        for p, c in ms.items():
            tot += c
            if S.eval(p) == 1:
                plus += c
        return plus / tot

    qu = plus_fraction(C_u)
    qv = plus_fraction(C_v)
    return qu * (1.0 - qv) + qv * (1.0 - qu)


def expected_split_probability(dists: np.ndarray, weights: np.ndarray, rate: float) -> float:
    """E_S[p_{u,v,S}] in closed form: a pair at distance D disagrees with
    probability (1 - (1-2a)^D)/2 over S with keep-rate a."""
    rho = (1.0 - (1.0 - 2.0 * rate) ** dists) / 2.0
    return float((rho * weights).sum() / weights.sum())


# ---------------------------------------------------------------------------
# universe reduction
# ---------------------------------------------------------------------------


def default_universe_m(n: int) -> int:
    """The default universe size max(8, n^3), clamped to 2^64 - 1 so that
    the node ids stay uint64 (the clamp acts for n > 2,642,245)."""
    return min(max(8, n**3), 2**64 - 1)


class UniverseMap:
    """Keyed-hash reduction of parent/child node fingerprints into uint64
    ids in [m]. The seed may be an array, which then broadcasts against the
    fingerprints (one id per seed)."""

    _SALT_U = 0x0E0A
    _SALT_W = 0x0E0B

    def __init__(self, m: int, seed: int):
        if m < 2:
            raise ValueError("m must be >= 2")
        self.m = m
        self.seed = seed

    def _ids(self, salt: int, fp: np.ndarray) -> np.ndarray:
        fp = np.atleast_2d(np.asarray(fp, dtype=U64))
        return hx.combine(self.seed, salt, fp[..., 0], fp[..., 1]) % U64(self.m)

    def u_of(self, fp: np.ndarray) -> np.ndarray:
        """Parent ids in [m]; fp is a (..., 2) uint64 fingerprint array."""
        return self._ids(self._SALT_U, fp)

    def w_of(self, fp: np.ndarray) -> np.ndarray:
        """Child slot ids in [m]."""
        return self._ids(self._SALT_W, fp)


def replica_node_ids(tree: QuadtreeSpec, X: np.ndarray, reps) -> Tuple[np.ndarray, np.ndarray]:
    """(u, w), each (len(reps), n): each replica's ids (its `umap`, all of
    one size m) of the parent and the node at its `level` of the n points
    with bits X (n, d), in one hash call per id. Only the depths the levels
    of reps read are fingerprinted: i - 1 and i for each level i."""
    lv = np.array([rep.level for rep in reps], dtype=np.int64)
    depths = np.union1d(lv - 1, lv)
    fp = np.stack([tree.node_fingerprints(X, int(j)) for j in depths])
    at = np.searchsorted(depths, lv)  # depth i - 1 sits just before depth i
    seeds = np.array([rep.umap.seed for rep in reps], dtype=U64)[:, None]
    umap = UniverseMap(reps[0].umap.m, seeds)
    return umap.u_of(fp[at - 1]), umap.w_of(fp[at])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def check_config(cfg) -> None:
    """Raise a ValueError naming the first field of the config dataclass
    cfg with a wrong value: a float field must be a finite number, and
    `eps` above 0; an int field an integer below 2^64 and at least 1, or at
    least 0 where 0 is its default (the seed, and the sizes for which 0
    selects a derived value)."""
    for f in fields(cfg):
        v, lo = getattr(cfg, f.name), 0 if f.default == 0 else 1
        finite = isinstance(v, (int, float)) and -math.inf < v < math.inf
        if isinstance(v, bool) or (f.type == "float" and not finite):
            raise ValueError(f"config field {f.name!r} must be a finite number, got {v!r}")
        if f.name == "eps" and not v > 0:
            raise ValueError(f"config field 'eps' must be greater than 0, got {v!r}")
        if f.type == "int" and not (isinstance(v, (int, np.integer)) and lo <= v < 2**64):
            raise ValueError(
                f"config field {f.name!r} must be an integer in [{lo}, 2^64), got {v!r}")


def config_from_json(cls, text: str, kind: str):
    """The config of dataclass cls serialized in text: a JSON object of the
    given kind and version 1 whose other keys are fields of cls, each
    required field present."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or obj.pop("kind", None) != kind or obj.pop("version", None) != 1:
        raise ValueError(f"not a serialized {kind} (a JSON object with version 1)")
    fs = fields(cls)
    missing = [f.name for f in fs if f.default is MISSING and f.name not in obj]
    for what, bad in (("unknown", sorted(set(obj) - {f.name for f in fs})), ("missing", missing)):
        if bad:
            raise ValueError(f"{kind}: {what} field(s) {', '.join(map(repr, bad))}")
    return cls(**obj)


@dataclass
class EmdSketchConfig:
    """Shape of the per-level EMD sketch stack.

    `n_sets` character sets per level; `n_inner` independent inner sketches
    per set (medianed); `n_rounds` fresh-exponential rounds per inner sketch;
    `n_medreps` LS-triple repetitions per round (medianed); `ls1_reps`
    Cauchy/Count-Sketch repetitions inside LS1; `level_reps` independent
    replicas of the whole level sketch (medianed).
    """

    n: int
    d: int
    eps: float = 0.1
    seed: int = 0
    level_reps: int = 1
    n_sets: int = 16
    n_inner: int = 1
    n_rounds: int = 8
    n_medreps: int = 1
    ls1_reps: int = 4
    cs_rows: int = 5
    cs_buckets: int = 256
    delta_rows: int = 512
    universe_m: int = 0  # 0 -> default_universe_m(n), about n^3
    sampler_buckets: int = 256  # two-pass round-1 sampler
    sampler_gamma: float = 0.05

    def __post_init__(self):
        check_config(self)
        if self.universe_m == 0:
            self.universe_m = default_universe_m(self.n)

    @property
    def L(self) -> int:
        return log2n(self.n)

    def alpha(self, i: int) -> float:
        return min(1.0, 2.0**i / (self.d * self.L**2))

    def delta_threshold(self) -> float:
        """Output-zero branch: levels with Delta-hat below this contribute 0
        in one-pass mode."""
        return 2.0 * self.eps * self.n / self.L**3

    @classmethod
    def paper_rates(cls, n: int, d: int, eps: float, seed: int) -> "EmdSketchConfig":
        """Repetition counts at the published log-power rates (c = 1). These
        are reference values; they are far beyond interactive budgets."""
        L = log2n(n)
        return cls(
            n=n, d=d, eps=eps, seed=seed,
            level_reps=log2n(d),
            n_sets=L**6,
            n_inner=L,
            n_rounds=L**6,  # O(1/tau^2), tau = 1/L^3
            n_medreps=max(1, 3 * math.ceil(math.log2(L**3))),
            ls1_reps=L**9,  # O(log n / gamma^2), gamma = tau/L
        )

    def to_json(self) -> str:
        return json.dumps({"kind": "emd-config", "version": 1, **asdict(self)})

    @classmethod
    def from_json(cls, s: str) -> "EmdSketchConfig":
        return config_from_json(cls, s, "emd-config")


# ---------------------------------------------------------------------------
# per-level replica state
# ---------------------------------------------------------------------------


class _LevelReplica:
    """Seeds, universe map and character sets of one (level, replica). Its
    counts, (u, w) -> [|A_v|, |B_v|, chi-plus count per set], are a view the
    sketch passes in when it is read. A two-pass replica keeps its round-one
    views, samples and round-two counters from `finalize_pass1` on."""

    def __init__(self, cfg: EmdSketchConfig, level: int, seed: int):
        self.cfg = cfg
        self.level = level
        self.seed = seed
        self.umap = UniverseMap(cfg.universe_m, int(hx.combine(seed, 0xD1)[()]))
        self.charsets = [
            CharacterSet(cfg.d, cfg.alpha(level), int(hx.combine(seed, 0xC4, j)[()]))
            for j in range(cfg.n_sets)
        ]
        self.delta: Optional[CauchyL1Sketch] = None
        self.samplers: Dict[Tuple[int, int], L1Sampler] = {}
        self.sampled: Dict[Tuple[int, int], object] = {}
        self.pass2_counters: Dict[Tuple[int, int], np.ndarray] = {}

    # -- round-one views ------------------------------------------------------
    @staticmethod
    def discrepancies(counts: CountView) -> CountView:
        """The node discrepancies q_v = |A_v| - |B_v| as a view: the vector
        that Delta-hat and the round-one samplers sketch."""
        return CountView.summed(counts.keys, counts.rows[:, :1] - counts.rows[:, 1:2])

    def delta_sketch(self, q: CountView) -> CauchyL1Sketch:
        """The Delta-hat Cauchy l1 sketch of the discrepancies q."""
        return CauchyL1Sketch(q, self.cfg.delta_rows, int(hx.combine(self.seed, 0xDE)[()]))

    def finalize_pass1(self, counts: CountView) -> None:
        """Build the Delta-hat sketch and the round-one l1 sampler of q per
        (set, inner copy) from the pass-1 counts, and draw every sample."""
        q, cfg = self.discrepancies(counts), self.cfg
        self.delta = self.delta_sketch(q)
        self.samplers = {
            (j, c): L1Sampler(
                q,
                int(hx.combine(self.seed, 0x2A, j, c)[()]),
                rows=cfg.cs_rows,
                buckets=cfg.sampler_buckets,
                gamma=cfg.sampler_gamma,
            )
            for j in range(cfg.n_sets)
            for c in range(cfg.n_inner)
        }
        self.sampled = {jc: smp.sample() for jc, smp in self.samplers.items()}
        self.pass2_counters = {
            jc: np.zeros(4, dtype=np.int64)
            for jc, v in self.sampled.items()
            if v is not FAIL
        }

    # -- decode ---------------------------------------------------------------
    @staticmethod
    def vectors(counts: CountView):
        """Canonical arrays (u, w, qv, cC, splus[(node, set)]) of the counts."""
        (u, w), rows = counts.keys.T, counts.rows
        qv = rows[:, 0] - rows[:, 1]
        cC = rows[:, 0] + rows[:, 1]
        return u, w, qv, cC, rows[:, 2:]

    def _decode_arrays(self, counts: CountView):
        """(uu, u_inv, hk_u, hk_v, qv, cC, splus): the node arrays that every
        LS decoder of the counts reads."""
        u, w, qv, cC, splus = self.vectors(counts)
        uu, u_inv = np.unique(u, return_inverse=True)
        return uu, u_inv, hx.combine(self.seed, 0xAB, uu), hx.combine(self.seed, 0xAC, u, w), \
            qv, cC, splus

    def _seeds(self, j, c, r, m) -> tuple:
        """(set, cell seed, round seed) of each grid cell at the broadcast
        indices (j, c, r, m), flattened: one broadcast hash call per seed."""
        j, c, r, m = (np.ravel(a) for a in np.broadcast_arrays(j, c, r, m))
        return j, hx.combine(self.seed, 0x0140, j, c, r, m), hx.combine(self.seed, 0x0141, j, c, r)

    def decoder(self, counts: CountView, j: int = 0, c: int = 0, r: int = 0, m: int = 0,
                t_u=None, t_v=None) -> "_LsCells":
        """The one-cell grid (j, c, r, m) over the given counts (used by
        tests that condition on explicit exponential scalings)."""
        return _LsCells(self.cfg, self._decode_arrays(counts), *self._seeds(j, c, r, m), t_u, t_v)

    def one_round_estimates(self, counts: CountView) -> List[float]:
        """All inner estimates of E_v[p_{pi(v),v,S_j}], grouped per set:
        returns per set j the median over inner copies, where each copy is the
        mean over rounds of medians over LS-triple repetitions.

        The (set, copy, round, repetition) grid is flattened and decoded in
        blocks of at most `_LS_BLOCK_WORDS` hashed words (at least one cell),
        each one `_LsCells`; the reductions then run over the grid axes. The
        values equal one decode per cell bit for bit: `bincount` adds each
        bucket's keys in key order from 0.0 as `np.add.at` does, a median of
        an odd count (5 rows) picks the middle element and one of an even
        count averages the middle two, and the mean over rounds reduces the
        contiguous last axis, in numpy's pairwise order for n_rounds values."""
        cfg, nodes = self.cfg, self._decode_arrays(counts)
        n_u, n_v = len(nodes[0]), len(nodes[1])
        if n_u == 0:
            return [0.0] * cfg.n_sets
        shape = (cfg.n_sets, cfg.n_inner, cfg.n_rounds, cfg.n_medreps)
        seeds = self._seeds(*np.indices(shape))
        # words hashed per cell: its sketch seed states, t_u and t_v, LS1's
        # Cauchy weights and coordinates, LS2's and LS3's coordinates
        K, rows = cfg.ls1_reps, cfg.cs_rows
        words = K + 2 * rows * (K + 5) + n_u + n_v + K * (n_v + 2 * rows * n_u) \
            + 2 * rows * (3 * n_v + 2 * n_u)
        step = max(1, _LS_BLOCK_WORDS // words)
        p = np.empty(math.prod(shape))
        for lo in range(0, p.size, step):
            cells = _LsCells(cfg, nodes, *(a[lo:lo + step] for a in seeds))
            p[lo:lo + step] = cells.ls3(cells.ls2(cells.ls1()))
        rounds = np.median(p.reshape(shape), axis=3)
        return np.median(rounds.mean(axis=2), axis=1).tolist()

    def two_round_estimates(self, counts: CountView) -> List[Optional[float]]:
        """Per set j: mean of the exact per-sample p values over successful
        inner copies (None when every copy failed). Each sampled edge
        (u*, w*) sums its round-two counters [|C_u*|, chi-plus count of
        C_u*, |C_v*|, chi-plus count of C_v*] from the pass-2 counts."""
        u, w, _, cC, splus = self.vectors(counts)
        out: List[Optional[float]] = []
        for j in range(self.cfg.n_sets):
            vals = []
            for c in range(self.cfg.n_inner):
                v = self.sampled.get((j, c), FAIL)
                if v is FAIL:
                    continue
                in_u = u == U64(v[0])
                at_v = in_u & (w == U64(v[1]))
                ctr = self.pass2_counters[(j, c)]
                ctr[:] = [cC[in_u].sum(), splus[in_u, j].sum(), cC[at_v].sum(), splus[at_v, j].sum()]
                cu, cup, cv, cvp = ctr.tolist()
                if cu <= 0 or cv <= 0:
                    vals.append(0.0)
                    continue
                quu, qvv = cup / cu, cvp / cv
                vals.append(quu * (1 - qvv) + qvv * (1 - quu))
            out.append(float(np.mean(vals)) if vals else None)
        return out

    def eta(self, mode: str, counts: CountView) -> float:
        """Level estimate: 3 Delta-hat / alpha * (avg_j eta_j + 1/(8 log^2 n)),
        with the one-pass zero branch below the Delta threshold. counts is
        this replica's view of pass 1 in one-pass mode, and of pass 2 in
        two-pass mode (Delta-hat then comes from `finalize_pass1`)."""
        cfg = self.cfg
        if mode == "one_pass":
            delta_hat = self.delta_sketch(self.discrepancies(counts)).estimate()
            if delta_hat < cfg.delta_threshold():
                return 0.0
            etas = self.one_round_estimates(counts)
        else:
            delta_hat = self.delta.estimate()
            if delta_hat == 0.0:
                return 0.0
            etas = [e for e in self.two_round_estimates(counts) if e is not None] or [0.0]
        avg = float(np.mean(etas))
        return (3.0 * delta_hat / cfg.alpha(self.level)) * (avg + 1.0 / (8.0 * cfg.L**2))


class _LsCells:
    """The LS1 -> LS2 -> LS3 decode of a block of B one-round grid cells,
    each stage one stacked array call over the block. A cell holds its set
    j, its seeds (`_LevelReplica._seeds`) and its exponential
    scalings t_u, t_v, which may be injected for conditioned tests. Every
    Count-Sketch of a stage is one `_cs_table` over (cell, ..., row, bucket)."""

    def __init__(self, cfg, nodes, j, sub, rnd, t_u=None, t_v=None):
        self.cfg = cfg
        self.uu, self.u_inv, self.hk_u, self.hk_v, self.qv, self.cC, splus = nodes
        self.splus = splus.T[j]  # (B, N): each cell's set
        # the hash states every key of the block extends, one call per kind:
        # LS1's Cauchy weights (one per ls1 rep), and the row states of the
        # Count-Sketches (ls1_reps for LS1, then one for LS2, four for LS3)
        sub = sub[:, None]
        ks = np.arange(cfg.ls1_reps, dtype=U64)
        self.cauchy = hx.combine(sub, 0xA1, ks)
        ls23 = np.array([0xCF, 0x31, 0x32, 0x33, 0x34], dtype=U64)
        sketch = np.concatenate([hx.combine(sub, 0xCE, ks), hx.combine(sub, ls23)], axis=1)
        r = np.arange(cfg.cs_rows, dtype=U64)
        self.rows_b, self.rows_s = (hx.combine(sketch[..., None], w, r) for w in (0xB, 0x5))
        # fresh exponentials per round (shared by the repetitions inside it),
        # unless a conditioned test injects the scalings
        self.t_u, t_v = (np.atleast_2d(t).astype(float) if t is not None else
                         np.maximum(hx.exp1(hx.combine(rnd[:, None], salt, hk)), 1e-9)
                         for salt, hk, t in ((0xE1, self.hk_u, t_u), (0xE2, self.hk_v, t_v)))
        self.t_uv = self.t_u[:, self.u_inv] * t_v

    def _cs(self, i, hkeys, values, at=None) -> np.ndarray:
        """Estimates of the Count-Sketches `i` (an index or slice of the
        sketch axis) of the vectors `values` (B, ..., n) at all their keys,
        or at the key index `at` (B,) of each cell."""
        b, s = _cs_coords(self.rows_b[:, i], self.rows_s[:, i], hkeys, self.cfg.cs_buckets)
        table = _cs_table(b, s, values, self.cfg.cs_buckets)
        if at is not None:
            at = np.reshape(at, (-1,) + (1,) * (b.ndim - 1))
            b, s = np.take_along_axis(b, at, -1), np.take_along_axis(s, at, -1)
        return _cs_estimates(table, b, s)

    def ls1(self) -> np.ndarray:
        """Per cell, the parent maximizing P_u / t_u (index into uu)."""
        K = self.cfg.ls1_reps
        alpha = hx.cauchy(hx.extend(self.cauchy[..., None], self.hk_v))
        per_u = _scatter_sum(self.u_inv, alpha * self.qv, len(self.uu))
        per_u *= (1.0 / self.t_u)[:, None, :]
        med = _median(np.abs(self._cs(slice(0, K), self.hk_u, per_u)), 1)
        return np.argmax(med, axis=-1)

    def ls2(self, u_idx) -> np.ndarray:
        """Per cell, the child of uu[u_idx] maximizing Q_v/(t_u t_v): the
        first maximum among that parent's children, as a node index."""
        est = np.abs(self._cs(self.cfg.ls1_reps, self.hk_v, self.qv / self.t_uv))
        child = self.u_inv == np.reshape(u_idx, (-1, 1))
        return np.argmax(np.where(child, est, -np.inf), axis=-1)

    def ls3(self, v_idx) -> np.ndarray:
        """Per cell, p_{u,v,S} from four Count-Sketches of the chi counters,
        truncated to [0, 1]; non-positive denominators give 0."""
        v_idx, K = np.broadcast_to(v_idx, len(self.t_u)), self.cfg.ls1_reps
        chi = np.stack([np.broadcast_to(self.cC, self.splus.shape), self.splus], 1)
        at_u = _scatter_sum(self.u_inv, chi.astype(float), len(self.uu)) * (1.0 / self.t_u)[:, None]
        s1, s2 = self._cs(slice(K + 1, K + 3), self.hk_u, at_u, self.u_inv[v_idx])[..., 0].T
        s3, s4 = self._cs(slice(K + 3, K + 5), self.hk_v, chi * (1.0 / self.t_uv)[:, None],
                          v_idx)[..., 0].T
        ok = ~((s1 <= 0.0) | (s3 <= 0.0))
        qu = np.divide(s2, s1, out=np.zeros_like(s2), where=ok)
        qv = np.divide(s4, s3, out=np.zeros_like(s4), where=ok)
        p = qu * (1.0 - qv) + qv * (1.0 - qu)
        return np.minimum(np.where(p > 0.0, p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


class _EmdSketchBase:
    _KIND = 6  # of the serialized state

    def __init__(self, cfg: EmdSketchConfig, tree: Optional[QuadtreeSpec]):
        self.cfg = cfg
        self.tree = tree if tree is not None else sample_quadtree(
            cfg.d, int(hx.combine(cfg.seed, 0x7EEE)[()])
        )
        if self.tree.d != cfg.d:
            raise ValueError("tree dimension does not match config")
        self.h = self.tree.h
        self.replicas = [
            [
                _LevelReplica(cfg, i, int(hx.combine(cfg.seed, 0x11, i, r)[()]))
                for r in range(cfg.level_reps)
            ]
            for i in range(1, self.h + 1)
        ]
        self.counts = SparseCounts(2)  # packed point -> [net A, net B]

    def _add(self, store: SparseCounts, point: HypercubePoint, label: str, delta: int) -> None:
        if label != "A" and label != "B":
            raise ValueError(f"label must be 'A' or 'B', got {label!r}")
        if point.d != self.cfg.d:
            raise ValueError(f"point dimension {point.d} does not match config d={self.cfg.d}")
        delta = int(delta)
        store.add(point.value, (delta, 0) if label == "A" else (0, delta))

    def views(self, counts: SparseCounts) -> List[List[CountView]]:
        """Every replica's counts, level by level, built from an aggregated
        store (point -> [net A, net B]) in one batch: one node path per
        distinct point, one universe-map hash per id for all replicas, one
        character evaluation per set, and one grouped sum. A point with net
        (a, b) adds [a, b, (a + b) chi-plus per set] at its node."""
        values, ab = counts.sorted()
        X = values_to_matrix(values, self.cfg.d)
        reps = [rep for per_level in self.replicas for rep in per_level]
        u, w = replica_node_ids(self.tree, X, reps)
        plus = np.array([[cs.eval_matrix(X) == 1 for cs in rep.charsets] for rep in reps])
        plus = plus * ab.sum(axis=1)  # (replica, set, point)
        rows = np.concatenate(
            [np.broadcast_to(ab, (len(reps),) + ab.shape), plus.transpose(0, 2, 1)], axis=2
        )
        views = iter(SparseCounts.grouped(np.stack([u, w], axis=2), rows))
        return [[next(views) for _ in per_level] for per_level in self.replicas]

    def _check_balanced(self) -> int:
        """|A|, which must equal |B|."""
        n_a, n_b = self.counts.total()
        if n_a != n_b:
            raise ValueError(
                f"stream does not encode equal-size multisets: |A|={n_a}, |B|={n_b}"
            )
        return n_a


class EmdOnePassSketch(_EmdSketchBase):
    """One-pass estimator: eta = sum_i median-of-replicas eta_i + eps*n*d."""

    def __init__(self, cfg: EmdSketchConfig, tree: Optional[QuadtreeSpec] = None):
        super().__init__(cfg, tree)

    def update(self, point: HypercubePoint, label: str, delta: int = 1) -> None:
        self._add(self.counts, point, label, delta)

    def merge(self, other: "EmdOnePassSketch") -> None:
        if self.cfg != other.cfg:
            raise ValueError("cannot merge sketches with different configs")
        self.counts.merge(other.counts)

    def estimate(self) -> float:
        n = self._check_balanced()
        total = 0.0
        for per_level, views in zip(self.replicas, self.views(self.counts)):
            total += float(np.median([rep.eta("one_pass", v) for rep, v in zip(per_level, views)]))
        return total + self.cfg.eps * n * self.cfg.d

    def state_bytes(self) -> bytes:
        """`encode_state` of the one count store (the pass-2 store of a
        two-pass sketch is not included)."""
        cfg = self.cfg
        return encode_state(
            self._KIND,
            (cfg.seed, cfg.d, cfg.universe_m, cfg.level_reps, cfg.n_sets),
            [self.counts],
        )


class EmdTwoPassSketch(_EmdSketchBase):
    """Two-pass estimator: round 1 samples nodes ~ discrepancy, round 2 reads
    the four exact chi counters for each sampled edge; no additive eps term."""

    def __init__(self, cfg: EmdSketchConfig, tree: Optional[QuadtreeSpec] = None):
        super().__init__(cfg, tree)
        self.pass2 = SparseCounts(2)
        self._pass = 1

    def update(self, point: HypercubePoint, label: str, delta: int = 1) -> None:
        if self._pass != 1:
            raise RuntimeError("pass 1 is finalized; use update_pass2()")
        self._add(self.counts, point, label, delta)

    def finalize_pass1(self) -> None:
        """Close pass 1: its replica views are built once, here."""
        self._check_balanced()
        for per_level, views in zip(self.replicas, self.views(self.counts)):
            for rep, v in zip(per_level, views):
                rep.finalize_pass1(v)
        self._pass = 2

    def update_pass2(self, point: HypercubePoint, label: str, delta: int = 1) -> None:
        if self._pass != 2:
            raise RuntimeError("call finalize_pass1() first")
        self._add(self.pass2, point, label, delta)

    def estimate(self) -> float:
        if self._pass != 2:
            raise RuntimeError("call finalize_pass1() and feed pass 2 first")
        total = 0.0
        for per_level, views in zip(self.replicas, self.views(self.pass2)):
            total += float(np.median([rep.eta("two_pass", v) for rep, v in zip(per_level, views)]))
        return total


# ---------------------------------------------------------------------------
# exact reference (test oracle)
# ---------------------------------------------------------------------------


def reference_I_i(
    tree: QuadtreeSpec, A: PointMultiset, B: PointMultiset, i: int, n: Optional[int] = None
) -> float:
    """Exact I_i computed offline: (2 Delta_i / alpha_i) E_{v,S}[p], with the
    expectation over S evaluated in closed form per point pair."""
    if len(A) != len(B):
        raise ValueError("|A| != |B|")
    if not 1 <= i <= tree.h:
        raise ValueError(f"level must be in [1, {tree.h}]")
    n = n if n is not None else len(A)
    alpha = min(1.0, 2.0**i / (tree.d * log2n(n) ** 2))
    dec = _decompose_pair(tree, A, B)
    disc = np.abs(dec.sum_a[i] - dec.sum_b[i])
    delta_i = float(disc.sum())
    if delta_i == 0.0:
        return 0.0
    X = dec.X
    wc = (dec.wa + dec.wb).astype(np.float64)
    total = 0.0
    for g in np.nonzero(disc)[0]:
        rows_v = np.nonzero(dec.group_of[i] == g)[0]
        rows_u = np.nonzero(dec.group_of[i - 1] == dec.parent[i][g])[0]
        dists = hamming_matrix(X[rows_u], X[rows_v]).astype(np.float64)
        wts = np.outer(wc[rows_u], wc[rows_v])
        total += disc[g] * expected_split_probability(dists, wts, alpha)
    return (2.0 / alpha) * total
