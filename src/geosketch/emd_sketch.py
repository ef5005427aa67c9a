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

State discipline: the one-store rule of `_TreeSketch`, with a store of
packed point -> [net |A| count, net |B| count] (a two-pass sketch keeps a
second one for pass 2). Every replica's counts are a view of it, built
once per read for all replicas in one stacked view (`views`) and sliced
per replica: a `CountView` whose sorted key array holds the
universe-reduced nodes (u, w) and whose rows hold |A_v|, |B_v|, and per
character set the positive-parity count.
Every reader takes those arrays directly, and every sketch of a level is
a function of them, built in canonical order: the LS1/LS2/LS3
Count-Sketch tables, Delta-hat (the `cauchy_l1` estimate) and the
round-one l1 samplers (both of the node discrepancy q_v = |A_v| - |B_v|),
and the round-two counters, sums of the pass-2 view at each sampled edge.
A two-pass replica keeps Delta-hat as a float from pass 1. Delta-hat
(`delta_rows` Cauchy sums of q, 512 by default) is the same estimate in
both decodes, and `cauchy_l1` builds its coefficients a cache-sized block
of rows at a time, hashed and mapped in place, never as the whole
(rows, nodes) matrix. Node ids are uint64 throughout.

Two-pass decode: round one reads one l1 estimate per replica, Delta-hat,
which every sampler's mass test reads (the test needs ||q||_1 only up to a
constant factor), and draws all (set, inner copy) samples of the replica
in one `l1_samples` call over their seeds. Round two sums the counters of
every sampled edge in one pass over the sorted pass-2 view.

One-pass decode: a replica averages one-round LS1 -> LS2 -> LS3 decodes over
a grid of (set, inner copy, round, repetition) cells. The cells' seed states
are hashed once per grid, and the keys in blocks of about `_LS_BLOCK_WORDS`
words with one stacked array call per stage; a Count-Sketch read takes flat
slots and compare-exchange medians (`sketches`). LS2 and LS3 read a few keys
each with one point read (`_cs_read`), which hashes signs and sums only in
the read buckets; LS2 reads nothing where the parent has one child. It
equals one decode per cell bit for bit (`one_round_estimates`).

Repetition counts are configuration. Paper-rate defaults (log-power laws) are
provided for reference but are far too heavy for interactive use; the desk
profile keeps end-to-end runs at seconds while exercising every stage.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import hashing as hx
from .hashing import U64
from .points import HypercubePoint, values_to_matrix
from .quadtree import QuadtreeSpec
from .sketches import (
    FAIL,
    CountView,
    L1Sampler,
    SparseCounts,
    _cs_coords,
    _cs_estimates,
    _cs_read,
    _cs_table,
    _median,
    _scatter_sum,
    cauchy_l1,
    encode_state,
    l1_samples,
)

__all__ = [
    "EmdSketchConfig",
    "EmdOnePassSketch",
    "EmdTwoPassSketch",
]


# Hashed words per block of one-round grid cells: a block's temporaries do
# not grow with the grid, and its fixed numpy calls serve several cells (a
# deepest-level cell of matched_noise n=256 d=64 hashes about 36k words).
# A one-pass job on that instance took 0.167, 0.157 and 0.175 CPU s at 200k,
# 400k and 800k words (interleaved medians of 9, 2-vCPU VM); smaller blocks
# lose to per-block overhead. Cell seed states are hashed once per grid.
_LS_BLOCK_WORDS = 400_000
# Hashed coordinates per block of character sets drawn at once (same reason).
_CHAR_BLOCK_WORDS = 16_384


def log2n(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n))))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def character_members(seeds, d: int, rates) -> Tuple[np.ndarray, np.ndarray]:
    """(set, coordinate) index pairs, in order, of the members of the
    character sets with the given seeds (flattened), each kept at its rate
    (rates broadcast to the seeds): coordinate k of the set of seed s is
    kept iff uniform01(combine(s, 0xC4A2, k)) < rate. The sets are drawn in
    blocks of about `_CHAR_BLOCK_WORDS` coordinates."""
    rates = np.broadcast_to(rates, np.shape(seeds)).reshape(-1, 1)
    pre = hx.combine(np.reshape(seeds, (-1, 1)), 0xC4A2)
    k, step = np.arange(d, dtype=U64), max(1, _CHAR_BLOCK_WORDS // d)
    kept = [np.flatnonzero(hx.uniform01(hx.extend(pre[lo:lo + step], k)) < rates[lo:lo + step])
            + lo * d for lo in range(0, len(pre), step)]
    return np.divmod(np.concatenate(kept), d)


def chi_plus(X: np.ndarray, seeds: np.ndarray, rates) -> np.ndarray:
    """(*seeds.shape, n) whether chi_S(x) = +1, for the rows x of the bit
    matrix X (n, d) and the sets S that `character_members` draws from the
    seeds. A set's parity is the XOR of its member columns, all sets in one
    `reduceat` over the member columns packed eight points to a word, so
    the work is proportional to the members, not to d."""
    sets, cols = character_members(seeds, X.shape[1], rates)
    n = len(X)
    bits = np.zeros((len(cols), n + -n % 8), dtype=np.uint8)  # rows of whole words
    bits[:, :n] = X[:, cols].T
    odd = np.zeros((seeds.size, bits.shape[1] // 8), dtype=np.uint64)
    full = np.bincount(sets, minlength=seeds.size) > 0  # sets with members
    if len(cols):
        starts = np.searchsorted(sets, np.flatnonzero(full))
        odd[full] = np.bitwise_xor.reduceat(bits.view(np.uint64), starts)
    return (odd.view(np.uint8)[:, :n] == 0).reshape(seeds.shape + (n,))


# ---------------------------------------------------------------------------
# universe reduction
# ---------------------------------------------------------------------------


def replica_node_ids(path: np.ndarray, levels, seeds: np.ndarray,
                     m: int) -> Tuple[np.ndarray, np.ndarray]:
    """(u, w), each (len(seeds), n) uint64: each replica's ids in [m] of
    the parent and the node at its level of the n points whose node
    fingerprints along the tree path are path (n, h + 1, 2)
    (`QuadtreeSpec.node_path`). An id is a keyed hash of the node
    fingerprint, keyed combine(replica seed, 0xD1), salted 0x0E0A for a
    parent and 0x0E0B for a node, one hash call per id."""
    key = hx.combine(seeds, 0xD1)[:, None]
    return tuple(hx.combine(key, salt, *path[:, np.add(levels, k)].transpose(2, 1, 0)) % U64(m)
                 for salt, k in ((0x0E0A, -1), (0x0E0B, 0)))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class _SketchConfig:
    """What the EMD and MST config dataclasses share: the field check, the
    default universe size, L, and the JSON form (an object of kind `_KIND`
    and version 1 whose other keys are the fields)."""

    def __post_init__(self):
        """Raise a ValueError naming the first field with a wrong value: a
        float field must be a finite number, and `eps` above 0; an int field
        an integer below 2^64 and at least 1, or at least 0 where 0 is its
        default (the seed, and the sizes for which 0 selects a derived
        value); `universe_m` must be 0 or at least 2. A `universe_m` of 0
        becomes max(8, n^3), clamped to 2^64 - 1 so that the node ids stay
        uint64 (the clamp acts for n > 2,642,245)."""
        for f in fields(self):
            v, lo = getattr(self, f.name), 0 if f.default == 0 else 1
            finite = isinstance(v, (int, float)) and -math.inf < v < math.inf
            if isinstance(v, bool) or (f.type == "float" and not finite):
                raise ValueError(f"config field {f.name!r} must be a finite number, got {v!r}")
            if f.name == "eps" and not v > 0:
                raise ValueError(f"config field 'eps' must be greater than 0, got {v!r}")
            if f.type == "int" and not (isinstance(v, (int, np.integer)) and lo <= v < 2**64):
                raise ValueError(
                    f"config field {f.name!r} must be an integer in [{lo}, 2^64), got {v!r}")
        if self.universe_m == 1:
            raise ValueError("config field 'universe_m' must be 0 or at least 2, got 1")
        if self.universe_m == 0:
            self.universe_m = min(max(8, self.n**3), 2**64 - 1)

    @property
    def L(self) -> int:
        return log2n(self.n)

    def to_json(self) -> str:
        return json.dumps({"kind": self._KIND, "version": 1, **asdict(self)})

    @classmethod
    def from_json(cls, text: str):
        """The config serialized in text by `to_json`: every required field
        present, and no key that is not a field."""
        obj, kind = json.loads(text), cls._KIND
        if not (isinstance(obj, dict) and obj.pop("kind", None) == kind
                and obj.pop("version", None) == 1):
            raise ValueError(f"not a serialized {kind} (a JSON object with version 1)")
        fs = fields(cls)
        unknown = sorted(set(obj) - {f.name for f in fs})
        missing = [f.name for f in fs if f.default is MISSING and f.name not in obj]
        for what, bad in (("unknown", unknown), ("missing", missing)):
            if bad:
                raise ValueError(f"{kind}: {what} field(s) {', '.join(map(repr, bad))}")
        return cls(**obj)


@dataclass
class EmdSketchConfig(_SketchConfig):
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
    universe_m: int = 0  # 0 -> about n^3
    sampler_buckets: int = 256  # two-pass round-1 sampler
    sampler_gamma: float = 0.05
    _KIND = "emd-config"

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


# ---------------------------------------------------------------------------
# per-level replica state
# ---------------------------------------------------------------------------


class _LevelReplica:
    """One (level, replica) of an EMD sketch: a config, level and seed. Its
    counts, (u, w) -> [|A_v|, |B_v|, chi-plus count per set], are a view the
    sketch passes in when it is read. A two-pass replica keeps Delta-hat,
    its round-one samplers, samples and round-two counters from
    `finalize_pass1` on."""

    def __init__(self, cfg: EmdSketchConfig, level: int, seed: int):
        self.cfg, self.level, self.seed = cfg, level, seed
        self.delta: Optional[float] = None  # Delta-hat of pass 1
        self.samplers: Dict[Tuple[int, int], L1Sampler] = {}
        self.sampled: Dict[Tuple[int, int], object] = {}
        self.pass2_counters: Dict[Tuple[int, int], np.ndarray] = {}

    # -- round-one views ------------------------------------------------------
    @staticmethod
    def discrepancies(counts: CountView) -> CountView:
        """The node discrepancies q_v = |A_v| - |B_v| as a view: the vector
        that Delta-hat and the round-one samplers sketch."""
        return CountView.summed(counts.keys, counts.rows[:, :1] - counts.rows[:, 1:2])

    def delta_hat(self, q: CountView) -> float:
        """Delta-hat: the Cauchy l1 estimate of the discrepancies q."""
        return cauchy_l1(q, self.cfg.delta_rows, int(hx.combine(self.seed, 0xDE)[()]))

    def finalize_pass1(self, counts: CountView) -> None:
        """Estimate Delta-hat, the one Cauchy l1 estimate of q of the
        replica, build the round-one l1 sampler of q per (set, inner copy),
        and draw every sample in one `l1_samples` call over their seeds
        combine(seed, 0x2A, j, c), whose mass test reads Delta-hat."""
        q, cfg = self.discrepancies(counts), self.cfg
        self.delta = self.delta_hat(q)
        jc = [(j, c) for j in range(cfg.n_sets) for c in range(cfg.n_inner)]
        seeds = hx.combine(self.seed, 0x2A, *np.array(jc, dtype=U64).T)
        shape = dict(rows=cfg.cs_rows, buckets=cfg.sampler_buckets, gamma=cfg.sampler_gamma)
        self.samplers = {k: L1Sampler(q, s, **shape) for k, s in zip(jc, seeds.tolist())}
        picks = l1_samples(q, seeds, self.delta, **shape)
        self.sampled = {k: FAIL if i < 0 else tuple(q.keys[i].tolist())
                        for k, i in zip(jc, picks.tolist())}
        self.pass2_counters = {k: np.zeros(4, dtype=np.int64)
                               for k, v in self.sampled.items() if v is not FAIL}

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

    def _cell_states(self, j, c, r, m) -> tuple:
        """(set j, LS1 Cauchy states, Count-Sketch row states of buckets and
        signs, t_u and t_v prefixes) of each grid cell at the broadcast
        indices (j, c, r, m), flattened: one hash call per kind for all cells."""
        j, c, r, m = (np.ravel(a) for a in np.broadcast_arrays(j, c, r, m))
        sub = hx.combine(self.seed, 0x0140, j, c, r, m)[:, None]
        rnd = hx.combine(self.seed, 0x0141, j, c, r)[:, None]
        # Count-Sketches: ls1_reps for LS1, then one for LS2 and four for LS3
        ks = np.arange(self.cfg.ls1_reps, dtype=U64)
        ls23 = np.array([0xCF, 0x31, 0x32, 0x33, 0x34], dtype=U64)
        sketch = np.concatenate([hx.combine(sub, 0xCE, ks), hx.combine(sub, ls23)], 1)[..., None]
        rows = np.arange(self.cfg.cs_rows, dtype=U64)
        return (j, hx.combine(sub, 0xA1, ks), hx.combine(sketch, 0xB, rows),
                hx.combine(sketch, 0x5, rows), hx.combine(rnd, 0xE1), hx.combine(rnd, 0xE2))

    def one_round_estimates(self, counts: CountView) -> List[float]:
        """All inner estimates of E_v[p_{pi(v),v,S_j}], grouped per set:
        returns per set j the median over inner copies, where each copy is the
        mean over rounds of medians over LS-triple repetitions.

        The seed states of the flattened (set, copy, round, repetition) grid
        are hashed once (`_cell_states`), and the grid is decoded in blocks of
        at most `_LS_BLOCK_WORDS` hashed words (at least one cell), each one
        `_LsCells` over a slice of the states; the reductions, medians by
        `_median`, then run over the grid axes. The values equal one decode
        per cell bit for bit: `bincount` adds each read bucket's keys in key
        order from 0.0 as `np.add.at` does, a median of an odd count (5 rows)
        picks the middle element and one of an even count averages the middle
        two, and the mean over rounds reduces the contiguous last axis, in
        numpy's pairwise order for n_rounds values."""
        cfg, nodes = self.cfg, self._decode_arrays(counts)
        n_u, n_v = len(nodes[0]), len(nodes[1])
        if n_u == 0:
            return [0.0] * cfg.n_sets
        shape = (cfg.n_sets, cfg.n_inner, cfg.n_rounds, cfg.n_medreps)
        states = self._cell_states(*np.indices(shape))
        # words hashed per cell: t_u and t_v, LS1's Cauchy weights, buckets
        # and signs, and LS2's and LS3's buckets (their read signs are few)
        K, rows = cfg.ls1_reps, cfg.cs_rows
        words = n_u + n_v + K * (n_v + 2 * rows * n_u) + rows * (3 * n_v + 2 * n_u)
        step = max(1, _LS_BLOCK_WORDS // words)
        p = np.empty(math.prod(shape))
        for lo in range(0, p.size, step):
            cells = _LsCells(cfg, nodes, *(a[lo:lo + step] for a in states))
            p[lo:lo + step] = cells.ls3(cells.ls2(cells.ls1()))
        rounds = _median(p.reshape(shape), 3)
        return _median(rounds.mean(axis=2), 1).tolist()

    def two_round_estimates(self, counts: CountView) -> List[Optional[float]]:
        """Per set j: mean of the exact per-sample p values over successful
        inner copies (None when every copy failed). Each sampled edge
        (u*, w*) sums its round-two counters [|C_u*|, chi-plus count of
        C_u*, |C_v*|, chi-plus count of C_v*] from the pass-2 counts, every
        edge in one pass over the sorted view: C_u* is the run of keys of
        first word u*, and C_v* that of key (u*, w*) (empty where absent),
        each summed from prefix sums between two `searchsorted` bounds."""
        _, _, _, cC, splus = self.vectors(counts)
        jc = [k for k, v in self.sampled.items() if v is not FAIL]
        j = np.array([k[0] for k in jc], dtype=np.int64)
        pair = np.dtype([("u", U64), ("w", U64)])
        edges = np.array([self.sampled[k] for k in jc], dtype=U64).reshape(-1, 2).view(pair)[:, 0]
        keys = np.ascontiguousarray(counts.keys).view(pair)[:, 0]
        cum = np.cumsum(np.column_stack([cC, splus]), axis=0)  # [|C|, chi-plus per set]
        cum = np.concatenate([np.zeros((1, cum.shape[1]), dtype=np.int64), cum])

        def run_sums(sorted_keys, at):  # [|C|, chi-plus of set j] over the keys equal to at
            lo, hi = (np.searchsorted(sorted_keys, at, side) for side in ("left", "right"))
            sums = cum[hi] - cum[lo]
            return sums[:, 0], sums[np.arange(len(at)), j + 1]

        ctr = np.stack([*run_sums(keys["u"], edges["u"]), *run_sums(keys, edges)], axis=1)
        self.pass2_counters = dict(zip(jc, ctr))
        cu, cup, cv, cvp = ctr.T
        ok = (cu > 0) & (cv > 0)
        quu = np.divide(cup, cu, out=np.zeros(len(jc)), where=ok)
        qvv = np.divide(cvp, cv, out=np.zeros(len(jc)), where=ok)
        p = quu * (1 - qvv) + qvv * (1 - quu)
        return [float(np.mean(p[j == k])) if (j == k).any() else None
                for k in range(self.cfg.n_sets)]

    def eta(self, delta_hat: float, etas: List[float]) -> float:
        """Level estimate 3 Delta-hat / alpha_i * (mean etas + 1/(8 log^2 n))
        of the Delta-hat and set estimates etas that a sketch's `levels` reads."""
        avg, cfg = float(np.mean(etas)), self.cfg
        return (3.0 * delta_hat / cfg.alpha(self.level)) * (avg + 1.0 / (8.0 * cfg.L**2))


class _LsCells:
    """The LS1 -> LS2 -> LS3 decode of a block of B one-round grid cells,
    each stage one stacked array call over the block. A cell holds its set
    j, its seed states (a slice of `_LevelReplica._cell_states`) and its
    exponential scalings t_u, t_v. LS1's Count-Sketches are one `_cs_table`
    over (cell, sketch, row, bucket); LS2 and LS3 read theirs at a few keys
    (`_cs_read`)."""

    def __init__(self, cfg, nodes, j, cauchy, rows_b, rows_s, pre_u, pre_v):
        self.cfg = cfg
        self.uu, self.u_inv, self.hk_u, self.hk_v, self.qv, self.cC, splus = nodes
        self.splus = splus.T[j]  # (B, N): each cell's set
        self.cauchy, self.rows_b, self.rows_s = cauchy, rows_b, rows_s
        # fresh exponentials per round (shared by the repetitions inside it)
        self.t_u, t_v = (np.maximum(hx.exp1(hx.extend(pre, hk)), 1e-9)
                         for pre, hk in ((pre_u, self.hk_u), (pre_v, self.hk_v)))
        self.t_uv = self.t_u[:, self.u_inv] * t_v

    def ls1(self) -> np.ndarray:
        """Per cell, the parent maximizing P_u / t_u (index into uu)."""
        K, buckets = self.cfg.ls1_reps, self.cfg.cs_buckets
        h = hx.extend(self.cauchy[..., None], self.hk_v)  # fresh: mapped in place
        alpha = hx._cauchy_(h, np.empty(h.shape))
        per_u = _scatter_sum(self.u_inv, alpha * self.qv, len(self.uu))
        per_u *= (1.0 / self.t_u)[:, None, :]
        f, s = _cs_coords(self.rows_b[:, :K], self.rows_s[:, :K], self.hk_u, buckets)
        med = _median(np.abs(_cs_estimates(_cs_table(f, s, per_u, buckets), f, s)), 1)
        return np.argmax(med, axis=-1)

    def ls2(self, u_idx) -> np.ndarray:
        """Per cell, the child of uu[u_idx] maximizing Q_v/(t_u t_v), the first
        maximum, as a node index; an only child is taken without a read."""
        u_idx = np.broadcast_to(u_idx, len(self.t_u))
        v_idx = np.searchsorted(self.u_inv, u_idx)  # each parent's first child
        multi = np.flatnonzero(np.bincount(self.u_inv)[u_idx] > 1)
        if len(multi):
            child = self.u_inv == u_idx[multi, None]
            est, at = np.full(child.shape, -np.inf), np.s_[multi, self.cfg.ls1_reps]
            est[child] = np.abs(_cs_read(self.rows_b[at], self.rows_s[at], self.hk_v,
                                         self.qv / self.t_uv[multi], child, self.cfg.cs_buckets))
            v_idx[multi] = np.argmax(est, axis=-1)
        return v_idx

    def ls3(self, v_idx) -> np.ndarray:
        """Per cell, p_{u,v,S} from four Count-Sketches of the chi counters,
        truncated to [0, 1]; non-positive denominators give 0."""
        v_idx, K = np.broadcast_to(v_idx, len(self.t_u)), self.cfg.ls1_reps
        chi = np.stack([np.broadcast_to(self.cC, self.splus.shape), self.splus], 1)
        at_u = _scatter_sum(self.u_inv, chi.astype(float), len(self.uu)) * (1.0 / self.t_u)[:, None]
        reads = ((K + 1, self.hk_u, at_u, self.u_inv[v_idx]),  # sketches k, k + 1 at a key
                 (K + 3, self.hk_v, chi * (1.0 / self.t_uv)[:, None], v_idx))
        (s1, s2), (s3, s4) = (_cs_read(
            self.rows_b[:, k:k + 2], self.rows_s[:, k:k + 2], hk, x,
            np.arange(len(hk)) == key[:, None, None], self.cfg.cs_buckets).reshape(-1, 2).T
            for k, hk, x, key in reads)
        ok = ~((s1 <= 0.0) | (s3 <= 0.0))
        qu = np.divide(s2, s1, out=np.zeros_like(s2), where=ok)
        qv = np.divide(s4, s3, out=np.zeros_like(s4), where=ok)
        p = qu * (1.0 - qv) + qv * (1.0 - qu)
        return np.minimum(np.where(p > 0.0, p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


class SamplesFailed(RuntimeError):
    """Every sample of a level failed; more `samples` make that rarer."""


@dataclass
class LevelRecord:
    """Level i of a sketch's `levels`: `terms`, each replica's part of the
    estimate (EMD's eta_i, MST's ell (mu + d / 2^i); none if no sample was
    ok), and MST's evidence: ell = |L_i|-hat, stage counts, mismatches, mu."""

    level: int
    terms: List[float]
    ell: Optional[float] = None
    stages: Optional[np.ndarray] = None
    mismatches: int = 0
    mu: Optional[float] = None


class _TreeSketch:
    """What the EMD and MST estimators share: one random quadtree of depth h,
    the seeds of the replicas of each level (`seeds[i - 1]`, row i - 1 of an
    (h, replicas) uint64 array), the one count store, `counts`, and
    `estimate`, the sum of the medians of the terms of the `LevelRecord` of
    each level (`levels`). A sketch is a pure function of its config: the
    tree and every seed are drawn from `cfg.seed`, and each replica's
    character sets are drawn from its seed when it is read.

    The one-store rule: the sketch keeps one `SparseCounts` keyed by the
    packed point, plus seeds (a two-pass EMD sketch keeps a second one for
    pass 2); an update adds its int delta to one column of it
    (`SparseCounts.add_to`) and writes nothing else. That store is the
    aggregated input, the smallest exact state, not the paper's
    polylog-size sketch (a bounded mode is in the ROADMAP item on the
    space claim). A read sorts the store and fingerprints the tree
    path of its points once (`_read`), and every replica reads a view built
    from that (`views`); every sketch is a function of its view, so states
    merge and replay bit for bit. `merge` adds the store of a sketch of the
    same config, and `state_bytes` is `encode_state` of the store alone,
    under the subclass's state kind `_KIND` and the config fields `_SHAPE`."""

    def __init__(self, cfg, salt: int, count: int, width: int):
        """`count` replicas per level i, of seeds combine(cfg.seed, salt, i,
        r), all levels' drawn in one (h, count) hash call, and a store of
        `width` counts per point."""
        self.cfg = cfg
        self.tree = QuadtreeSpec(cfg.d, int(hx.combine(cfg.seed, 0x7EEE)[()]))
        self.h = self.tree.h
        i = np.arange(1, self.h + 1, dtype=U64)[:, None]
        self.seeds = hx.combine(cfg.seed, salt, i, np.arange(count, dtype=U64))
        self.counts = SparseCounts(width)

    def _read(self, counts: SparseCounts) -> tuple:
        """(packed values, rows, bit matrix X, `node_path` of X) of a store, sorted once."""
        values, rows = counts.sorted()
        X = values_to_matrix(values, self.cfg.d)
        return values, rows, X, self.tree.node_path(X)

    def views(self, read: tuple, levels, seeds: np.ndarray) -> CountView:
        """The stacked view of a `_read` store for the replicas r of the
        given levels and seeds: a point with counts c adds [c, sum(c) *
        chi-plus per character set] at the key (r, node ids (u, w) of
        `replica_node_ids`, the key words of the subclass's `_sets_and_keys`,
        which also seeds the character sets); `chi_plus` draws their
        members here, where they are read."""
        values, rows, X, path = read
        sets, keys = self._sets_and_keys(seeds, values)
        rates = np.array([self.cfg.alpha(i) for i in levels])[:, None]
        plus = (chi_plus(X, sets, rates) * rows.sum(axis=1)).transpose(0, 2, 1)
        rows = np.concatenate([np.broadcast_to(rows, (len(seeds),) + rows.shape), plus], axis=2)
        ids = replica_node_ids(path, levels, seeds, self.cfg.universe_m)
        return CountView.grouped(np.stack([*ids, *keys], axis=2), rows)

    def _additive(self) -> float:  # added to the levels' sum, after checking the stream
        return 0.0

    def estimate(self) -> float:
        """The sum over `levels` of the median of each record's terms, plus
        `_additive`; SamplesFailed for a record without terms."""
        extra, total = self._additive(), 0.0
        for rec in self.levels():
            if not rec.terms:
                s = rec.stages
                raise SamplesFailed(
                    f"all samples failed at level {rec.level} (samples = {s.sum()}: {s[1]} at "
                    f"parent recovery, {s[2]} at the child scan, {s[3]} at the witnesses)")
            total += float(np.median(rec.terms))
        return total + extra

    def merge(self, other: "_TreeSketch") -> None:
        if self.cfg != other.cfg:
            raise ValueError("cannot merge sketches with different configs")
        self.counts.merge(other.counts)

    def state_bytes(self) -> bytes:
        """`encode_state` of the one count store (the pass-2 store of a
        two-pass sketch is not included)."""
        return encode_state(self._KIND, [getattr(self.cfg, f) for f in self._SHAPE], [self.counts])


class _EmdSketchBase(_TreeSketch):
    _KIND, _SHAPE = 6, ("seed", "d", "universe_m", "level_reps", "n_sets")

    def __init__(self, cfg: EmdSketchConfig):
        # packed point -> [net A, net B]
        super().__init__(cfg, 0x11, cfg.level_reps, width=2)
        self.replicas = [[_LevelReplica(cfg, i, s) for s in seeds.tolist()]
                         for i, seeds in enumerate(self.seeds, start=1)]

    def _sets_and_keys(self, seeds: np.ndarray, values) -> tuple:
        """The (replicas, n_sets) seeds of the character sets, combine(seed,
        0xC4, j) for set j, and no key words after the node ids (u, w)."""
        return hx.combine(seeds[:, None], 0xC4, np.arange(self.cfg.n_sets, dtype=U64)), ()

    def _add(self, store: SparseCounts, point: HypercubePoint, label: str, delta: int) -> None:
        if label != "A" and label != "B":
            raise ValueError(f"label must be 'A' or 'B', got {label!r}")
        if point.d != self.cfg.d:
            raise ValueError(f"point dimension {point.d} does not match config d={self.cfg.d}")
        # an int delta (a float or str raises TypeError) to column 0 (A) or 1 (B)
        store.add_to(label == "B", point.value, operator.index(delta))

    def _read_levels(self, counts: SparseCounts, fn) -> List[LevelRecord]:
        """Per level, a record of fn(replica, view) of its replicas, each view
        a slice of the one stacked view of every replica of the store."""
        reps = [rep for per_level in self.replicas for rep in per_level]
        view = self.views(self._read(counts), [rep.level for rep in reps],
                          np.concatenate(self.seeds))
        cut = view.cuts(len(reps))
        out = iter([fn(rep, CountView(view.keys[a:b, 1:], view.rows[a:b]))
                    for rep, a, b in zip(reps, cut[:-1], cut[1:])])
        return [LevelRecord(i, [next(out) for _ in per_level])
                for i, per_level in enumerate(self.replicas, start=1)]

    def _check_balanced(self) -> int:
        """|A|, which must equal |B|."""
        n_a, n_b = self.counts.total()
        if n_a != n_b:
            raise ValueError(
                f"stream does not encode equal-size multisets: |A|={n_a}, |B|={n_b}"
            )
        return n_a


class EmdOnePassSketch(_EmdSketchBase):
    """One-pass estimator: eta = sum_i median-of-replicas eta_i (the terms of
    the `levels` records) + eps*n*d (`_additive`, once |A| = |B|)."""

    def update(self, point: HypercubePoint, label: str, delta: int = 1) -> None:
        self._add(self.counts, point, label, delta)

    def _additive(self) -> float:
        return self.cfg.eps * self._check_balanced() * self.cfg.d

    def levels(self) -> List[LevelRecord]:
        """Per level, a record of each replica's eta_i: 0 where the Delta-hat of
        its view is below `delta_threshold`, else `eta` of it and the LS estimates."""
        def eta(rep: _LevelReplica, view: CountView) -> float:
            delta_hat = rep.delta_hat(rep.discrepancies(view))
            return (0.0 if delta_hat < self.cfg.delta_threshold()
                    else rep.eta(delta_hat, rep.one_round_estimates(view)))
        return self._read_levels(self.counts, eta)


class EmdTwoPassSketch(_EmdSketchBase):
    """Two-pass estimator: round 1 samples nodes ~ discrepancy, round 2 reads
    the four exact chi counters for each sampled edge; eta = sum_i
    median-of-replicas eta_i (the `levels` records), no additive eps term."""

    def __init__(self, cfg: EmdSketchConfig):
        super().__init__(cfg)
        self.pass2 = SparseCounts(2)
        self._pass = 1

    def update(self, point: HypercubePoint, label: str, delta: int = 1) -> None:
        if self._pass != 1:
            raise RuntimeError("pass 1 is finalized; use update_pass2()")
        self._add(self.counts, point, label, delta)

    def merge(self, other: _EmdSketchBase) -> None:
        """`_TreeSketch.merge` of the pass-1 counts, before `finalize_pass1`."""
        if self._pass != 1:
            raise RuntimeError("pass 1 is finalized; merge before finalize_pass1()")
        super().merge(other)

    def finalize_pass1(self) -> None:
        """Close pass 1: its replica views are built once, here."""
        self._check_balanced()
        self._read_levels(self.counts, _LevelReplica.finalize_pass1)
        self._pass = 2

    def update_pass2(self, point: HypercubePoint, label: str, delta: int = 1) -> None:
        if self._pass != 2:
            raise RuntimeError("call finalize_pass1() first")
        self._add(self.pass2, point, label, delta)

    def levels(self) -> List[LevelRecord]:
        """Per level, a record of each replica's eta_i: 0 where its pass-1 Delta-hat
        is 0, else `eta` of it and the round-two estimates of the pass-2 store."""
        if self._pass != 2:
            raise RuntimeError("call finalize_pass1() and feed pass 2 first")

        def eta(rep: _LevelReplica, view: CountView) -> float:
            if rep.delta == 0.0:
                return 0.0
            etas = [e for e in rep.two_round_estimates(view) if e is not None]
            return rep.eta(rep.delta, etas or [0.0])
        return self._read_levels(self.pass2, eta)
