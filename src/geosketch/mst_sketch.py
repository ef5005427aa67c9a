"""One-pass MST estimator over the quadtree.

Per level i the estimate needs two quantities: the number of non-empty nodes
|L_i| (an l0 estimate), and the mean distance between a uniformly sampled
node's representative point and a representative of its parent, linearized
through random characters at rate alpha_i = 2^i / (d log^3 n):

    estimate = sum_i 1{l_i > 1.5} * l_i * (mu_i + d / 2^i).

Each of t independent samples per level recovers a tuple
(u*, v*, v**, r_v, r_v', chi(r_v), chi(r_v')): the parent u* maximizing
|C(u)|/t_u over exponentials t_u, two uniform children isolated by downward
subsample scans D_{kappa,j}, representative points isolated by point
subsamples P_eta with fingerprint witnesses, and the character values read
from chi-restricted copies of the witness structure. Each hash row of the
witness structure draws its own point subsample at every eta, and a bucket
validates only a single point of the node it is read for (the second
fingerprint is keyed by the node), so the first validated (eta, row) names a
uniform point of X_v. mu_i is the mismatch frequency rescaled by
d log^3 n / 2^i.

The recovery sketches are bucketed l_p sketches with p = 1/(4 log n): the
p-th powers of counts are ~1, so bucket masses act as t_u-weighted node
indicators. Their accumulators span e^{+-O(1/p)}, so all recovery arithmetic
runs in (sign, log-magnitude) space.

State: the sketch keeps one `SparseCounts`, packed point -> [net count],
plus seeds; an update adds one row to it and writes nothing else. That store
is the aggregated input, the smallest exact state, not the paper's
polylog-size sketch (a bounded mode is ROADMAP Direction 6). Every (level,
sample) reads a view of it, built when its level is read, in one batch for
the samples of that level (`views`): a `CountView` of the point entries
(u, w, point fingerprint) -> [net, net * chi], sorted by key. The node
counts [sum net, sum net * chi] per universe-reduced node (u, w) are one
grouped sum of those sorted arrays (a node's entries are adjacent), the
witness arrays are columns of them, and every sketch is a view
materialized from them (bit-identical under permutation and merge): the
recovery and witness sketches of each sample, and the per-level l0
sketch, which is keyed by the node ids of the level's first sample. Node
ids are uint64 throughout. `state_bytes` is `encode_state` of the one
store.

The samples of a level are decoded as one stack, one call per stage for
all of them: parent recovery evaluates every (sample, row) sketch at once;
the child scan runs the kappas in lock step, one evaluation of every
(sample, j, side, row) sketch per kappa, and a sample leaves the stack at
its first kappa that isolates both children; the witnesses of every
(v, side) pair are summed and validated in one pass. Only the (sketch,
bucket) groups that are read are accumulated: parent recovery reads every
node's bucket, the child scan only the buckets that hold a child of u*, so
the draws of the other nodes are skipped. Every hash chain resumes from a
(seed, salt, ...) prefix hashed once per sample. Stacking is exact: the
hashes and draws are elementwise, and every group adds its nodes in node
order, so the estimates equal those of decoding each sample alone bit for
bit. The stacks are cut into blocks of at most `_BLOCK_DRAWS` stable draws
per evaluation and `_BLOCK_WORDS` child-scan bucket hashes per stack, which
bounds the decode's temporaries to a few MiB.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import hashing as hx
from .hashing import U64
from .points import HypercubePoint, PointMultiset, hamming_matrix, points_to_matrix, values_to_matrix
from .quadtree import QuadtreeSpec, sample_quadtree
from .offline import LevelDecomposition
from .sketches import (
    FAIL, CountView, L0Sketch, SparseCounts, _STABLE_MEDIAN_HEX, _cs_buckets, _hash_keys,
    encode_state, stable_median,
)
from .emd_sketch import (
    CharacterSet, UniverseMap, check_config, config_from_json, default_universe_m, log2n,
    replica_node_ids,
)

__all__ = [
    "MstSketchConfig",
    "MstSketch",
    "reference_level_quantities",
]

_P61 = (1 << 61) - 1  # fingerprint field for witness triples
_DRAW_WORDS = np.array([0x01, 0x02], dtype=U64)[:, None]  # (r, theta) salts, by t
# Block sizes of the stacked decode, which bound its temporaries to a few
# MiB: stable draws per evaluation, and child-scan bucket hashes per kappa
# of the samples stacked at once (a hash holds about a quarter of a draw's
# temporaries). They cut the same work into pieces and change no value.
_BLOCK_DRAWS = 10_000
_BLOCK_WORDS = 40_000


def _point_fps(seeds, values: Sequence[int]) -> np.ndarray:
    """Fingerprints in [1, 2^61 - 1] of the packed points `values` (last
    axis) for the sample replicas with the given (broadcast) seeds."""
    return _hash_keys((seeds, 0xF9), values) % U64(_P61 - 1) + U64(1)


@dataclass
class MstSketchConfig:
    n: int
    d: int
    seed: int = 0
    samples: int = 0  # 0 -> max(ceil(log2 n)^3, 8)
    j_reps: int = 3  # subsample repetitions per kappa
    rec_rows: int = 5
    rec_buckets: int = 64
    # stable accumulators per bucket: the argmax decode needs to resolve
    # ratio gaps (noise ~ 2/(p sqrt(t0)) in log space vs gap ln(ratio)/p),
    # so a gap ratio r needs 2/sqrt(t0) <= ln r, i.e. t0 >= (2/ln r)^2
    # (48 resolves r ~ 1.34, r = 1.10 needs 441); the child presence
    # thresholds are far coarser
    rec_t0_parent: int = 48
    rec_t0_child: int = 12
    l0_buckets: int = 4096
    universe_m: int = 0  # 0 -> default_universe_m(n), about n^3

    def __post_init__(self):
        check_config(self)
        if self.L > len(_STABLE_MEDIAN_HEX):
            # median(|D_p|) at p = 1/(4L) is tabulated, and solvable, up to there
            raise ValueError(
                f"the MST sketch supports n <= 2^{len(_STABLE_MEDIAN_HEX)} "
                f"(log2 n <= {len(_STABLE_MEDIAN_HEX)}), got n = {self.n}"
            )
        if self.samples == 0:
            # L^3 is 1 at n = 2, where a single failed sample fails the level
            self.samples = max(log2n(self.n) ** 3, 8)
        if self.universe_m == 0:
            self.universe_m = default_universe_m(self.n)

    @property
    def L(self) -> int:
        return log2n(self.n)

    @property
    def p(self) -> float:
        # p = eps / (2 log n) at eps = 1/2
        return 1.0 / (4.0 * self.L)

    @property
    def kappa_max(self) -> int:
        return self.L

    @property
    def eta_max(self) -> int:
        return self.L

    def alpha(self, i: int) -> float:
        return min(1.0, 2.0**i / (self.d * self.L**3))

    def mu_cap(self, i: int) -> float:
        return 10.0 * self.d * self.L / 2.0**i

    def to_json(self) -> str:
        return json.dumps({"kind": "mst-config", "version": 1, **asdict(self)})

    @classmethod
    def from_json(cls, s: str) -> "MstSketchConfig":
        return config_from_json(cls, s, "mst-config")


# ---------------------------------------------------------------------------
# grouped signed accumulation in log space
# ---------------------------------------------------------------------------


def _grouped_log_abs_sum(
    flat_idx: np.ndarray, log_mag: np.ndarray, sign: np.ndarray, size: int
) -> np.ndarray:
    """log | sum of sign * exp(log_mag) | per group (scaled LSE)."""
    m = np.full(size, -np.inf)
    np.maximum.at(m, flat_idx, log_mag)
    mant = np.zeros(size)
    safe_m = m[flat_idx]
    safe_m = np.where(np.isneginf(safe_m), 0.0, safe_m)
    np.add.at(mant, flat_idx, sign * np.exp(log_mag - safe_m))
    # groups without entries keep m = -inf, which is -inf + log(0)
    with np.errstate(divide="ignore"):
        m[flat_idx] += np.log(np.abs(mant[flat_idx]))
    return m


def _log_stable_draws(h_r: np.ndarray, h_t: np.ndarray, p: float):
    """(sign, log|x|) of standard p-stable draws from two hash-word arrays."""
    r = hx.uniform01(h_r)
    theta = np.pi * (hx.uniform01(h_t) - 0.5)
    at = np.abs(theta)
    log_mag = (
        np.log(np.abs(np.sin(p * at)))
        - np.log(np.cos(at)) / p
        + ((1.0 - p) / p) * (np.log(np.cos(at * (1.0 - p))) - np.log(np.log(1.0 / r)))
    )
    return np.sign(theta) + (theta == 0), log_mag


# ---------------------------------------------------------------------------
# per-(level, sample) state and the stacked decode
# ---------------------------------------------------------------------------


class SamplesFailed(RuntimeError):
    """Every sample of a level failed; more `samples` make that rarer."""


class _RepState:
    """Seeds, universe map and character of one (level, sample); its point
    entries are a view that the sketch builds when it is read."""

    def __init__(self, cfg: MstSketchConfig, level: int, seed: int):
        self.cfg = cfg
        self.level = level
        self.seed = seed
        self.umap = UniverseMap(cfg.universe_m, int(hx.combine(seed, 0xD1)[()]))
        self.charset = CharacterSet(cfg.d, cfg.alpha(level), int(hx.combine(seed, 0xC4)[()]))


def _blocks(sizes: Sequence[int], cap: int):
    """Consecutive index ranges [lo, hi) of items with the given sizes, each
    holding items of at most `cap` in all, or one larger item."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(ends):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
        yield lo, hi
        lo = hi


def _representative(fps: np.ndarray):
    """The token (fp, eta) of the first (eta, row), eta upward and rows in
    order, whose unrestricted bucket validates a point, from a node's
    validated fingerprints fps (2, eta_max + 1, rows); FAIL if none does.
    The rows draw independent point subsamples, so every point of X_v is
    equally likely to be the one."""
    first = np.flatnonzero(fps[0] != 0)
    if len(first) == 0:
        return FAIL
    eta, row = divmod(int(first[0]), fps.shape[-1])
    return int(fps[0, eta, row]), eta


def _character(fps: np.ndarray, token) -> int:
    """+1 iff some row of the chi-restricted copy at the token's eta
    validates the token's point, i.e. iff chi(r_v) = +1: that point is
    alone in its row's bucket before the restriction and stays there
    exactly when chi(r_v) = +1."""
    fp, eta = token
    return 1 if fp in fps[1, eta].tolist() else -1


class _LevelStack:
    """The decode arrays of some samples of one level, side by side in
    sample order: the point entries (s, u, w, point fingerprint) -> [net,
    net * chi] of each sample s, the node counts (s, u, w) -> [net, net *
    chi] (a node's entries are adjacent), and the distinct parents (s, u).
    Every stage of the tuple decode runs once for all samples of the stack:
    `parents`, the lock-step kappa `scan` (a sample leaves it at its first
    kappa that isolates both children), and `witnesses`. The bucketed l_p
    sketches accumulate only the groups that are read, in blocks of at most
    `_BLOCK_DRAWS` draws. Every hash chain starts from one (seed, salt, ...)
    prefix per sample (`_prefix`) finished with `hashing.extend`, which
    gives the bits of the whole chain."""

    def __init__(self, reps: Sequence[_RepState], views: Sequence[CountView]):
        self.cfg = cfg = reps[0].cfg
        self.seeds = np.array([rep.seed for rep in reps], dtype=U64)
        sample = np.repeat(np.arange(len(reps)), [len(v) for v in views])
        keys = np.concatenate(
            [sample.astype(U64)[:, None], np.concatenate([v.keys for v in views])], axis=1)
        self.points = CountView(keys, np.concatenate([v.rows for v in views]))
        self.pstart = np.searchsorted(sample, np.arange(len(reps) + 1))
        nodes = CountView.summed(keys[:, :3], self.points.rows)
        self.ns = nodes.keys[:, 0].astype(np.int64)
        self.keys, self.node_rows = nodes.keys[:, 1:], nodes.rows
        self.u, self.w = self.keys.T
        self.nx = nodes.rows[:, 0]
        new = np.ones(len(self.ns), dtype=bool)  # first node of each parent
        new[1:] = (nodes.keys[1:, :2] != nodes.keys[:-1, :2]).any(axis=1)
        self.u_inv = np.cumsum(new) - 1
        self.us, self.uu = self.ns[new], self.u[new]
        self.hk_u = hx.extend(self._prefix(0xAB)[self.us], self.uu)
        self.hk_v = self._node_hash(self.u, self.w, self.ns)
        self.t_u = np.clip(hx.exp1(hx.extend(self._prefix(0xE1)[self.us], self.hk_u)), 1e-6, 50.0)
        self.log_med = math.log(stable_median(cfg.p))

    # -- hashes ------------------------------------------------------------------
    def _prefix(self, *words) -> np.ndarray:
        """combine(seed, *words) of every sample, (samples, *broadcast shape
        of the words): the shared head of that sample's hash chains."""
        shape = np.broadcast_shapes(*(np.shape(x) for x in words))
        return hx.combine(self.seeds.reshape((-1,) + (1,) * len(shape)), *words)

    def _node_hash(self, u, w, s):
        """hk_v of the (universe-reduced) node key (u, w) of sample s."""
        return hx.extend(self._prefix(0xAC)[s], u, w)

    def _fp2(self, s, hk_v, pfp):
        """Second fingerprint in [1, 2^61 - 1] (object array) of point pfp as
        a member of the node hashed to hk_v, in sample s."""
        return (hx.extend(self._prefix(0xF2)[s], hk_v, pfp).astype(object) % (_P61 - 1)) + 1

    def _buckets(self, salts, s, k, hk) -> np.ndarray:
        """(*shape, rows) buckets of the node hashes hk in the bucketed l_p
        sketches (sample s, salt salts[k]), with s, k and hk broadcast to
        shape: the Count-Sketch bucket of hk in the rows combine(seed_s,
        salt, 0xB0, row)."""
        rows = np.arange(self.cfg.rec_rows, dtype=U64)
        pre = self._prefix(np.asarray(salts, dtype=U64)[:, None], 0xB0, rows)
        return _cs_buckets(pre[s, k], hk[..., None], self.cfg.rec_buckets)[..., 0]

    def in_D(self, kappa: int, j, side, nodes) -> np.ndarray:
        """(len(nodes), *broadcast(j, side).shape) membership of the nodes
        in D_{kappa,j} (side 0) or D'_{kappa,j} (side 1)."""
        pre = self._prefix(0xDD, side, j)
        hk = self.hk_v[nodes].reshape((-1,) + (1,) * (pre.ndim - 1))
        return hx.uniform01(hx.extend(pre[self.ns[nodes]], hk)) < 2.0**-kappa

    # -- bucketed l_p sketches -------------------------------------------------
    def _bucket_estimates(self, read: np.ndarray, keys: np.ndarray, nodes: np.ndarray,
                          gamma_log: np.ndarray, salts: np.ndarray, t0: int) -> np.ndarray:
        """The median over t < t0 of log|accumulator| of each bucketed l_p
        sketch group in `read` (same shape), keyed (sample * len(salts) +
        sketch) * buckets + bucket. In every (sample, sketch) the pairs
        (keys, nodes, gamma_log), given in node order, add their node's
        stable draw (salt salts[sketch], t) times exp(gamma_log) to their
        group. Only read groups are accumulated, so the draws of a pair
        whose group nobody reads are skipped; a group without pairs reads
        -inf.

        The draws run in blocks of whole samples of at most `_BLOCK_DRAWS`
        draws (or one sample); each block hashes every (seed, salt, draw
        word, t) prefix once and takes its groups' medians. The values equal
        those of one dense table per sketch bit for bit: the hashes and
        draws are elementwise, and every group adds its nodes in node
        order."""
        B, nb = self.cfg.rec_buckets, len(salts)
        groups, read_idx = np.unique(read, return_inverse=True)
        g = np.minimum(np.searchsorted(groups, keys), len(groups) - 1)
        kept = groups[g] == keys
        g, nodes, gamma_log = g[kept], nodes[kept], gamma_log[kept]
        seg = groups[g] // B  # (sample, sketch) of each pair
        starts = np.searchsorted(seg // nb, np.arange(len(self.seeds) + 1))
        tgrid = np.arange(t0, dtype=U64)
        out = np.full(len(groups), -np.inf)
        for lo, hi in _blocks(np.diff(starts) * t0, _BLOCK_DRAWS):
            blk = slice(starts[lo], starts[hi])
            if blk.start == blk.stop:
                continue
            useg, inv = np.unique(seg[blk], return_inverse=True)
            pre = hx.combine(self.seeds[useg // nb][:, None, None], salts[useg % nb][:, None, None],
                             _DRAW_WORDS, tgrid)  # (segments, 2, t0)
            h_r, h_t = hx.extend(pre[inv], self.hk_v[nodes[blk], None, None]).swapaxes(0, 1)
            sign, lmag = _log_stable_draws(h_r, h_t, self.cfg.p)  # (pairs, t0)
            del h_r, h_t  # free the hash words before the accumulation
            lmag += gamma_log[blk, None]
            # the block's samples own the groups g0..g1-1
            g0, g1 = g[blk].min(), g[blk].max() + 1
            flat = (g[blk, None] - g0) * t0 + np.arange(t0)
            logs = _grouped_log_abs_sum(flat.ravel(), lmag.ravel(), sign.ravel(), (g1 - g0) * t0)
            out[g0:g1] = np.median(logs.reshape(-1, t0), axis=-1)
        return out[read_idx.reshape(read.shape)]

    # -- parent recovery -------------------------------------------------------
    def parents(self) -> List[Optional[int]]:
        """Per sample, the non-empty parent maximizing |C(u)|/t_u (None
        without nodes), recovered from the bucketed l_p sketch (median over
        rows of per-bucket estimates): every (sample, row) sketch is one
        stacked _bucket_estimates evaluation, and a node falls into its
        parent's bucket, so every parent's bucket is read."""
        cfg, out = self.cfg, [None] * len(self.seeds)
        if len(self.us) == 0:
            return out
        R = cfg.rec_rows
        rows = np.arange(R, dtype=U64)
        b = self._buckets([0x9A], self.us, 0, self.hk_u)
        keys = (self.us[:, None] * R + np.arange(R)) * cfg.rec_buckets + b  # (parents, R)
        act = np.flatnonzero(self.nx > 0)
        gamma_log = np.log(self.nx[act]) - np.log(self.t_u[self.u_inv[act]]) / cfg.p
        est = self._bucket_estimates(keys, keys[self.u_inv[act]].ravel(), np.repeat(act, R),
                                     np.repeat(gamma_log, R), 0x9A00 + rows, cfg.rec_t0_parent)
        med = np.median(est, axis=-1) - self.log_med
        # per sample the first maximum, as argmax takes it
        order = np.lexsort((-med, self.us))
        first = order[np.flatnonzero(np.r_[True, self.us[1:] != self.us[:-1]])]
        for s, c in zip(self.us[first].tolist(), first.tolist()):
            out[s] = int(self.uu[c])
        return out

    # -- child recovery ---------------------------------------------------------
    def children_present(self, cand: np.ndarray, kappa: int) -> np.ndarray:
        """(len(cand), j_reps, 2) presence of the nodes cand, the non-empty
        children of one u* per sample in node order, in the D_{kappa,j}
        (side 0) and D'_{kappa,j} (side 1) filtered sketches: whether each
        clears the threshold 1/(3 t_{u*})^{1/p}. Every (sample, j, side,
        row) sketch of the kappa is one stacked _bucket_estimates
        evaluation over the non-empty nodes of cand's samples that are in
        D, and only the buckets that hold a candidate are read."""
        cfg = self.cfg
        J, R, B = cfg.j_reps, cfg.rec_rows, cfg.rec_buckets
        j = np.arange(J, dtype=U64)[:, None]
        side = np.arange(2, dtype=U64)
        rows = np.arange(R, dtype=U64)
        salt = (side * 131 + kappa * 17 + j)[..., None]  # (j, side, 1)

        def group_keys(s, sk, hk):  # (..., rows) keys of node hashes hk in sketches (s, sk)
            b = self._buckets((0x9B00 + salt).ravel(), s, sk, hk)  # sketch j * 2 + side
            return ((s * 2 * J + sk)[..., None] * R + np.arange(R)) * B + b

        on = np.zeros(len(self.seeds), dtype=bool)
        on[self.ns[cand]] = True
        act = np.flatnonzero(on[self.ns] & (self.nx > 0))
        a, sk = np.nonzero(self.in_D(kappa, j, side, act).reshape(len(act), 2 * J))
        nodes = act[a]  # the (node, sketch) pairs of D, node-major
        gamma_log = np.log(self.nx[act]) - np.log(self.t_u[self.u_inv[act]]) / cfg.p
        est = self._bucket_estimates(
            group_keys(self.ns[cand][:, None], np.arange(2 * J), self.hk_v[cand][:, None]),
            group_keys(self.ns[nodes], sk, self.hk_v[nodes]).ravel(), np.repeat(nodes, R),
            np.repeat(gamma_log[a], R), (0x9B0000 + salt + rows * 7717).ravel(),
            cfg.rec_t0_child)
        mins = est.min(axis=-1).reshape(len(cand), J, 2) - self.log_med  # min over rows
        log_thr = np.array([-(math.log(3.0) + math.log(t)) / cfg.p
                            for t in self.t_u[self.u_inv[cand]].tolist()])
        return mins >= log_thr[:, None, None]

    def scan(self, u_stars: Sequence[Optional[int]]) -> list:
        """Per sample, the node indices (v*, v**) of the downward kappa scan
        under its u*, or FAIL: the first kappa with unique hits in both a D
        and a D' repetition fixes (v*, v**), each from the first such j.
        The samples scan in lock step, one children_present per kappa, and
        a sample leaves the stack at its first kappa that isolates both
        children, so each (sample, kappa) is evaluated as the sample's own
        scan evaluates it."""
        out = [FAIL] * len(self.seeds)
        # u* is None only for a sample without nodes
        want = np.array([0 if u is None else u for u in u_stars], dtype=U64)
        cand = np.flatnonzero((self.u == want[self.ns]) & (self.nx > 0))
        for kappa in range(self.cfg.kappa_max, -1, -1):
            if len(cand) == 0:
                break
            hit = self.children_present(cand, kappa)
            s = self.ns[cand]
            new = np.r_[True, s[1:] != s[:-1]]
            at = np.cumsum(new) - 1  # cand -> its sample's row below
            single = np.add.reduceat(hit.astype(np.int64), np.flatnonzero(new), axis=0) == 1
            done = single.any(axis=1).all(axis=1)
            j = single.argmax(axis=1)  # first unique j per side
            picks = [cand[hit[np.arange(len(cand)), j[at, side], side] & done[at]].tolist()
                     for side in (0, 1)]
            for k, v1, v2 in zip(s[new][done].tolist(), *picks):
                out[k] = (v1, v2)
            cand = cand[~done[at]]
        return out

    # -- representatives -----------------------------------------------------------
    def witness_triples(self, s: np.ndarray, hv: np.ndarray, side: np.ndarray):
        """(count, fpsum, fp2sum) arrays (items, 2, eta_max + 1, rows) of the
        items (sample s, node hash hv, side): per eta and row, the bucket the
        node falls into, summed over the points of s kept by that row's
        subsample at level eta, without (index 0) and with (index 1) the chi
        restriction. The sums are exact integers (object arrays), the
        fingerprint sums taken mod 2^61 - 1. One pass covers every (item,
        point) pair whose point shares the item's bucket in some row; a
        point's bucket is that of its own node, and fp2 is keyed by it."""
        cfg = self.cfg
        R, E = cfg.rec_rows, cfg.eta_max + 1
        rows = np.arange(R, dtype=U64)
        sides = np.arange(2, dtype=U64)[:, None]
        n = self.pstart[s + 1] - self.pstart[s]
        item = np.repeat(np.arange(len(s)), n)
        pt = np.arange(n.sum()) + np.repeat(self.pstart[s] - np.cumsum(n) + n, n)
        _, u, w, pfp = self.points.keys[pt].T
        hkv = self._node_hash(u, w, s[item])
        salts = 0x9C00 + np.arange(2)  # by side
        bv = self._buckets(salts, s, side, hv)
        in_bkt = self._buckets(salts, s[item], side[item], hkv) == bv[item]  # (pairs, rows)
        sel = np.flatnonzero(in_bkt.any(axis=1))
        item, pt, in_bkt, hkv, pfp = item[sel], pt[sel], in_bkt[sel], hkv[sel], pfp[sel]
        ps = s[item]
        # every row is an independent point subsample
        lvl = hx.uniform01(hx.extend(self._prefix(0xBE, sides, rows)[ps, side[item]], pfp[:, None]))
        keep = (lvl[:, None, :] < 2.0 ** -np.arange(E)[:, None]) & in_bkt[:, None, :]
        chi = self.points.rows[pt, 1] != 0  # net != 0 in every entry
        p, k, e, r = np.nonzero(np.stack([keep, keep & chi[:, None, None]], axis=1))
        at = ((item[p] * 2 + k) * E + e) * R + r
        net = self.points.rows[pt, 0].astype(object)
        sums = []
        for x in (net, net * pfp.astype(object), net * self._fp2(ps, hkv, pfp)):
            acc = np.zeros(len(s) * 2 * E * R, dtype=object)
            np.add.at(acc, at, x[p])
            sums.append(acc.reshape(len(s), 2, E, R))
        cnt, fs, fs2 = sums
        return cnt, fs % _P61, fs2 % _P61

    def witnesses(self, s: np.ndarray, hv: np.ndarray, side: np.ndarray) -> np.ndarray:
        """Validated fingerprint per (item, chi restriction, eta, row) of
        the item's bucket (witness_triples), 0 where the single-distinct-
        point test fails (it requires fp2sum = count * fp2(fpsum / count));
        all entries are validated with one _fp2 call, and the modular
        inverse is taken once per distinct count. fp2 is keyed by the node,
        so a bucket that holds a single point of another node fails: every
        fingerprint is a point of X_v (up to a 2^-61 fingerprint
        collision)."""
        cnt, fs, fs2 = self.witness_triples(s, hv, side)
        fps = np.zeros(cnt.shape, dtype=object)
        pos = np.nonzero(cnt > 0)
        if len(pos[0]):
            c = cnt[pos]
            inv = {x: pow(x % _P61, _P61 - 2, _P61) for x in set(c.tolist())}
            fp = (fs[pos] * np.array([inv[x] for x in c.tolist()], dtype=object)) % _P61
            i = pos[0]
            ok = (fp != 0) & ((c * self._fp2(s[i], hv[i], fp.astype(U64))) % _P61 == fs2[pos])
            fps[pos] = np.where(ok, fp, 0)
        return fps

    # -- full tuples -----------------------------------------------------------
    def sample_tuples(self) -> list:
        """Per sample (u*, v*, v**, token_v, token_v', chi_v, chi_v') as a
        dict, or FAIL; each stage runs once for the whole stack."""
        u_stars = self.parents()
        pairs = self.scan(u_stars)
        ok = [k for k, pair in enumerate(pairs) if pair is not FAIL]
        v = np.array([pairs[k] for k in ok], dtype=np.int64).reshape(-1)
        fps = self.witnesses(np.repeat(ok, 2).astype(np.int64), self.hk_v[v],
                             np.tile([0, 1], len(ok)))
        out = [FAIL] * len(self.seeds)
        for k, f1, f2, (v1, v2) in zip(ok, fps[0::2], fps[1::2], v.reshape(-1, 2).tolist()):
            t1, t2 = _representative(f1), _representative(f2)
            if t1 is FAIL or t2 is FAIL:
                continue
            out[k] = {
                "u": u_stars[k],
                "v": tuple(self.keys[v1].tolist()),
                "v2": tuple(self.keys[v2].tolist()),
                "r_v": t1[0],
                "r_v2": t2[0],
                "chi_v": _character(f1, t1),
                "chi_v2": _character(f2, t2),
            }
        return out


class MstSketch:
    """One-pass MST estimator (l0 per level plus t sampled tuples)."""

    _KIND = 7  # of the serialized state

    def __init__(self, cfg: MstSketchConfig, tree: Optional[QuadtreeSpec] = None):
        self.cfg = cfg
        self.tree = tree if tree is not None else sample_quadtree(
            cfg.d, int(hx.combine(cfg.seed, 0x7EEE)[()])
        )
        if self.tree.d != cfg.d:
            raise ValueError("tree dimension does not match config")
        self.h = self.tree.h
        self.reps: List[List[_RepState]] = [
            [
                _RepState(cfg, i, int(hx.combine(cfg.seed, 0x33, i, s)[()]))
                for s in range(cfg.samples)
            ]
            for i in range(1, self.h + 1)
        ]
        self.counts = SparseCounts()  # packed point -> net count

    def update(self, point: HypercubePoint, delta: int = 1) -> None:
        if point.d != self.cfg.d:
            raise ValueError(f"point dimension {point.d} does not match config d={self.cfg.d}")
        self.counts.add(point.value, int(delta))

    def merge(self, other: "MstSketch") -> None:
        if self.cfg != other.cfg:
            raise ValueError("cannot merge sketches with different configs")
        self.counts.merge(other.counts)

    def views(self, reps: Sequence[_RepState]) -> List[CountView]:
        """The point entries (u, w, point fingerprint) -> [net, net * chi]
        of each replica in reps, built from the one count store in one
        batch: the node fingerprints of each distinct point at the depths
        i - 1 and i of the levels i of reps only, one hash call per id and
        per fingerprint for all replicas, and one grouped sum."""
        values, net = self.counts.sorted()
        X = values_to_matrix(values, self.cfg.d)
        u, w = replica_node_ids(self.tree, X, reps)
        pfp = _point_fps(np.array([rep.seed for rep in reps], dtype=U64)[:, None], values)
        plus = np.array([rep.charset.eval_matrix(X) == 1 for rep in reps])
        net = np.broadcast_to(net[:, 0], u.shape)
        return SparseCounts.grouped(np.stack([u, w, pfp], axis=2),
                                    np.stack([net, net * plus], axis=2))

    def _l0(self, i: int, first: CountView) -> L0Sketch:
        """Level i's l0 sketch: the net node counts of the point entries
        `first` of its first sample, keyed by that sample's (u, w) ids."""
        nodes = CountView.summed(first.keys[:, :2], first.rows[:, :1])
        return L0Sketch(nodes, int(hx.combine(self.cfg.seed, 0x10, i)[()]),
                        buckets=self.cfg.l0_buckets)

    @property
    def l0(self) -> List[L0Sketch]:
        return [self._l0(i, self.views(per_level[:1])[0])
                for i, per_level in enumerate(self.reps, start=1)]

    def level_counts(self) -> List[float]:
        return [l0.estimate() for l0 in self.l0]

    def level_mu(self, i: int, views: Optional[Sequence[CountView]] = None) -> float:
        """Mismatch-frequency estimate of the representative distance at
        level i, from the views of its samples (built here if not given);
        failed samples are dropped. The samples are decoded in stacks of
        at most `_BLOCK_WORDS` child-scan bucket hashes per kappa, counted
        as if every point entry were a node in every D (or one sample)."""
        per_level = self.reps[i - 1]
        views = views or self.views(per_level)
        words = 2 * self.cfg.j_reps * self.cfg.rec_rows  # per point entry
        tuples = []
        for lo, hi in _blocks([len(v) * words for v in views], _BLOCK_WORDS):
            tuples += _LevelStack(per_level[lo:hi], views[lo:hi]).sample_tuples()
        done = [tup for tup in tuples if tup is not FAIL]
        if not done:
            raise SamplesFailed(f"all samples failed at level {i} (samples = {len(per_level)})")
        mismatches = sum(tup["chi_v"] != tup["chi_v2"] for tup in done)
        mu = (mismatches / len(done)) / self.cfg.alpha(i)
        return min(mu, self.cfg.mu_cap(i))

    def estimate(self) -> float:
        if self.counts.total()[0] <= 0:
            raise ValueError("stream encodes an empty point set")
        total = 0.0
        for i, per_level in enumerate(self.reps, start=1):
            views = self.views(per_level)  # one level's views at a time
            ell = self._l0(i, views[0]).estimate()
            if ell > 1.5:
                total += ell * (self.level_mu(i, views) + self.cfg.d / 2.0**i)
        return total

    def state_bytes(self) -> bytes:
        """`encode_state` of the one count store."""
        cfg = self.cfg
        return encode_state(
            self._KIND,
            (cfg.seed, cfg.d, cfg.universe_m, cfg.samples),
            [self.counts],
        )


def reference_level_quantities(
    tree: QuadtreeSpec, X: PointMultiset, i: int
) -> Tuple[int, float]:
    """Exact (|L_i|, E_{v ~ L_i}[ ||r_v - c_{pi(v)}||_1 ]) where r_v is
    uniform over the distinct points of X_v and the parent representative is
    drawn by picking a uniform child v' of pi(v), then a uniform point of
    X_{v'} (test oracle; enumerated in closed form)."""
    if len(X) < 1:
        raise ValueError("X must be non-empty")
    if not 1 <= i <= tree.h:
        raise ValueError(f"level must be in [1, {tree.h}]")
    mx, _ = points_to_matrix(X)
    dec = LevelDecomposition(tree, mx, np.ones(mx.shape[0], dtype=np.int64),
                             np.zeros(mx.shape[0], dtype=np.int64))
    g = dec.node_count(i)
    if g == 0:
        return 0, 0.0
    rows_of = [np.nonzero(dec.group_of[i] == gi)[0] for gi in range(g)]
    children_of: Dict[int, List[int]] = {}
    for gi in range(g):
        children_of.setdefault(int(dec.parent[i][gi]), []).append(gi)
    total = 0.0
    for gi in range(g):
        sibs = children_of[int(dec.parent[i][gi])]
        inner = 0.0
        for gj in sibs:
            dmat = hamming_matrix(mx[rows_of[gi]], mx[rows_of[gj]])
            inner += float(dmat.mean())
        total += inner / len(sibs)
    return g, total / g
