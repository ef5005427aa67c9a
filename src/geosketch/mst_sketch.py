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
witness structure draws its own point subsample at every eta, so the first
validated (eta, row) names a uniform point of X_v. In the paper a bucket is
a 1-sparse recovery sketch that a fingerprint test keyed by the node
validates; the counts here are exact, so a bucket validates exactly when it
holds one point entry, of the node it is read for, with a positive net
count. The fingerprint test would add only its collisions (below 2^-60),
the kind the quadtree's node fingerprints also treat as absent. A sample
fails at parent recovery (no nodes), the child scan or the witnesses; mu_i
is the mismatch frequency of the others, rescaled by d log^3 n / 2^i.

The recovery sketches are bucketed l_p sketches with p = 1/(4 log n): the
p-th powers of counts are ~1, so bucket masses act as t_u-weighted node
indicators. Their accumulators span e^{+-O(1/p)}, so all recovery arithmetic
runs in (sign, log-magnitude) space. A stable draw (Chambers-Mallows-Stuck)
takes its three sines in float32, of complementary angles where a cosine
is due, and everything else in float64 (`_log_stable_draws`): its log|x|
is within 6 * 2^-24 (1 + 1/p + (1 - p)/p) of the float64 formula. The
decode reads the draws only through decisions (an argmax over parents,
presence thresholds), which such an error moves only at a near-tie; as
numpy's float32 sines come from SIMD kernels whose last bit may depend on
the CPU's dispatch target, only a near-tie decision could differ between
machines.

State: the one-store rule of `_TreeSketch`, with a store of packed point ->
[net count]. `levels` reads it once, and builds each level's view from that
read when it reads the level, one stacked view of all its samples (`views`);
`estimate` sums its per-level `LevelRecord`s (`_TreeSketch.estimate`). A view
is a `CountView` of the point entries (sample, u, w, point fingerprint) ->
[net, net * chi], sorted by key. The node counts [sum net, sum net * chi] per
universe-reduced node (sample, u, w) are one grouped sum of those sorted arrays
(a node's entries are adjacent), the witness arrays are columns of them, and
every sketch is a function of them (bit-identical under permutation and merge):
the recovery and witness sketches of each sample, and the per-level l0 estimate
(`l0_estimate`) of the node counts of sample 0. Node ids are uint64.

The samples of a level are decoded as one stack, one call per stage for
all of them, each handing the next arrays indexed by sample, down to the
stage each sample failed at and whether its characters differ. Parent
recovery evaluates every (sample, row) sketch at once; the child scan runs
the kappas in lock step, one evaluation of every (sample, j, side, row)
sketch per kappa, and a sample leaves the stack at its first kappa that
isolates both children; the witness buckets of every (v, side) pair are
counted in one pass. Only the (sketch, bucket) groups that are read are
accumulated: parent recovery reads every node's bucket, the child scan
only the buckets that hold a child of u*, so the other nodes' draws are
skipped. Every hash chain resumes from a (seed, salt, ...) prefix hashed
once per sample, and the stable draws from a (seed, salt, draw word, t)
prefix hashed once per evaluation; a group's median over t is read off one
sort. Stacking is exact: the hashes and draws are elementwise, and every
group adds its nodes in node order, so the estimates equal those of
decoding each sample alone bit for bit. Blocks of at most `_BLOCK_DRAWS`
stable draws per evaluation and `_BLOCK_WORDS` child-scan bucket hashes per
stack bound the decode's temporaries to a few MiB.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import hashing as hx
from .hashing import U64
from .points import HypercubePoint
from .sketches import (
    CountView, _STABLE_MEDIAN_HEX, _cs_buckets, _hash_keys, _median, l0_estimate, stable_median,
)
from .emd_sketch import LevelRecord, _SketchConfig, _TreeSketch, log2n

__all__ = [
    "MstSketchConfig",
    "MstSketch",
]

_P61 = (1 << 61) - 1  # point fingerprints lie in [1, _P61 - 1]
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
class MstSketchConfig(_SketchConfig):
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
    universe_m: int = 0  # 0 -> about n^3
    _KIND = "mst-config"
    eps = 0.5  # every MST sketch is built at this eps: a constant, not a field

    def __post_init__(self):
        super().__post_init__()
        if self.L > len(_STABLE_MEDIAN_HEX):
            # median(|D_p|) at p = 1/(4L) is tabulated, and solvable, up to there
            raise ValueError(
                f"the MST sketch supports n <= 2^{len(_STABLE_MEDIAN_HEX)} "
                f"(log2 n <= {len(_STABLE_MEDIAN_HEX)}), got n = {self.n}"
            )
        if self.samples == 0:
            # L^3 is 1 at n = 2, where a single failed sample fails the level
            self.samples = max(log2n(self.n) ** 3, 8)

    @property
    def p(self) -> float:
        # p = eps / (2 log n), 1 / (4L) at eps = 1/2
        return self.eps / (2.0 * self.L)

    @property
    def wit_buckets(self) -> int:
        """Buckets per row of the witness sketches, max(rec_buckets, 2n): a
        witness needs its node's point alone in its bucket in some row, so
        the count grows with |L_i| <= n. Parent recovery and the child scan
        keep `rec_buckets`."""
        return max(self.rec_buckets, 2 * self.n)

    def alpha(self, i: int) -> float:
        return min(1.0, 2.0**i / (self.d * self.L**3))

    def mu_cap(self, i: int) -> float:
        return 10.0 * self.d * self.L / 2.0**i


# ---------------------------------------------------------------------------
# grouped signed accumulation in log space
# ---------------------------------------------------------------------------


def _grouped_log_abs_sum(
    flat_idx: np.ndarray, log_mag: np.ndarray, sign: np.ndarray, size: int
) -> np.ndarray:
    """log | sum of sign * exp(log_mag) | per group (scaled LSE)."""
    m = np.full(size, -np.inf)
    np.maximum.at(m, flat_idx, log_mag)
    safe_m = m[flat_idx]
    safe_m[np.isneginf(safe_m)] = 0.0
    mant = np.bincount(flat_idx, sign * np.exp(log_mag - safe_m), size)
    # one log per group: a group without entries keeps -inf = -inf + log(0)
    with np.errstate(divide="ignore"):
        m += np.log(np.abs(mant, out=mant), out=mant)
    return m


def _log_stable_draws(h_r: np.ndarray, h_t: np.ndarray, p: float):
    """(sign, log|x|) of standard p-stable draws from two hash-word arrays,
    p <= 1/4, by Chambers-Mallows-Stuck at r = uniform01(h_r) and theta =
    pi (uniform01(h_t) - 1/2):

        log|x| = log sin(p|theta|) - log cos|theta| / p
                 + ((1 - p) / p) (log cos((1 - p)|theta|) - log log(1/r)).

    The angles are formed in float64 and their three sines taken in
    float32, where numpy runs them in SIMD (its float64 sines are scalar
    libm, several times slower); every log and the sum are float64, in the
    formula's order. The cosines are sines of the complementary angles,
    pi/2 - |theta| = pi (1/2 - |u - 1/2|), from the uniform (1/2 - |u -
    1/2| is exact), and pi/2 - (1 - p)|theta| = that + p|theta|, so no
    angle near pi/2 loses digits to a cancellation. All three angles x lie in [0, pi/2],
    where rounding x to float32 moves sin x by at most 2^-24 relative (x
    cot x <= 1), and numpy gates its float32 sine at 2 ulp of the correctly
    rounded result (2.5 ulp <= 5 * 2^-24 relative): each sine is within
    6 * 2^-24 of its value, relative, so log|x| is within
    6 * 2^-24 (1 + 1/p + (1 - p)/p) of the float64 formula (7.2e-5 at
    p = 1/100). The float32 kernels are picked by the CPU's dispatch
    target, whose last bit may differ between machines, so only a decision
    at a near-tie of the decode could differ across them.

    sin(p |theta|) needs no abs: p |theta| <= pi/8. theta = 0 (where h_t
    >> 11 = 2^52: `uniform01` rounds 1/2 + 2^-54 to 1/2) needs no case:
    copysign gives it sign +1, and log|x| = -inf, a draw of 0."""
    a = hx.uniform01(h_t)
    a -= 0.5  # exact, as is every step to 1/2 - |u - 1/2|
    sign = np.copysign(1.0, a)
    np.abs(a, out=a)
    pa = np.multiply(a, np.pi)
    pa *= p  # p |theta|
    np.subtract(0.5, a, out=a)
    a *= np.pi  # pi/2 - |theta|
    sines = np.empty((3,) + a.shape, dtype=np.float32)
    sines[0], sines[1] = pa, a
    a += pa  # pi/2 - (1 - p) |theta|
    sines[2] = a
    logs = np.log(np.sin(sines, out=sines), dtype=np.float64)
    del a, pa, sines
    r = hx.uniform01(h_r)  # the log|x| terms, in place
    np.divide(1.0, r, out=r)
    np.log(r, out=r)
    np.log(r, out=r)
    np.subtract(logs[2], r, out=r)
    r *= (1.0 - p) / p
    logs[1] /= p
    logs[0] -= logs[1]
    r += logs[0]
    return sign, r


# ---------------------------------------------------------------------------
# per-(level, sample) state and the stacked decode
# ---------------------------------------------------------------------------


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


def _representatives(fps: np.ndarray):
    """Per item of the witnesses fps (items, 2, L + 1, rows): the point
    fingerprint fp of the first (eta, row), eta upward and rows in order,
    whose unrestricted bucket validates a point (fp = eta = 0 if none), that
    eta, and whether chi(r_v) = +1: whether a row of the chi-restricted copy
    validates fp at that eta, as r_v, alone in its bucket, stays there
    exactly when chi(r_v) = +1. The rows draw independent point subsamples,
    so every point of X_v is equally likely to be r_v."""
    n, _, E, R = fps.shape  # an explicit shape: there may be no items
    eta, row = np.divmod((fps[:, 0].reshape(n, E * R) != 0).argmax(axis=1), R)
    fp = fps[np.arange(n), 0, eta, row]
    plus = (fps[np.arange(n), 1, eta] == fp[:, None]).any(axis=1) & (fp != 0)
    return fp, eta, plus


class _LevelStack:
    """The decode arrays of the samples of some seeds of one level, in
    sample order: the point entries (s, u, w, point fingerprint) -> [net,
    net * chi] of each sample s from 0, the node counts (s, u, w) -> [net,
    net * chi] (a node's entries are adjacent), the distinct parents (s, u).
    Every stage of the tuple decode runs once for all samples of the stack
    and hands the next arrays indexed by sample: `parents`, the lock-step
    kappa `scan` (-1 where it fails), and `witnesses`; `outcomes` runs them
    and reads the representatives. The bucketed l_p sketches accumulate
    only the groups that are read, in blocks of at most `_BLOCK_DRAWS`
    draws. Every hash chain starts from one (seed, salt, ...) prefix per
    sample (`_prefix`) finished with `hashing.extend`, which gives the bits
    of the whole chain."""

    def __init__(self, cfg: MstSketchConfig, seeds: np.ndarray, points: CountView):
        self.cfg, self.seeds, self.points = cfg, seeds, points
        self.pstart = points.cuts(len(seeds))
        nodes = CountView.summed(points.keys[:, :3], points.rows)
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
        self.p = cfg.p  # a property that recomputes log2 n
        self.log_med = math.log(stable_median(self.p))

    # -- hashes ------------------------------------------------------------------
    def _prefix(self, *words) -> np.ndarray:
        """combine(seed, *words) of every sample, (samples, *broadcast shape
        of the words): the shared head of that sample's hash chains."""
        shape = np.broadcast_shapes(*(np.shape(x) for x in words))
        return hx.combine(self.seeds.reshape((-1,) + (1,) * len(shape)), *words)

    def _node_hash(self, u, w, s):
        """hk_v of the (universe-reduced) node key (u, w) of sample s."""
        return hx.extend(self._prefix(0xAC)[s], u, w)

    def _buckets(self, salts, s, k, hk, buckets: int) -> np.ndarray:
        """(*shape, rows) buckets of the node hashes hk in the bucketed
        sketches (sample s, salt salts[k]) of that many buckets, with s, k
        and hk broadcast to shape: the Count-Sketch bucket of hk in the rows
        combine(seed_s, salt, 0xB0, row)."""
        rows = np.arange(self.cfg.rec_rows, dtype=U64)
        pre = self._prefix(np.asarray(salts, dtype=U64)[:, None], 0xB0, rows)
        return _cs_buckets(pre[s, k], hk[..., None], buckets)[..., 0]

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

        The (seed, salt, draw word, t) prefix of every (sample, sketch)
        that has pairs is hashed once per call. The draws run in blocks of
        whole samples of at most `_BLOCK_DRAWS` draws (or one sample), and
        each block takes its groups' medians with one sort (`_median`).
        The values equal those of one dense table per sketch bit for bit:
        the hashes and draws are elementwise, and every group adds its
        nodes in node order."""
        B, nb = self.cfg.rec_buckets, len(salts)
        groups, read_idx = np.unique(read, return_inverse=True)
        g = np.minimum(np.searchsorted(groups, keys), len(groups) - 1)
        kept = groups[g] == keys
        g, nodes, gamma_log = g[kept], nodes[kept], gamma_log[kept]
        useg, seg = np.unique(groups[g] // B, return_inverse=True)  # (sample, sketch) of each pair
        pre = hx.combine(self.seeds[useg // nb][:, None, None], salts[useg % nb][:, None, None],
                         _DRAW_WORDS, np.arange(t0, dtype=U64))  # (segments, 2, t0)
        starts = np.searchsorted(useg[seg] // nb, np.arange(len(self.seeds) + 1))
        out = np.full(len(groups), -np.inf)
        for lo, hi in _blocks(np.diff(starts) * t0, _BLOCK_DRAWS):
            blk = slice(starts[lo], starts[hi])
            if blk.start == blk.stop:
                continue
            h_r, h_t = hx.extend(pre[seg[blk]], self.hk_v[nodes[blk], None, None]).swapaxes(0, 1)
            sign, lmag = _log_stable_draws(h_r, h_t, self.p)  # (pairs, t0)
            del h_r, h_t  # free the hash words before the accumulation
            lmag += gamma_log[blk, None]
            # the block's samples own the groups g0..g1-1
            g0, g1 = g[blk].min(), g[blk].max() + 1
            flat = (g[blk, None] - g0) * t0 + np.arange(t0)
            logs = _grouped_log_abs_sum(flat.ravel(), lmag.ravel(), sign.ravel(), (g1 - g0) * t0)
            out[g0:g1] = _median(logs.reshape(-1, t0), -1)
        return out[read_idx.reshape(read.shape)]

    # -- parent recovery -------------------------------------------------------
    def parents(self) -> np.ndarray:
        """Per sample, the index into `uu` of the parent maximizing
        |C(u)|/t_u (-1 without nodes), recovered from the bucketed l_p
        sketch (median over rows of per-bucket estimates): every (sample,
        row) sketch is one stacked _bucket_estimates evaluation, and a node
        falls into its parent's bucket, so every parent's bucket is read."""
        cfg, out = self.cfg, np.full(len(self.seeds), -1, dtype=np.int64)
        if len(self.us) == 0:
            return out
        R = cfg.rec_rows
        rows = np.arange(R, dtype=U64)
        b = self._buckets([0x9A], self.us, 0, self.hk_u, cfg.rec_buckets)
        keys = (self.us[:, None] * R + np.arange(R)) * cfg.rec_buckets + b  # (parents, R)
        act = np.flatnonzero(self.nx > 0)
        gamma_log = np.log(self.nx[act]) - np.log(self.t_u[self.u_inv[act]]) / self.p
        est = self._bucket_estimates(keys, keys[self.u_inv[act]].ravel(), np.repeat(act, R),
                                     np.repeat(gamma_log, R), 0x9A00 + rows, cfg.rec_t0_parent)
        med = _median(est, -1) - self.log_med
        # per sample the first maximum, as argmax takes it
        order = np.lexsort((-med, self.us))
        first = order[np.flatnonzero(np.r_[True, self.us[1:] != self.us[:-1]])]
        out[self.us[first]] = first
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
            b = self._buckets((0x9B00 + salt).ravel(), s, sk, hk, B)  # sketch j * 2 + side
            return ((s * 2 * J + sk)[..., None] * R + np.arange(R)) * B + b

        on = np.zeros(len(self.seeds), dtype=bool)
        on[self.ns[cand]] = True
        act = np.flatnonzero(on[self.ns] & (self.nx > 0))
        a, sk = np.nonzero(self.in_D(kappa, j, side, act).reshape(len(act), 2 * J))
        nodes = act[a]  # the (node, sketch) pairs of D, node-major
        gamma_log = np.log(self.nx[act]) - np.log(self.t_u[self.u_inv[act]]) / self.p
        est = self._bucket_estimates(
            group_keys(self.ns[cand][:, None], np.arange(2 * J), self.hk_v[cand][:, None]),
            group_keys(self.ns[nodes], sk, self.hk_v[nodes]).ravel(), np.repeat(nodes, R),
            np.repeat(gamma_log[a], R), (0x9B0000 + salt + rows * 7717).ravel(),
            cfg.rec_t0_child)
        mins = est.min(axis=-1).reshape(len(cand), J, 2) - self.log_med  # min over rows
        log_thr = np.array([-(math.log(3.0) + math.log(t)) / self.p
                            for t in self.t_u[self.u_inv[cand]].tolist()])
        return mins >= log_thr[:, None, None]

    def scan(self, parents: np.ndarray) -> np.ndarray:
        """(samples, 2) node indices (v*, v**) of the downward kappa scan
        under each sample's `parents` entry, -1 where no kappa isolates both
        children: the first kappa with unique hits in both a D and a D'
        repetition fixes (v*, v**), each from the first such j. The samples
        scan in lock step, one children_present per kappa, and a sample
        leaves the stack at its first kappa that isolates both children, so
        each (sample, kappa) is evaluated as its own scan evaluates it."""
        out = np.full((len(self.seeds), 2), -1, dtype=np.int64)
        cand = np.flatnonzero((self.u_inv == parents[self.ns]) & (self.nx > 0))
        for kappa in range(self.cfg.L, -1, -1):  # kappa from log n down to 0
            if len(cand) == 0:
                break
            hit = self.children_present(cand, kappa)
            s = self.ns[cand]
            new = np.r_[True, s[1:] != s[:-1]]
            at = np.cumsum(new) - 1  # cand -> its sample's row below
            single = np.add.reduceat(hit.astype(np.int64), np.flatnonzero(new), axis=0) == 1
            done = single.any(axis=1).all(axis=1)
            j = single.argmax(axis=1)  # first unique j per side
            for side in (0, 1):  # one pick per done sample, in sample order
                out[s[new][done], side] = cand[hit[np.arange(len(cand)), j[at, side], side]
                                               & done[at]]
            cand = cand[~done[at]]
        return out

    # -- representatives -----------------------------------------------------------
    def witnesses(self, s: np.ndarray, hv: np.ndarray, side: np.ndarray) -> np.ndarray:
        """Validated point fingerprint (uint64, 0 where none) per (item,
        chi restriction, eta, row) of the items (sample s, node hash hv,
        side). The group of an (eta, row) is the item's bucket in that row
        (of `wit_buckets`), over the point entries of s kept by the row's
        subsample at level eta, without (index 0) and with (index 1) the chi
        restriction (the entries of nonzero net * chi). It validates exactly
        when it holds one entry, of the node hashed to hv, with a positive
        net count: the outcome of a 1-sparse fingerprint test of the
        bucket's sums keyed by the node, which would differ only on a
        fingerprint collision (or a net count divisible by 2^61 - 1). One
        pass covers every (item, point) pair whose point shares the item's
        bucket in some row; a point's bucket is that of its node."""
        cfg = self.cfg
        R, E = cfg.rec_rows, cfg.L + 1
        rows = np.arange(R, dtype=U64)
        sides = np.arange(2, dtype=U64)[:, None]
        n = self.pstart[s + 1] - self.pstart[s]
        item = np.repeat(np.arange(len(s)), n)
        pt = np.arange(n.sum()) + np.repeat(self.pstart[s] - np.cumsum(n) + n, n)
        _, u, w, pfp = self.points.keys[pt].T
        hkv = self._node_hash(u, w, s[item])
        salts = 0x9C00 + np.arange(2)  # by side
        B = cfg.wit_buckets
        bv = self._buckets(salts, s, side, hv, B)
        in_bkt = self._buckets(salts, s[item], side[item], hkv, B) == bv[item]  # (pairs, rows)
        sel = np.flatnonzero(in_bkt.any(axis=1))
        item, pt, in_bkt, hkv, pfp = item[sel], pt[sel], in_bkt[sel], hkv[sel], pfp[sel]
        # every row is an independent point subsample
        lvl = hx.uniform01(hx.extend(self._prefix(0xBE, sides, rows)[s[item], side[item]],
                                     pfp[:, None]))
        keep = (lvl[:, None, :] < 2.0 ** -np.arange(E)[:, None]) & in_bkt[:, None, :]
        chi = self.points.rows[pt, 1] != 0  # net != 0 in every entry
        p, k, e, r = np.nonzero(np.stack([keep, keep & chi[:, None, None]], axis=1))
        at = ((item[p] * 2 + k) * E + e) * R + r
        size = len(s) * 2 * E * R
        ok = ((np.bincount(at, minlength=size)[at] == 1) & (hkv[p] == hv[item[p]])
              & (self.points.rows[pt[p], 0] > 0))
        fps = np.zeros(size, dtype=U64)
        fps[at[ok]] = pfp[p[ok]]
        return fps.reshape(len(s), 2, E, R)

    # -- outcomes ----------------------------------------------------------------
    def outcomes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per sample, the stage it failed at (0 = ok, 1 = no parent, 2 =
        child scan, 3 = witnesses: no validated point of v* or v**) and
        whether chi(r_v) != chi(r_v') (False unless ok)."""
        parents = self.parents()
        pairs = self.scan(parents)
        ok = np.flatnonzero(pairs[:, 0] >= 0)
        fp, _, plus = _representatives(self.witnesses(
            np.repeat(ok, 2), self.hk_v[pairs[ok].ravel()], np.tile([0, 1], len(ok))))
        found = (fp != 0).reshape(-1, 2).all(axis=1)
        stage = np.where(parents < 0, 1, 2)
        stage[ok] = np.where(found, 0, 3)
        mismatch = np.zeros(len(self.seeds), dtype=bool)
        mismatch[ok] = found & (plus[0::2] != plus[1::2])
        return stage, mismatch


class MstSketch(_TreeSketch):
    """One-pass MST estimator (l0 per level plus t sampled tuples)."""

    _KIND, _SHAPE = 7, ("seed", "d", "universe_m", "samples")

    def __init__(self, cfg: MstSketchConfig):
        # packed point -> net count
        super().__init__(cfg, 0x33, cfg.samples, width=1)

    def update(self, point: HypercubePoint, delta: int = 1) -> None:
        if point.d != self.cfg.d:
            raise ValueError(f"point dimension {point.d} does not match config d={self.cfg.d}")
        self.counts.add(point.value, operator.index(delta))

    def _sets_and_keys(self, seeds: np.ndarray, values) -> tuple:
        """The (samples, 1) seeds of the one character set of a sample,
        combine(seed, 0xC4), and the point fingerprint as a key word after
        the node ids (u, w), which makes a view's rows point entries."""
        return hx.combine(seeds, 0xC4)[:, None], (_point_fps(seeds[:, None], values),)

    def _l0(self, i: int, view: CountView) -> float:
        """Level i's l0 estimate |L_i|-hat, of the net node counts (u, w) of
        sample 0's slice of `view`, the level's stacked view.

        It is centred at 1.25 |L_i| on purpose: linear counting is within
        20% of |L_i| w.h.p., and the 1.25 puts it in [|L_i|, 1.5 |L_i|].
        MST(X) <= sum_i |L_i| mu_i exactly, for the exact level means mu_i,
        so an |L_i|-hat of at least |L_i| keeps `estimate` above the MST
        cost, which an unbiased one misses half the time."""
        n0 = view.cuts(1)[1]
        nodes = CountView.summed(view.keys[:n0, 1:3], view.rows[:n0, :1])
        return l0_estimate(nodes, int(hx.combine(self.cfg.seed, 0x10, i)[()]),
                           self.cfg.l0_buckets)

    def levels(self) -> List[LevelRecord]:
        """Per level i, the `LevelRecord` of one read of the store: ell =
        |L_i|-hat (`_l0`); where ell > 1.5 (the levels `estimate` sums, the
        only ones decoded) the `np.bincount` of the samples' `outcomes`
        stages (else all 0), the number of ok samples whose characters
        differ, their frequency mu over alpha_i, capped at `mu_cap(i)`, and
        the term ell (mu + d / 2^i) (no mu and no term without an ok sample;
        a term 0.0 at ell <= 1.5). The samples are decoded in stacks (view
        slices with the sample column rebased to 0) of at most `_BLOCK_WORDS`
        child-scan bucket hashes per kappa, counted as if every point entry
        were a node in every D (or one sample)."""
        read, out = self._read(self.counts), []
        words = 2 * self.cfg.j_reps * self.cfg.rec_rows  # per point entry
        for i, seeds in enumerate(self.seeds, start=1):
            view = self.views(read, [i] * len(seeds), seeds)  # one level at a time
            ell = self._l0(i, view)
            stage, mismatch = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
            if ell > 1.5:
                cut = view.cuts(len(seeds))
                stacks = []
                for lo, hi in _blocks(np.diff(cut) * words, _BLOCK_WORDS):
                    keys = view.keys[cut[lo]:cut[hi]].copy()
                    keys[:, 0] -= U64(lo)
                    points = CountView(keys, view.rows[cut[lo]:cut[hi]])
                    stacks.append(_LevelStack(self.cfg, seeds[lo:hi], points).outcomes())
                stage, mismatch = map(np.concatenate, zip(*stacks))
            stages, mismatches = np.bincount(stage, minlength=4), int(mismatch.sum())
            mu = (min(mismatches / int(stages[0]) / self.cfg.alpha(i), self.cfg.mu_cap(i))
                  if stages[0] else None)
            terms = [] if mu is None else [ell * (mu + self.cfg.d / 2.0**i)]
            out.append(LevelRecord(i, terms if ell > 1.5 else [0.0], ell, stages, mismatches, mu))
        return out

    def _additive(self) -> float:
        if self.counts.total()[0] <= 0:
            raise ValueError("stream encodes an empty point set")
        return 0.0
