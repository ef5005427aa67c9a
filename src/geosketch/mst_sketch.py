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
polylog-size sketch (a bounded mode is ROADMAP Direction 5). Every (level,
sample) reads a view of it, built once per read for all samples in one
batch (`views`): a `CountView` of the point entries (u, w, point
fingerprint) -> [net, net * chi], sorted by key. The node counts [sum net,
sum net * chi] per universe-reduced node (u, w) are one grouped sum of
those sorted arrays (a node's entries are adjacent), the witness arrays
are columns of them, and every sketch is a view materialized from them
(bit-identical under permutation and merge): the recovery and witness
sketches of each sample, and the per-level l0 sketch, which is keyed by
the node ids of the level's first sample. Node ids are uint64 throughout.
`state_bytes` is `encode_state` of the one store.

The decode is batched: the parent recovery evaluates its hash rows as one
stack, each kappa of the child scan evaluates all of its (j, side, row)
sketches as one stack, and the witnesses of a node are built for every
(eta, row) at once and validated with one hash call. The kappas stay a loop
because the scan stops at the first kappa that isolates both children.
Stacking is exact: every hash and draw is elementwise, and every
accumulator adds its nodes in the same order, so the estimates equal those
of the per-row loops bit for bit.
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
    FAIL, CountView, L0Sketch, SparseCounts, _STABLE_MEDIAN_HEX, _hash_keys, encode_state,
    stable_median,
)
from .emd_sketch import (
    CharacterSet, UniverseMap, check_config, config_from_json, default_universe_m, log2n,
    replica_node_ids,
)

__all__ = [
    "MstSketchConfig",
    "MstSketch",
    "MstRepView",
    "reference_level_quantities",
]

_P61 = (1 << 61) - 1  # fingerprint field for witness triples
_DRAW_WORDS = np.array([0x01, 0x02], dtype=U64)[:, None, None]  # (r, theta) salts


def _point_fps(seeds, values: Sequence[int]) -> np.ndarray:
    """Fingerprints in [1, 2^61 - 1] of the packed points `values` (last
    axis) for the sample replicas with the given (broadcast) seeds."""
    return _hash_keys((seeds, 0xF9), values) % U64(_P61 - 1) + U64(1)


@dataclass
class MstSketchConfig:
    n: int
    d: int
    seed: int = 0
    samples: int = 0  # 0 -> ceil(log2 n)^3
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
            self.samples = log2n(self.n) ** 3
        if self.universe_m == 0:
            self.universe_m = default_universe_m(self.n)

    @property
    def L(self) -> int:
        return log2n(self.n)

    @property
    def gamma(self) -> float:
        return 1.0 / self.L**2

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
# per-(level, sample) state and decode view
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


class MstRepView:
    """Decode view of one (level, sample) over its point entries (u, w,
    point fingerprint) -> [net, net * chi]: parent/child recovery, witness
    scans, and the sampled tuple."""

    def __init__(self, state: _RepState, points: CountView):
        self.st = state
        self.cfg = state.cfg
        self.points = points
        # node counts (u, w) -> [net, net * chi]; a node's entries are adjacent
        self.nodes = CountView.summed(points.keys[:, :2], points.rows)
        self.keys = self.nodes.keys
        self.u, self.w = self.keys.T
        self.nx = self.nodes.rows[:, 0]
        self.uu, self.u_inv = np.unique(self.u, return_inverse=True)
        self.hk_u = hx.combine(state.seed, 0xAB, self.uu)
        self.hk_v = self._node_hash(self.u, self.w)
        self.t_u = np.clip(hx.exp1(hx.combine(state.seed, 0xE1, self.hk_u)), 1e-6, 50.0)
        self.log_med = math.log(stable_median(self.cfg.p))
        self._wit: Dict[Tuple[Tuple[int, int], int], np.ndarray] = {}

    # -- membership hashes ---------------------------------------------------
    def in_D(self, kappa: int, j, side) -> np.ndarray:
        """Membership of every node in D_{kappa,j} (side 0) or D'_{kappa,j}
        (side 1); j and side broadcast, so arrays give one row per (j, side)."""
        u01 = hx.uniform01(hx.combine(self.st.seed, 0xDD, side, j, self.hk_v))
        return u01 < 2.0**-kappa

    # -- bucketed l_p sketches -------------------------------------------------
    def _lp_bucket_logs(self, b_nodes: np.ndarray, gamma_log: np.ndarray,
                        salts, t0: int) -> np.ndarray:
        """(..., t0, buckets) log|accumulator| of one bucketed l_p sketch per
        entry of the leading batch axes: salts (...) keys the stable draws,
        and b_nodes, gamma_log (..., N) (broadcast against salts) give each
        node's bucket and log-weight; each node adds its stable draw times
        exp(gamma_log) to its bucket. A stack equals the calls it replaces
        bit for bit: the hashes and draws are elementwise, and every
        accumulator still adds its nodes in node order. Nodes with
        gamma_log = -inf (outside the subsample) would add exact zeros, so
        their draws are skipped. parent_recover stacks its hash rows, and
        the child scan stacks the (j, side, row) sketches of one kappa; it
        does not stack the kappas, as it stops at the first kappa that
        isolates both children."""
        B = self.cfg.rec_buckets
        salts = np.asarray(salts, dtype=U64)
        shape = salts.shape + (len(self.hk_v),)
        gamma_log = np.broadcast_to(gamma_log, shape).reshape(-1, shape[-1])
        b_nodes = np.broadcast_to(b_nodes, shape).reshape(-1, shape[-1])
        bi, ni = np.nonzero(np.isfinite(gamma_log))  # active (batch, node) pairs
        tgrid = np.arange(t0)[:, None]
        # the two hash words of each draw (salts 0x01, 0x02) in one stack
        h_r, h_t = hx.combine(self.st.seed, salts.ravel()[bi], _DRAW_WORDS, tgrid,
                              self.hk_v[ni])
        sign, lmag = _log_stable_draws(h_r, h_t, self.cfg.p)  # (t0, pairs)
        lmag = lmag + gamma_log[bi, ni]
        flat = (bi * t0 + tgrid) * B + b_nodes[bi, ni]
        out = _grouped_log_abs_sum(flat.ravel(), lmag.ravel(), sign.ravel(),
                                   len(gamma_log) * t0 * B)
        return out.reshape(salts.shape + (t0, B))

    def _row_bucket(self, idx_hash: np.ndarray, row, salt) -> np.ndarray:
        return hx.bucket(hx.combine(self.st.seed, salt, 0xB0, row, idx_hash),
                         self.cfg.rec_buckets)

    # -- parent recovery -------------------------------------------------------
    def parent_recover(self) -> Optional[int]:
        """The non-empty parent maximizing |C(u)|/t_u, recovered from the
        bucketed l_p sketch (median over rows of per-bucket estimates); the
        rec_rows hash rows are evaluated as one stack."""
        if len(self.keys) == 0:
            return None
        cfg = self.cfg
        mask = self.nx > 0
        gamma_log = np.where(mask, np.log(np.maximum(self.nx, 1)), -np.inf)
        gamma_log = gamma_log - np.log(self.t_u[self.u_inv]) / cfg.p
        rows = np.arange(cfg.rec_rows, dtype=U64)
        b_nodes = self._row_bucket(self.hk_u[self.u_inv], rows[:, None], 0x9A)
        logs = self._lp_bucket_logs(b_nodes, gamma_log, 0x9A00 + rows, cfg.rec_t0_parent)
        b_cand = self._row_bucket(self.hk_u, rows[:, None], 0x9A)
        ests = np.median(np.take_along_axis(logs, b_cand[:, None, :], axis=-1), axis=-2)
        med = np.median(ests, axis=0) - self.log_med
        return int(self.uu[int(np.argmax(med))])

    # -- child recovery ---------------------------------------------------------
    def _children_present(self, u_star: int, kappa: int):
        """(cand, hit): the indices of u_star's non-empty children, and the
        (j_reps, 2, |cand|) matrix of which of them clear the presence
        threshold 1/(3 t_{u*})^{1/p} in the D_{kappa,j} (side 0) and
        D'_{kappa,j} (side 1) filtered sketches. Every (j, side, row) sketch
        of the kappa is one stacked _lp_bucket_logs evaluation."""
        cfg = self.cfg
        cand = np.nonzero((self.u == u_star) & (self.nx > 0))[0]
        if len(cand) == 0:
            return cand, np.zeros((cfg.j_reps, 2, 0), dtype=bool)
        j = np.arange(cfg.j_reps, dtype=U64)[:, None, None]
        side = np.arange(2, dtype=U64)[None, :, None]
        rows = np.arange(cfg.rec_rows, dtype=U64)
        member = self.in_D(kappa, j, side)  # (j, side, N)
        gamma_log = np.where(
            member & (self.nx > 0), np.log(np.maximum(self.nx, 1)), -np.inf
        )
        gamma_log = gamma_log - np.log(self.t_u[self.u_inv]) / cfg.p
        salt = side * 131 + kappa * 17 + j  # (j, side, 1)
        b_nodes = self._row_bucket(self.hk_v, rows[:, None], 0x9B00 + salt[..., None])
        logs = self._lp_bucket_logs(b_nodes, gamma_log[:, :, None, :],
                                    0x9B0000 + salt + rows * 7717, cfg.rec_t0_child)
        est = np.median(
            np.take_along_axis(logs, b_nodes[..., None, cand], axis=-1), axis=-2
        )
        mins = est.min(axis=2) - self.log_med  # min over rows
        iu = int(np.nonzero(self.uu == u_star)[0][0])
        log_thr = -(math.log(3.0) + math.log(self.t_u[iu])) / cfg.p
        return cand, mins >= log_thr

    def child_recover(self, u_star: int, kappa: int, j: int, side: int = 0) -> List[Tuple[int, int]]:
        """Children of u_star whose bucket estimate clears the presence
        threshold in the D_{kappa,j}-filtered sketch of the given side;
        equals C(u*) cap D when 2^kappa >= |C(u*)|."""
        cand, hit = self._children_present(u_star, kappa)
        return [tuple(k) for k in self.keys[cand[hit[j, side]]].tolist()]

    def scan_children(self, u_star: int):
        """Downward kappa scan; the first kappa with unique hits in both a
        D and a D' repetition fixes (v*, v**), each from the first such j.
        One stacked evaluation per kappa covers all (j, side, row); the
        kappas stay a loop because the scan stops early (about half of
        them are evaluated), and stacking them too costs memory for no
        saving."""
        for kappa in range(self.cfg.kappa_max, -1, -1):
            cand, hit = self._children_present(u_star, kappa)
            single = hit.sum(axis=-1) == 1  # (j, side)
            if single.any(axis=0).all():
                j = single.argmax(axis=0)  # first unique j per side
                return tuple(
                    tuple(self.keys[cand[hit[j[s], s]][0]].tolist()) for s in (0, 1)
                )
        return FAIL

    # -- representatives -----------------------------------------------------------
    def _point_arrays(self):
        """Cached per-point-entry arrays: fingerprints, nets, chi flags,
        per-(side, row) subsample uniforms and bucket assignments, and the
        second fingerprints fp2 = h(seed, hk_v, pfp) keyed by each entry's
        own node."""
        cached = getattr(self, "_pts", None)
        if cached is not None:
            return cached
        (u, w, pfp), rows = self.points.keys.T, self.points.rows
        net = rows[:, 0]
        chi = (rows[:, 1] != 0).astype(np.int64)  # net != 0 in every entry
        hkv = self._node_hash(u, w)
        sides = np.arange(2, dtype=U64)[:, None, None]
        rows = np.arange(self.cfg.rec_rows, dtype=U64)[None, :, None]
        # (2, rows, points): every row is an independent point subsample
        lvl = hx.uniform01(hx.combine(self.st.seed, 0xBE, sides, rows, pfp[None, None, :]))
        bkt = self._row_bucket(hkv[None, None, :], rows, 0x9C00 + sides)
        fp2 = self._fp2(hkv, pfp)
        self._pts = (pfp, net, chi, lvl, bkt, fp2)
        return self._pts

    def _node_hash(self, u, w):
        """hk_v of the (universe-reduced) node key (u, w)."""
        return hx.combine(self.st.seed, 0xAC, u, w)

    def _fp2(self, hk_v, pfp):
        """Second fingerprint of point pfp as a member of the node hashed to
        hk_v, in [1, 2^61 - 1] (object array, or int for scalar input)."""
        return (hx.combine(self.st.seed, 0xF2, hk_v, pfp).astype(object) % (_P61 - 1)) + 1

    def _witness_triples(self, hv, side: int):
        """(count, fpsum, fp2sum) arrays of shape (2, eta_max + 1, rows): per
        eta and row, the bucket the node hashed to hv falls into, summed over
        the points kept by that row's subsample at level eta, without (index
        0) and with (index 1) the chi restriction. The sums are exact
        integers (object arrays), the fingerprint sums taken mod 2^61 - 1."""
        pfp, net, chi, lvl, bkt, fp2 = self._point_arrays()
        cfg = self.cfg
        bv = self._row_bucket(hv, np.arange(cfg.rec_rows, dtype=U64), 0x9C00 + side)
        in_bkt = bkt[side] == bv[:, None]  # (rows, points)
        sel = np.nonzero(in_bkt.any(axis=0))[0]
        rate = 2.0 ** -np.arange(cfg.eta_max + 1)
        keep = (lvl[side][:, sel] < rate[:, None, None]) & in_bkt[:, sel]
        keep = np.stack([keep, keep & (chi[sel] == 1)]).astype(object)
        w = net[sel].astype(object)
        cnt = keep @ w
        fs = (keep @ (w * pfp[sel].astype(object))) % _P61
        fs2 = (keep @ (w * fp2[sel])) % _P61
        return cnt, fs, fs2

    def _witness_buckets(self, hv, eta: int, side: int,
                         chi_restricted: bool) -> List[Tuple[int, int, int]]:
        """Per row, the (count, fpsum, fp2sum) triple of the bucket the node
        hashed to hv falls into at level eta (a slice of _witness_triples)."""
        k = int(chi_restricted)
        cnt, fs, fs2 = (a[k, eta] for a in self._witness_triples(hv, side))
        return [(int(c), int(f), int(f2)) for c, f, f2 in zip(cnt, fs, fs2)]

    def _witnesses(self, v_key: Tuple[int, int], side: int) -> np.ndarray:
        """Validated fingerprint per (chi restriction, eta, row) of v_key's
        bucket, 0 where the single-distinct-point test fails (it requires
        fp2sum = count * fp2(fpsum / count)); all entries are validated with
        one _fp2 call. fp2 is keyed by the node, so a bucket that holds a
        single point of another node fails: every fingerprint is a point of
        X_v (up to a 2^-61 fingerprint collision). Cached per (v_key, side)."""
        cached = self._wit.get((v_key, side))
        if cached is not None:
            return cached
        hv = self._node_hash(U64(v_key[0]), U64(v_key[1]))
        cnt, fs, fs2 = self._witness_triples(hv, side)
        fps = np.zeros(cnt.shape, dtype=object)
        pos = cnt > 0
        if pos.any():
            c = cnt[pos]
            inv = np.array([pow(x % _P61, _P61 - 2, _P61) for x in c.tolist()], dtype=object)
            fp = (fs[pos] * inv) % _P61
            ok = (fp != 0) & ((c * self._fp2(hv, fp.astype(U64))) % _P61 == fs2[pos])
            fps[pos] = np.where(ok, fp, 0)
        self._wit[(v_key, side)] = fps
        return fps

    def child_representative(self, v_key: Tuple[int, int], side: int = 0):
        """The first (eta, row), eta upward and rows in order, whose
        subsampled bucket validates a point of X_v yields the representative
        token (fp, eta). The rows draw independent point subsamples, so every
        point of X_v is equally likely to be the one."""
        fps = self._witnesses(v_key, side)[0]
        first = np.flatnonzero(fps != 0)
        if len(first) == 0:
            return FAIL
        eta, row = divmod(int(first[0]), self.cfg.rec_rows)
        return (int(fps[eta, row]), eta)

    def _witness_at(self, v_key, eta: int, side: int, chi_restricted: bool) -> List[int]:
        """Fingerprints validated in v_key's bucket at level eta, in row
        order (a slice of _witnesses)."""
        return [int(f) for f in self._witnesses(v_key, side)[int(chi_restricted), eta] if f]

    def char_of_representative(self, v_key: Tuple[int, int], token, side: int = 0) -> int:
        """+1 iff some row of the chi-restricted copy at the token's eta
        validates the token's point, i.e. iff chi(r_v) = +1: that point is
        alone in its row's bucket before the restriction and stays there
        exactly when chi(r_v) = +1."""
        fp, eta = token
        return 1 if fp in self._witness_at(v_key, eta, side, chi_restricted=True) else -1

    # -- full tuple ------------------------------------------------------------
    def sample_tuple(self):
        """(u*, v*, v**, token_v, token_v', chi_v, chi_v') or FAIL."""
        u_star = self.parent_recover()
        if u_star is None:
            return FAIL
        pair = self.scan_children(u_star)
        if pair is FAIL:
            return FAIL
        v1, v2 = pair
        t1 = self.child_representative(v1, side=0)
        t2 = self.child_representative(v2, side=1)
        if t1 is FAIL or t2 is FAIL:
            return FAIL
        c1 = self.char_of_representative(v1, t1, side=0)
        c2 = self.char_of_representative(v2, t2, side=1)
        return {
            "u": u_star,
            "v": v1,
            "v2": v2,
            "r_v": t1[0],
            "r_v2": t2[0],
            "chi_v": c1,
            "chi_v2": c2,
        }


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
        batch: one node path per distinct point, one hash call per id and
        per fingerprint for all replicas, and one grouped sum."""
        values, net = self.counts.sorted()
        X = values_to_matrix(values, self.cfg.d)
        u, w = replica_node_ids(self.tree.node_path(X), reps)
        pfp = _point_fps(np.array([rep.seed for rep in reps], dtype=U64)[:, None], values)
        plus = np.array([rep.charset.eval_matrix(X) == 1 for rep in reps])
        net = np.broadcast_to(net[:, 0], u.shape)
        return SparseCounts.grouped(np.stack([u, w, pfp], axis=2),
                                    np.stack([net, net * plus], axis=2))

    def _l0(self, i: int, first: CountView) -> L0Sketch:
        """Level i's l0 sketch: the net node counts of the point entries
        `first` of its first sample, keyed by that sample's (u, w) ids."""
        nodes = CountView.summed(first.keys[:, :2], first.rows[:, :1])
        return L0Sketch(int(hx.combine(self.cfg.seed, 0x10, i)[()]),
                        buckets=self.cfg.l0_buckets).with_counts(nodes)

    @property
    def l0(self) -> List[L0Sketch]:
        firsts = self.views([per_level[0] for per_level in self.reps])
        return [self._l0(i, first) for i, first in enumerate(firsts, start=1)]

    def level_counts(self) -> List[float]:
        return [l0.estimate() for l0 in self.l0]

    def level_mu(self, i: int, views: Optional[Sequence[CountView]] = None) -> float:
        """Mismatch-frequency estimate of the representative distance at
        level i, from the views of its samples (built here if not given);
        failed samples are dropped."""
        per_level = self.reps[i - 1]
        mismatches = 0
        successes = 0
        for rep, points in zip(per_level, views or self.views(per_level)):
            tup = MstRepView(rep, points).sample_tuple()
            if tup is FAIL:
                continue
            successes += 1
            if tup["chi_v"] != tup["chi_v2"]:
                mismatches += 1
        if successes == 0:
            raise SamplesFailed(f"all samples failed at level {i} (samples = {len(per_level)})")
        mu = (mismatches / successes) / self.cfg.alpha(i)
        return min(mu, self.cfg.mu_cap(i))

    def estimate(self) -> float:
        if self.counts.total()[0] <= 0:
            raise ValueError("stream encodes an empty point set")
        views = iter(self.views([rep for per_level in self.reps for rep in per_level]))
        total = 0.0
        for i, per_level in enumerate(self.reps, start=1):
            level = [next(views) for _ in per_level]
            ell = self._l0(i, level[0]).estimate()
            if ell > 1.5:
                total += ell * (self.level_mu(i, level) + self.cfg.d / 2.0**i)
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
