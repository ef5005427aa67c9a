import struct
from typing import Tuple

import numpy as np
import pytest

from geosketch import hashing as hx
from geosketch.hashing import U64
from geosketch import (
    CauchyL1Sketch, CountSketch, CountView, HypercubePoint, L1Sampler, PointMultiset,
)


def random_multiset(n: int, d: int, seed: int) -> PointMultiset:
    rng = np.random.default_rng(seed)
    return PointMultiset.from_points(
        [HypercubePoint.from_bits(rng.integers(0, 2, d)) for _ in range(n)]
    )


def random_pair(n: int, d: int, seed: int, noise: float = 0.25):
    """(A, B) with B a noisy copy of A, so EMD is non-trivial but small."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    b = a ^ (rng.random((n, d)) < noise).astype(np.uint8)
    A = PointMultiset.from_points([HypercubePoint.from_bits(r) for r in a])
    B = PointMultiset.from_points([HypercubePoint.from_bits(r) for r in b])
    return A, B


def view_of(store, k: int = 2) -> CountView:
    """The read-only view of a hand-built store whose keys are tuples of k
    words: what a sketch's `views` gives for those counts."""
    keys, rows = store.sorted()
    return CountView(np.array(keys, dtype=U64).reshape(len(keys), k), rows)


def view_dict(view: CountView) -> dict:
    """A view's counts as {key tuple: row list}."""
    return {tuple(k): r for k, r in zip(view.keys.tolist(), view.rows.tolist())}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class FedL1Sampler(L1Sampler):
    """Reference l1 sampler that feeds its Count-Sketch of the scaled vector
    and its Cauchy l1 sketch on every update, instead of building both from
    its count map when it is read. L1Sampler must equal it bit for bit."""

    def __init__(self, seed, **kw):
        super().__init__(seed, **kw)
        self.cs = CountSketch(self.rows, self.buckets, int(hx.combine(seed, 0xC5)[()]))
        self.l1 = CauchyL1Sketch(self.l1_rows, int(hx.combine(seed, 0xCA)[()]))

    def update(self, index, delta):
        super().update(index, delta)
        inv_t = min(1.0 / self.scaler.variate(index), 2.0**20)
        self.cs.update(index, int(delta) * int(round(inv_t * (1 << 20))))
        self.l1.update(index, delta)

    def _views(self):
        return self.cs._materialize(), self.l1

    @classmethod
    def like(cls, smp: L1Sampler) -> "FedL1Sampler":
        """An empty reference with the seed and shape of `smp`."""
        return cls(smp.seed, rows=smp.rows, buckets=smp.buckets, gamma=smp.gamma,
                   l1_rows=smp.l1_rows)


def store_sizes(blob: bytes):
    """(width, row count) of every count store of an `encode_state` blob."""
    off = 9 + 8 * blob[8]  # magic, version, kind, word count, words
    (n_stores,) = struct.unpack_from("<I", blob, off)
    off += 4
    sizes = []
    for _ in range(n_stores):
        width, count = struct.unpack_from("<II", blob, off)
        off += 8
        for _ in range(count):
            off += 1 + 8 * blob[off] + 8 * width
        sizes.append((width, count))
    assert off == len(blob)
    return sizes


# -- reference one-round LS decode -----------------------------------------------
# The per-decoder loop that `_LevelReplica.one_round_estimates` replaced with
# the blocked grid decode. The grid must equal it bit for bit.


def _cs_coords(prefix_b: tuple, prefix_s: tuple, hkeys: np.ndarray, rows: int,
               buckets: int) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, n) buckets and signs of a Count-Sketch for the keys hashed to
    hkeys: combine(*prefix, row, key hash) picks each one."""
    r = np.arange(rows, dtype=U64)[:, None]
    b = hx.bucket(hx.combine(*prefix_b, r, hkeys[None, :]), buckets)
    s = hx.sign_pm1(hx.combine(*prefix_s, r, hkeys[None, :]))
    return b, s


def _cs_table(b: np.ndarray, s: np.ndarray, values: np.ndarray, buckets: int) -> np.ndarray:
    """Bucket table of the vector with `values` at the keys of (b, s),
    added row by row in key order."""
    table = np.zeros((b.shape[0], buckets))
    for r in range(b.shape[0]):
        np.add.at(table[r], b[r], s[r] * values)
    return table


def _cs_estimates(table: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Median-over-rows estimates at the keys of (b, s)."""
    return np.median(s * table[np.arange(table.shape[0])[:, None], b], axis=0)


class _OneRoundDecoder:
    """LS1/LS2/LS3 decode for one (set, copy, round, repetition), with its
    own Count-Sketches added row by row with `np.add.at`."""

    def __init__(self, rep, j, c, r, m, uu, u_inv, hk_u, hk_v, qv, cC, splus_j,
                 t_u=None, t_v=None):
        self.rep = rep
        self.cfg = rep.cfg
        self.sub = int(hx.combine(rep.seed, 0x0140, j, c, r, m)[()])
        self.round_seed = int(hx.combine(rep.seed, 0x0141, j, c, r)[()])
        self.uu, self.u_inv = uu, u_inv
        self.hk_u, self.hk_v = hk_u, hk_v
        self.qv, self.cC, self.splus_j = qv, cC, splus_j
        # fresh exponentials per round (shared by the repetitions inside it);
        # explicit scalings may be injected for conditioned tests
        self.t_u = (
            np.maximum(hx.exp1(hx.combine(self.round_seed, 0xE1, hk_u)), 1e-9)
            if t_u is None
            else np.asarray(t_u, dtype=np.float64)
        )
        self.t_v = (
            np.maximum(hx.exp1(hx.combine(self.round_seed, 0xE2, hk_v)), 1e-9)
            if t_v is None
            else np.asarray(t_v, dtype=np.float64)
        )

    def _cs(self, idx_hash: np.ndarray, values: np.ndarray, sub_seed: int) -> np.ndarray:
        """Count-Sketch estimates of a float vector at its own indices."""
        cfg = self.cfg
        b, s = _cs_coords((sub_seed, 0xB), (sub_seed, 0x5), idx_hash,
                          cfg.cs_rows, cfg.cs_buckets)
        return _cs_estimates(_cs_table(b, s, values, cfg.cs_buckets), b, s)

    def ls1(self) -> int:
        """Recover the parent maximizing P_u / t_u (index into uu)."""
        cfg = self.cfg
        inv_tu = 1.0 / self.t_u
        ests = np.empty((cfg.ls1_reps, len(self.uu)))
        for k in range(cfg.ls1_reps):
            alpha = hx.cauchy(hx.combine(self.sub, 0xA1, k, self.hk_v))
            per_u = np.zeros(len(self.uu))
            np.add.at(per_u, self.u_inv, alpha * self.qv)
            per_u *= inv_tu
            ests[k] = self._cs(self.hk_u, per_u, int(hx.combine(self.sub, 0xCE, k)[()]))
        med = np.median(np.abs(ests), axis=0)
        return int(np.argmax(med))

    def ls2(self, u_idx: int) -> int:
        """Recover the child of uu[u_idx] maximizing Q_v/(t_u t_v); returns a
        node index (always a child of the given parent)."""
        vals = self.qv / (self.t_u[self.u_inv] * self.t_v)
        est = np.abs(self._cs(self.hk_v, vals, int(hx.combine(self.sub, 0xCF)[()])))
        children = np.nonzero(self.u_inv == u_idx)[0]
        return int(children[np.argmax(est[children])])

    def ls3(self, v_idx: int) -> float:
        """Estimate p_{u,v,S} from four Count-Sketches of the chi counters,
        truncated to [0, 1]; non-positive denominators give 0."""
        u_idx = self.u_inv[v_idx]
        inv_tu = 1.0 / self.t_u
        cu = np.zeros(len(self.uu))
        cup = np.zeros(len(self.uu))
        np.add.at(cu, self.u_inv, self.cC.astype(np.float64))
        np.add.at(cup, self.u_inv, self.splus_j.astype(np.float64))
        cu *= inv_tu
        cup *= inv_tu
        scale_v = 1.0 / (self.t_u[self.u_inv] * self.t_v)
        cv = self.cC * scale_v
        cvp = self.splus_j * scale_v

        def est(idx_hash, values, salt, pick):
            return self._cs(idx_hash, values, int(hx.combine(self.sub, salt)[()]))[pick]

        s1 = est(self.hk_u, cu, 0x31, u_idx)
        s2 = est(self.hk_u, cup, 0x32, u_idx)
        s3 = est(self.hk_v, cv, 0x33, v_idx)
        s4 = est(self.hk_v, cvp, 0x34, v_idx)
        if s1 <= 0.0 or s3 <= 0.0:
            return 0.0
        qu = s2 / s1
        qv = s4 / s3
        p = qu * (1.0 - qv) + qv * (1.0 - qu)
        return float(min(1.0, max(0.0, p)))


def reference_one_round_estimates(rep, counts):
    """`_LevelReplica.one_round_estimates` as one `_OneRoundDecoder` per
    (set, copy, round, repetition), reduced in Python lists."""
    *arrays, splus = rep._decode_arrays(counts)
    cfg = rep.cfg
    if len(arrays[0]) == 0:
        return [0.0] * cfg.n_sets
    out = []
    for j in range(cfg.n_sets):
        copies = []
        for c in range(cfg.n_inner):
            rounds = []
            for r in range(cfg.n_rounds):
                meds = []
                for m in range(cfg.n_medreps):
                    dec = _OneRoundDecoder(rep, j, c, r, m, *arrays, splus[:, j])
                    u_star = dec.ls1()
                    v_star = dec.ls2(u_star)
                    meds.append(dec.ls3(v_star))
                rounds.append(float(np.median(meds)))
            copies.append(float(np.mean(rounds)))
        out.append(float(np.median(copies)))
    return out
