import struct
from typing import Tuple

import numpy as np
import pytest

from geosketch import hashing as hx
from geosketch.hashing import U64
from geosketch.sketches import _cauchy_coefficients, _sketch_coords
from geosketch import (
    FAIL, CauchyL1Sketch, CountSketch, CountView, ExpScaler, HypercubePoint, L1Sampler,
    PointMultiset, SparseCounts,
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


def counts_of(stream) -> SparseCounts:
    """A width-1 store fed each (key, delta) of the stream in order."""
    counts = SparseCounts()
    for key, delta in stream:
        counts.add(key, int(delta))
    return counts


class FedL1Sampler:
    """Reference l1 sampler that feeds a store of x and a store of the
    scaled integers x_i * round(min(1/t_i, 2^20) * 2^20) on every update,
    and builds its Count-Sketch table and its Cauchy l1 sketch from them
    when it is read, instead of scaling the counts of x there. L1Sampler
    must equal it bit for bit."""

    def __init__(self, seed, rows=5, buckets=256, gamma=0.05, l1_rows=128):
        self.rows, self.buckets, self.gamma, self.l1_rows = rows, buckets, gamma, l1_rows
        self.scaler = ExpScaler(int(hx.combine(seed, L1Sampler._SALT_EXP)[()]))
        self.cs_seed = int(hx.combine(seed, 0xC5)[()])
        self.l1_seed = int(hx.combine(seed, 0xCA)[()])
        self.x, self.scaled = SparseCounts(), SparseCounts()

    def update(self, index, delta):
        self.x.add(index, int(delta))
        inv_t = min(1.0 / float(self.scaler.variates([index])[0]), 2.0**20)
        self.scaled.add(index, int(delta) * int(round(inv_t * (1 << 20))))

    def count_sketch(self) -> CountSketch:
        return CountSketch(self.scaled, self.rows, self.buckets, self.cs_seed)

    def l1(self) -> CauchyL1Sketch:
        return CauchyL1Sketch(self.x, self.l1_rows, self.l1_seed)

    def sample(self):
        """The largest Count-Sketch estimate of the scaled vector if it
        clears the mass and gap tests, otherwise FAIL."""
        keys, _ = self.x.sorted()
        if not keys:
            return FAIL
        est = np.abs(self.count_sketch().estimate_many(keys)) / float(1 << 20)
        l1_hat = self.l1().estimate()
        top = int(np.argmax(est))
        second = np.max(np.delete(est, top)) if len(keys) > 1 else 0.0
        if est[top] < self.gamma * l1_hat or est[top] < (1.0 + self.gamma) * second:
            return FAIL
        return keys[top]

    @classmethod
    def like(cls, smp: L1Sampler) -> "FedL1Sampler":
        """An empty reference with the seed and shape of `smp`."""
        return cls(smp.seed, rows=smp.rows, buckets=smp.buckets, gamma=smp.gamma,
                   l1_rows=smp.l1_rows)


def sampler_reads(smp: L1Sampler):
    """The Count-Sketch table of the scaled vector and the Cauchy l1
    accumulators of x that `smp.sample` reads, from the same helpers."""
    keys, vals = smp._sorted_items()
    coords = _sketch_coords(smp.cs_seed, smp.rows, smp.buckets, keys)
    l1 = _cauchy_coefficients(smp.l1_seed, smp.l1_rows, keys) @ vals
    return smp._table(keys, vals, coords), l1


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
