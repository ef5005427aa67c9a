import struct
from collections import namedtuple
from typing import Tuple

import numpy as np
import pytest

from geosketch import hashing as hx
from geosketch.hashing import U64
from geosketch import sketches as sk
from geosketch import (
    FAIL, CharacterSet, CountView, EmdSketchConfig, HypercubePoint, L1Sampler, PointMultiset,
    SparseCounts, Stream, cauchy_l1,
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


def stream_of(d: int, updates) -> Stream:
    """The d-dimensional stream of (sign, label, packed value) updates, its
    records built byte by byte: the sign and label characters, then the
    value shifted to the top of ceil(d/8) big-endian bytes."""
    nb = (d + 7) // 8
    blob = b"".join(f"{'+' if sign > 0 else '-'}{label}".encode("ascii")
                    + (value << (8 * nb - d)).to_bytes(nb, "big") for sign, label, value in updates)
    return Stream(d, np.frombuffer(blob, np.uint8).reshape(-1, 2 + nb))


def updates_of(stream: Stream) -> list:
    """The (sign, label, packed value) of each record, decoded byte by byte."""
    return [(1 if r[0] == ord("+") else -1, chr(r[1]),
             int.from_bytes(bytes(r[2:]), "big") >> (-stream.d % 8))
            for r in stream.records.tolist()]


def view_of(store, k: int = 2) -> CountView:
    """The read-only view of a hand-built store whose keys are tuples of k
    words: what a replica's slice of a sketch's `views` gives for those
    counts."""
    keys, rows = store.sorted()
    return CountView(np.array(keys, dtype=U64).reshape(len(keys), k), rows)


def split_view(view: CountView, R: int) -> list:
    """The R views of a stacked view (`SparseCounts.grouped`), each without
    its leading replica column."""
    cut = view.cuts(R)
    return [CountView(view.keys[a:b, 1:], view.rows[a:b]) for a, b in zip(cut[:-1], cut[1:])]


Replica = namedtuple("Replica", "cfg level seed")


def replicas(sk) -> list:
    """Per level, the (cfg, level, seed) of each replica of a tree sketch."""
    return [[Replica(sk.cfg, i, s) for s in seeds.tolist()]
            for i, seeds in enumerate(sk.seeds, start=1)]


def replica_views(sk, counts, reps) -> list:
    """Per replica in reps (anything with a level and a seed), its view of
    the store `counts`: its slice of the sketch's one stacked view."""
    seeds = np.array([rep.seed for rep in reps], dtype=U64)
    return split_view(sk.views(sk._read(counts), [rep.level for rep in reps], seeds), len(reps))


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


def count_sketch(counts, rows: int, buckets: int, seed: int, at=()):
    """The (rows, buckets) Count-Sketch table of width-1 counts, as
    `L1Sampler.sample` builds it, and its median-of-rows estimates at the
    keys `at`."""
    keys, vals = sk._sorted_values(counts)
    table = sk._cs_table(*sk._sketch_coords(seed, rows, buckets, keys), vals, buckets)
    return table, sk._cs_estimates(table, *sk._sketch_coords(seed, rows, buckets, list(at)))


def cauchy_sums(counts, s: int, seed: int) -> np.ndarray:
    """The s Cauchy-weighted sums of width-1 counts that `cauchy_l1` takes
    the median magnitude of."""
    keys, vals = sk._sorted_values(counts)
    return sk._cauchy_coefficients(seed, s, keys) @ vals


class FedL1Sampler:
    """Reference l1 sampler that feeds a store of x and a store of the
    scaled integers x_i * round(min(1/t_i, 2^20) * 2^20) on every update,
    and builds its Count-Sketch table and its Cauchy l1 sums from them
    when it is read, instead of scaling the counts of x there. L1Sampler
    must equal it bit for bit."""

    def __init__(self, seed, rows=5, buckets=256, gamma=0.05):
        self.rows, self.buckets, self.gamma = rows, buckets, gamma
        self.exp_seed = int(hx.combine(seed, sk._EXP_SEED_SALT)[()])
        self.cs_seed = int(hx.combine(seed, 0xC5)[()])
        self.l1_seed = int(hx.combine(seed, 0xCA)[()])
        self.x, self.scaled = SparseCounts(), SparseCounts()

    def update(self, index, delta):
        self.x.add(index, int(delta))
        t = float(hx.exp1(sk._hash_keys((self.exp_seed, sk._EXP_SALT), [index]))[0])
        inv_t = min(1.0 / t, 2.0**20)
        self.scaled.add(index, int(delta) * int(round(inv_t * (1 << 20))))

    def table(self) -> np.ndarray:
        return count_sketch(self.scaled, self.rows, self.buckets, self.cs_seed)[0]

    def l1(self) -> np.ndarray:
        return cauchy_sums(self.x, sk._L1_ROWS, self.l1_seed)

    def sample(self):
        """The largest Count-Sketch estimate of the scaled vector if it
        clears the mass and gap tests, otherwise FAIL."""
        keys, _ = self.x.sorted()
        if not keys:
            return FAIL
        est = count_sketch(self.scaled, self.rows, self.buckets, self.cs_seed, at=keys)[1]
        est = np.abs(est) / float(1 << 20)
        l1_hat = cauchy_l1(self.x, sk._L1_ROWS, self.l1_seed)
        top = int(np.argmax(est))
        second = np.max(np.delete(est, top)) if len(keys) > 1 else 0.0
        if est[top] < self.gamma * l1_hat or est[top] < (1.0 + self.gamma) * second:
            return FAIL
        return keys[top]

    @classmethod
    def like(cls, smp: L1Sampler) -> "FedL1Sampler":
        """An empty reference with the seed and shape of `smp`."""
        return cls(smp.seed, rows=smp.rows, buckets=smp.buckets, gamma=smp.gamma)


def sampler_reads(smp: L1Sampler):
    """The Count-Sketch table of the scaled vector and the Cauchy l1 sums
    of x that `smp.sample` reads, from the same helpers."""
    keys, vals = sk._sorted_values(smp.counts)
    coords = sk._sketch_coords(smp.cs_seed, smp.rows, smp.buckets, keys)
    return smp._table(keys, vals, coords), cauchy_sums(smp.counts, sk._L1_ROWS, smp.l1_seed)


def tail_truncated_norms(z: np.ndarray, beta: int) -> Tuple[float, float]:
    """(l2, l1) norms of z after zeroing its beta largest-magnitude entries
    (ties broken toward smaller index): the tail that the Count-Sketch and
    the LS1 bounds are stated in."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    z = np.asarray(z, dtype=np.float64)
    if beta >= z.size:
        return 0.0, 0.0
    if beta > 0:
        # primary key: magnitude descending; secondary: index ascending
        order = np.lexsort((np.arange(z.size), -np.abs(z)))
        z = z.copy()
        z[order[:beta]] = 0.0
    return float(np.sqrt((z**2).sum())), float(np.abs(z).sum())


def universe_ids(seed: int, m: int, salt: int, fp) -> np.ndarray:
    """Ids in [m] of node fingerprints fp (..., 2) in the replica of the
    given seed, with the keyed hash written out here (salt 0x0E0A for a
    parent, 0x0E0B for a node), apart from `replica_node_ids`."""
    fp = np.asarray(fp, dtype=U64)
    return hx.combine(hx.combine(seed, 0xD1), salt, fp[..., 0], fp[..., 1]) % U64(m)


def node_key(tree, rep, p):
    """The (u, w) id of point p's node in a replica, from the tree path."""
    path = tree.node_path(p.bits()[None, :])[0]
    m = rep.cfg.universe_m
    return (int(universe_ids(rep.seed, m, 0x0E0A, path[rep.level - 1])),
            int(universe_ids(rep.seed, m, 0x0E0B, path[rep.level])))


def charsets(rep):
    """The character sets of a replica as scalar `CharacterSet`s, with their
    seeds written out here: n_sets sets of seed combine(seed, 0xC4, j) for
    an EMD replica, one of seed combine(seed, 0xC4) for an MST sample."""
    cfg, rate = rep.cfg, rep.cfg.alpha(rep.level)
    words = [(j,) for j in range(cfg.n_sets)] if isinstance(cfg, EmdSketchConfig) else [()]
    return [CharacterSet(cfg.d, rate, int(hx.combine(rep.seed, 0xC4, *w)[()])) for w in words]


def state_header(kind: int, shape) -> bytes:
    """The head of an `encode_state` blob of one store: magic, version 2,
    kind, the shape words and the store count."""
    return b"GSKS" + struct.pack(f"<HHB{len(shape)}QI", 2, kind, len(shape), *shape, 1)


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
