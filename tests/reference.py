"""References the tests check the package against: scalar and per-item
forms of what the package computes on arrays, kept apart from it so that no
estimator runs them. The scalar character and split probability, the
p-stable generator and the quadrature of median(|D_p|), the LCA depth of
two points, dict references of a view's counts, the fed l1 sampler, the
per-decoder one-round LS decode, the Cauchy map of a copy of hash words,
and the LS cells of conditioned tests.

Also the references of the paper's sandwich lemmas, which bound the tree
values of `offline.LevelDecomposition.tree_terms` by exact costs: the
Hamming distance of two points, the depth-greedy matching and spanning
tree as (a, b, multiplicity) lists with their one `cost`, and the
inspector payments. The lemmas are matching cost <= EMD tree value <= 2 x
payment, and spanning-tree cost / 2 <= MST tree value."""

from typing import List, Tuple

import numpy as np

from geosketch import hashing as hx
from geosketch import sketches as sk
from geosketch.emd_sketch import EmdSketchConfig, _LsCells, character_members
from geosketch.hashing import U64
from geosketch.offline import LevelDecomposition
from geosketch.points import HypercubePoint, PointMultiset, points_to_matrix
from geosketch.quadtree import QuadtreeSpec
from geosketch.sketches import FAIL, CountView, L1Sampler, cauchy_l1


def cauchy(h: np.ndarray) -> np.ndarray:
    """Standard Cauchy variates of hash words, tan(pi (u - 1/2)), from a copy
    of them that `hashing._cauchy_` maps in place."""
    h = np.array(h, dtype=U64)
    return hx._cauchy_(h, np.empty(h.shape))


# -- characters and the split probability ----------------------------------------


class CharacterSet:
    """Random S subset of [d], each coordinate kept i.i.d. at `rate`, drawn
    by `character_members`: the scalar character that `split_probability`
    reads, and the oracle of the characters the sketches draw.

    chi_S(x) = (-1)^{sum_{k in S} x_k}; stored as a packed mask aligned with
    HypercubePoint.value.
    """

    def __init__(self, d: int, rate: float, seed: int):
        self.d = d
        self.rate = min(1.0, max(0.0, rate))
        self.seed = seed
        self.indices = character_members(seed, d, self.rate)[1]
        self.mask = sum(1 << (d - 1 - k) for k in self.indices.tolist())

    def eval(self, x: HypercubePoint) -> int:
        """chi_S(x) in {-1, +1}."""
        if x.d != self.d:
            raise ValueError("dimension mismatch")
        return -1 if (self.mask & x.value).bit_count() & 1 else 1


def split_probability(C_u: PointMultiset, C_v: PointMultiset, S: CharacterSet) -> float:
    """Pr[chi_S(c_u) != chi_S(c_v)] for independent uniform draws from the two
    populations; 0 when either population is empty (the avg = 0 convention)."""
    if len(C_u) == 0 or len(C_v) == 0:
        return 0.0

    qu, qv = (sum(c for p, c in ms.items() if S.eval(p) == 1) / ms.total for ms in (C_u, C_v))
    return qu * (1.0 - qv) + qv * (1.0 - qu)


def charsets(rep):
    """The character sets of a replica as scalar `CharacterSet`s, with their
    seeds written out here: n_sets sets of seed combine(seed, 0xC4, j) for
    an EMD replica, one of seed combine(seed, 0xC4) for an MST sample."""
    cfg, rate = rep.cfg, rep.cfg.alpha(rep.level)
    words = [(j,) for j in range(cfg.n_sets)] if isinstance(cfg, EmdSketchConfig) else [()]
    return [CharacterSet(cfg.d, rate, int(hx.combine(rep.seed, 0xC4, *w)[()])) for w in words]


# -- p-stable generation and the median of |D_p| ---------------------------------------


def sample_p_stable_array(p: float, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Vectorized Chambers-Mallows-Stuck p-stable generator; extreme inputs
    saturate to inf/0, which is the right semantics for the heavy tails."""
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        return (np.sin(p * theta) / np.cos(theta) ** (1.0 / p)) * (
            np.cos(theta * (1.0 - p)) / np.log(1.0 / r)
        ) ** ((1.0 - p) / p)


def _g_abs(p: float, r, theta):
    """|D_p| generator g(r, theta) on (0,1) x (0, pi/2)."""
    return np.abs(sample_p_stable_array(p, r, theta))


def _stable_median_slow(p: float) -> float:
    """median(|D_p|), found by bisection on t -> F(g(t, pi t / 2)): the
    quadrature that `sketches.stable_median`'s committed table was made with.

    The CDF F is evaluated by quadrature over theta of the inverse of the
    generator (monotone in r for p < 1); the solution t* lies in [1/10, 9/10].
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")

    def r_bar(theta: float, z: float) -> float:
        lo, hi = 1e-12, 1.0 - 1e-12
        if _g_abs(p, hi, theta) <= z:
            return 1.0
        if _g_abs(p, lo, theta) >= z:
            return 0.0
        return brentq(lambda r: _g_abs(p, r, theta) - z, lo, hi, xtol=1e-12)

    def cdf(z: float) -> float:
        val, _ = quad(lambda th: r_bar(th, z), 1e-9, np.pi / 2 - 1e-9, limit=200)
        return val / (np.pi / 2)

    t_star = brentq(
        lambda t: cdf(_g_abs(p, t, np.pi * t / 2)) - 0.5, 0.02, 0.98, rtol=1e-9
    )
    return float(_g_abs(p, t_star, np.pi * t_star / 2))


# -- the quadtree and the universe ids ---------------------------------------------------


def lca_depth(tree: QuadtreeSpec, x: HypercubePoint, y: HypercubePoint) -> int:
    """Depth of the least common ancestor of the leaves of x and y."""
    if x.d != y.d:
        raise ValueError(f"dimension mismatch: {x.d} != {y.d}")
    X = np.stack([x.bits(), y.bits()])
    path = tree.node_path(X)
    same = np.all(path[0] == path[1], axis=1)
    # equality is monotone down the path: find the deepest agreeing depth
    depth = 0
    for i in range(tree.h + 1):
        if same[i]:
            depth = i
        else:
            break
    return depth


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


# -- dict references of a view's counts ------------------------------------------------


def add_count(counts: dict, key: tuple, delta) -> None:
    """Add delta, an int or a row of ints, to the row of key (a tuple of
    words) in counts, a {key: row list} reference of a view's counts (the
    form of `view_dict`), and drop the row once it is all zero."""
    row = [int(delta)] if np.ndim(delta) == 0 else [int(v) for v in delta]
    new = [a + b for a, b in zip(counts.get(key, [0] * len(row)), row)]
    if any(new):
        counts[key] = new
    else:
        counts.pop(key, None)


def tally(updates) -> dict:
    """The dict reference of the (key, delta) updates, each added in turn
    (`add_count`)."""
    counts: dict = {}
    for key, delta in updates:
        add_count(counts, key, delta)
    return counts


def dict_view(counts: dict, k: int, width: int = 1) -> CountView:
    """The view of a dict reference whose keys have k words and whose rows
    have `width` entries: its keys in sorted order, which is the canonical
    order of their words."""
    keys = sorted(counts)
    return CountView(np.array(keys, dtype=U64).reshape(len(keys), k),
                     np.array([counts[key] for key in keys], dtype=np.int64).reshape(-1, width))


# -- the l1 sampler --------------------------------------------------------------------


def own_l1(counts: CountView, seed: int) -> float:
    """The 128-row Cauchy l1 estimate of x that an l1 sampler of this seed
    drew for itself before its mass test read a given one,
    cauchy_l1(x, 128, combine(seed, 0xCA)): the standalone sampler tests
    pass it, so their outcomes are those of that sampler."""
    return cauchy_l1(counts, 128, int(hx.combine(seed, 0xCA)[()]))


def count_sketch(counts: CountView, rows: int, buckets: int, seed: int, at=()):
    """The (rows, buckets) Count-Sketch table of width-1 counts, as
    `l1_samples` builds it for one seed, and its median-of-rows estimates
    at the keys `at` (of as many words as the view's keys)."""
    vals = counts.rows[:, 0].astype(np.float64)
    table = sk._cs_table(*sk._sketch_coords(seed, rows, buckets, counts.keys), vals, buckets)
    at = np.array(at, dtype=U64).reshape(len(at), counts.keys.shape[1])
    return table, sk._cs_estimates(table, *sk._sketch_coords(seed, rows, buckets, at))


def cauchy_sums(counts: CountView, s: int, seed: int) -> np.ndarray:
    """The s Cauchy-weighted sums of width-1 counts that `cauchy_l1` takes
    the median magnitude of, from the whole (s, n) coefficient matrix,
    which `cauchy_l1` builds a block of rows at a time."""
    r = np.arange(s, dtype=U64)[:, None]
    hk = sk._hash_keys((seed,), counts.keys)[None, :]
    return cauchy(hx.combine(sk._CAUCHY_SALT, r, hk)) @ counts.rows[:, 0].astype(np.float64)


class FedL1Sampler:
    """Reference l1 sampler over keys of k words that adds every update to
    a dict reference of x and one of the scaled integers x_i * round(min(1/t_i,
    2^20) * 2^20) (`add_count`), and builds its Count-Sketch table from the
    view of the scaled ones when it is read, instead of scaling the counts
    of x there. Its mass test reads the l1 estimate it is given. L1Sampler
    must equal it bit for bit."""

    def __init__(self, seed, k=1, rows=5, buckets=256, gamma=0.05):
        self.k, self.rows, self.buckets, self.gamma = k, rows, buckets, gamma
        self.exp_seed = int(hx.combine(seed, sk._EXP_SEED_SALT)[()])
        self.cs_seed = int(hx.combine(seed, 0xC5)[()])
        self.x, self.scaled = {}, {}

    def update(self, index: tuple, delta):
        add_count(self.x, index, delta)
        words = np.array([index], dtype=U64)
        t = float(hx.exp1(sk._hash_keys((self.exp_seed, sk._EXP_SALT), words))[0])
        inv_t = min(1.0 / t, 2.0**20)
        add_count(self.scaled, index, int(delta) * int(round(inv_t * (1 << 20))))

    def table(self) -> np.ndarray:
        return count_sketch(dict_view(self.scaled, self.k), self.rows, self.buckets,
                            self.cs_seed)[0]

    def sample(self, l1: float):
        """The largest Count-Sketch estimate of the scaled vector if it
        clears the mass test against l1 and the gap test, otherwise FAIL."""
        keys = sorted(self.x)
        if not keys:
            return FAIL
        est = count_sketch(dict_view(self.scaled, self.k), self.rows, self.buckets, self.cs_seed,
                           at=keys)[1]
        est = np.abs(est) / float(1 << 20)
        top = int(np.argmax(est))
        second = np.max(np.delete(est, top)) if len(keys) > 1 else 0.0
        if est[top] < self.gamma * l1 or est[top] < (1.0 + self.gamma) * second:
            return FAIL
        return keys[top]

    @classmethod
    def like(cls, smp: L1Sampler) -> "FedL1Sampler":
        """An empty reference with the seed and shape of `smp`, over keys of
        as many words as its view's."""
        return cls(smp.seed, k=smp.counts.keys.shape[1], rows=smp.rows, buckets=smp.buckets,
                   gamma=smp.gamma)


# -- norms -------------------------------------------------------------------------


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
            alpha = cauchy(hx.combine(self.sub, 0xA1, k, self.hk_v))
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


def ls_cells(rep, counts: CountView, j=0, c=0, r=0, m=0, t_u=None, t_v=None) -> _LsCells:
    """The `_LsCells` of the one-round grid cells (j, c, r, m) (broadcast)
    of a one-pass replica over its counts. Given t_u and t_v, the cells'
    exponential scalings are those instead, for tests that condition on
    them."""
    cells = _LsCells(rep.cfg, rep._decode_arrays(counts), *rep._cell_states(j, c, r, m))
    if t_u is not None:
        cells.t_u = np.atleast_2d(t_u).astype(float)
        cells.t_uv = cells.t_u[:, cells.u_inv] * np.atleast_2d(t_v).astype(float)
    return cells


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


# -- reference round-two read ------------------------------------------------------------


def reference_two_round_estimates(rep, counts: CountView) -> Tuple[list, dict]:
    """The round-two estimates of a two-pass replica's samples, read edge by
    edge with full-array masks of the pass-2 view, and the counters [|C_u*|,
    chi-plus count of C_u*, |C_v*|, chi-plus count of C_v*] of each
    successful (set, copy), as lists."""
    u, w, _, cC, splus = rep.vectors(counts)
    out, counters = [], {}
    for j in range(rep.cfg.n_sets):
        vals = []
        for c in range(rep.cfg.n_inner):
            v = rep.sampled.get((j, c), FAIL)
            if v is FAIL:
                continue
            in_u = u == U64(v[0])
            at_v = in_u & (w == U64(v[1]))
            ctr = [int(cC[in_u].sum()), int(splus[in_u, j].sum()), int(cC[at_v].sum()),
                   int(splus[at_v, j].sum())]
            counters[j, c] = ctr
            cu, cup, cv, cvp = ctr
            if cu <= 0 or cv <= 0:
                vals.append(0.0)
                continue
            quu, qvv = cup / cu, cvp / cv
            vals.append(quu * (1 - qvv) + qvv * (1 - quu))
        out.append(float(np.mean(vals)) if vals else None)
    return out, counters


# -- the sandwich lemmas: depth-greedy matchings and spanning trees, payments ------------

Pairs = List[Tuple[HypercubePoint, HypercubePoint, int]]


def hamming_distance(x: HypercubePoint, y: HypercubePoint) -> int:
    """Number of coordinates where x and y differ."""
    if x.d != y.d:
        raise ValueError(f"dimension mismatch: {x.d} != {y.d}")
    return (x.value ^ y.value).bit_count()


def cost(pairs: Pairs) -> int:
    """Cost of a matching or a spanning tree given as (a, b, multiplicity)."""
    return sum(c * hamming_distance(a, b) for a, b, c in pairs)


def depth_greedy_matching(tree: QuadtreeSpec, A: PointMultiset, B: PointMultiset) -> Pairs:
    """A matching maximizing the total LCA depth, built bottom-up.

    Within every node, surviving points of the two sides are paired off; the
    number of pairs matched strictly above any node v is then exactly
    ||A_v| - |B_v||. Determinism: children are merged in ascending
    fingerprint order, survivors keep sorted point order.
    """
    if len(A) != len(B):
        raise ValueError(f"|A| = {len(A)} != |B| = {len(B)}")
    dec = LevelDecomposition(tree, A, B)
    X = dec.X
    n_rows = X.shape[0]
    pts = [HypercubePoint.from_bits(X[r]) for r in range(n_rows)]

    # surviving multiplicity per row, updated as we match upward
    live_a = dec.wa.copy()
    live_b = dec.wb.copy()
    pairs: Pairs = []

    for i in range(tree.h, -1, -1):
        g = dec.node_count(i)
        if g == 0:
            break
        # rows grouped by node, node order = ascending fingerprint (np.unique
        # sorts), rows inside a node in matrix order
        order = np.argsort(dec.group_of[i], kind="stable")
        bounds = np.searchsorted(dec.group_of[i][order], np.arange(g + 1))
        for gi in range(g):
            rows = order[bounds[gi] : bounds[gi + 1]]
            ra = [r for r in rows if live_a[r] > 0]
            rb = [r for r in rows if live_b[r] > 0]
            ia = ib = 0
            while ia < len(ra) and ib < len(rb):
                m = min(live_a[ra[ia]], live_b[rb[ib]])
                pairs.append((pts[ra[ia]], pts[rb[ib]], int(m)))
                live_a[ra[ia]] -= m
                live_b[rb[ib]] -= m
                if live_a[ra[ia]] == 0:
                    ia += 1
                if live_b[rb[ib]] == 0:
                    ib += 1
        if not live_a.any() and not live_b.any():
            break
    assert not live_a.any() and not live_b.any()
    return pairs


def depth_greedy_spanning_tree(tree: QuadtreeSpec, X: PointMultiset) -> Pairs:
    """Spanning tree from a DFS walk of the quadtree (children in ascending
    fingerprint order): consecutive points in the walk are joined, and a
    point of multiplicity c to itself c - 1 times."""
    if len(X) < 1:
        raise ValueError("X must be non-empty")
    mx, cx = points_to_matrix(X)
    path = tree.node_path(mx)
    # DFS visit order = lexicographic order of the fingerprint path
    keys = [
        tuple(int(path[r, i, w]) for i in range(1, tree.h + 1) for w in (0, 1))
        for r in range(mx.shape[0])
    ]
    order = sorted(range(mx.shape[0]), key=lambda r: (keys[r], r))
    pts = [HypercubePoint.from_bits(mx[r]) for r in order]
    counts = [int(cx[r]) for r in order]
    edges: Pairs = []
    for j, (p, c) in enumerate(zip(pts, counts)):
        if c > 1:
            edges.append((p, p, c - 1))
        if j + 1 < len(pts):
            edges.append((p, pts[j + 1], 1))
    return edges


def inspector_payment(tree: QuadtreeSpec, pairs: Pairs, C: PointMultiset) -> float:
    """Total charge of the (a, b, multiplicity) pairs against the population
    C, with multiplicity: at every depth i where the nodes of a and b differ,
    each pays its average distance to the population of its depth-(i-1)
    node. a and b must be points of C, so that the averages are over their
    own populations."""
    dec = LevelDecomposition(tree, C)
    row = {HypercubePoint.from_bits(x): r for r, x in enumerate(dec.X)}
    total = 0.0
    for a, b, c in pairs:
        if a not in row or b not in row:
            raise ValueError("point does not belong to the population C")
        payment = 0.0
        for i in range(1, tree.h + 1):
            if dec.group_of[i][row[a]] != dec.group_of[i][row[b]]:
                for r in (row[a], row[b]):
                    pk = dec.bit_fraction(i - 1)[dec.group_of[i - 1][r]]
                    x = dec.X[r].astype(np.float64)
                    payment += float((x * (1.0 - pk) + (1.0 - x) * pk).sum())
        total += c * payment
    return total
