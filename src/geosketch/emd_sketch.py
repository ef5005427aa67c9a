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

State discipline: each level replica stores one `SparseCounts` -- exact
integer counts per universe-reduced node (u, w) (|A_v|, |B_v|, and per
character set the positive-parity count) -- and seeds; an update adds one
row to that store and writes nothing else. Every sketch of the level is a
view of it, built in canonical order when it is read: the LS1/LS2/LS3
Count-Sketch tables, the Delta-hat Cauchy sketch and the round-one l1
samplers (both of the node discrepancy q_v = |A_v| - |B_v|). By linearity
the result is identical to eager per-update accumulation, but states merge
and replay bit-for-bit. Node ids are uint64 throughout. `state_bytes` is
`encode_state` of the replica stores: the counts and the shape words,
nothing derived.

Repetition counts are configuration. Paper-rate defaults (log-power laws) are
provided for reference but are far too heavy for interactive use; the desk
profile keeps end-to-end runs at seconds while exercising every stage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import hashing as hx
from .hashing import U64
from .points import HypercubePoint, PointMultiset, hamming_matrix
from .quadtree import QuadtreeSpec, sample_quadtree
from .offline import _decompose_pair
from .sketches import (
    FAIL,
    CauchyL1Sketch,
    L1Sampler,
    SparseCounts,
    _cs_coords,
    _cs_estimates,
    _cs_table,
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

    def eval_value(self, packed: int) -> int:
        return -1 if (self.mask & packed).bit_count() & 1 else 1

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
        return hx.combine(self.seed, salt, fp[:, 0], fp[:, 1]) % U64(self.m)

    def u_of(self, fp: np.ndarray) -> np.ndarray:
        """Parent ids in [m]; fp is a (n, 2) uint64 fingerprint array."""
        return self._ids(self._SALT_U, fp)

    def w_of(self, fp: np.ndarray) -> np.ndarray:
        """Child slot ids in [m]."""
        return self._ids(self._SALT_W, fp)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


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
        if self.universe_m == 0:
            self.universe_m = default_universe_m(self.n)

    @property
    def L(self) -> int:
        return log2n(self.n)

    @property
    def tau(self) -> float:
        return 1.0 / self.L**3

    @property
    def gamma(self) -> float:
        return self.tau / self.L

    @property
    def beta(self) -> int:
        return math.ceil(self.L**5 / (self.eps * self.tau * self.gamma**3))

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
            n_rounds=L**6,  # O(1/tau^2)
            n_medreps=max(1, 3 * math.ceil(math.log2(L**3))),
            ls1_reps=L**9,  # O(log n / gamma^2)
        )

    def to_json(self) -> str:
        return json.dumps({"kind": "emd-config", "version": 1, **asdict(self)})

    @classmethod
    def from_json(cls, s: str) -> "EmdSketchConfig":
        obj = json.loads(s)
        if obj.pop("kind", None) != "emd-config" or obj.pop("version", None) != 1:
            raise ValueError("not a serialized EMD sketch config")
        return cls(**obj)


# ---------------------------------------------------------------------------
# per-level replica state
# ---------------------------------------------------------------------------


class _LevelReplica:
    """Exact sparse counts for one (level, replica): per universe-reduced
    node (u, w): net |A_v|, net |B_v|, and per character set the count of
    C_v points with chi = +1. The Delta-hat sketch and the round-one
    samplers are views of the discrepancy column of these counts."""

    def __init__(self, cfg: EmdSketchConfig, level: int, seed: int):
        self.cfg = cfg
        self.level = level
        self.seed = seed
        self.umap = UniverseMap(cfg.universe_m, int(hx.combine(seed, 0xD1)[()]))
        self.charsets = [
            CharacterSet(cfg.d, cfg.alpha(level), int(hx.combine(seed, 0xC4, j)[()]))
            for j in range(cfg.n_sets)
        ]
        self.counts = SparseCounts(2 + cfg.n_sets)
        self.sampled: Dict[Tuple[int, int], object] = {}
        self.pass2_counters: Dict[Tuple[int, int], np.ndarray] = {}

    # -- streaming ----------------------------------------------------------
    def node_key(self, fp_path: np.ndarray) -> Tuple[int, int]:
        u = int(self.umap.u_of(fp_path[self.level - 1][None, :])[0])
        w = int(self.umap.w_of(fp_path[self.level][None, :])[0])
        return u, w

    def point_row(self, chi_plus: np.ndarray, label: str) -> np.ndarray:
        """The count row of one point: [1{A}, 1{B}, chi_plus per set]."""
        row = np.zeros(2 + self.cfg.n_sets, dtype=np.int64)
        row[0 if label == "A" else 1] = 1
        row[2:] = chi_plus
        return row

    def update(self, key: Tuple[int, int], row: np.ndarray, delta: int) -> None:
        """Add delta times a point's count row (`point_row`) at node key."""
        self.counts.add(key, delta * row)

    def update_pass2(self, key: Tuple[int, int], chi_plus: np.ndarray, delta: int) -> None:
        for (j, c), v in self.sampled.items():
            if v is FAIL:
                continue
            ctr = self.pass2_counters[(j, c)]
            if key[0] == v[0]:
                ctr[0] += delta
                ctr[1] += delta * int(chi_plus[j])
                if key[1] == v[1]:
                    ctr[2] += delta
                    ctr[3] += delta * int(chi_plus[j])

    def discrepancies(self) -> SparseCounts:
        """The node discrepancies q_v = |A_v| - |B_v| as a count store: the
        vector that Delta-hat and the round-one samplers sketch."""
        q = np.zeros((self.counts.width, 1), dtype=np.int64)
        q[0], q[1] = 1, -1
        return self.counts.image(q)

    @property
    def delta_sketch(self) -> CauchyL1Sketch:
        """The Delta-hat Cauchy l1 sketch of q, built from the counts."""
        sk = CauchyL1Sketch(self.cfg.delta_rows, int(hx.combine(self.seed, 0xDE)[()]))
        return sk.with_counts(self.discrepancies())

    @property
    def samplers(self) -> Dict[Tuple[int, int], L1Sampler]:
        """The round-one l1 sampler of q per (set, inner copy), built from
        the counts."""
        q, cfg = self.discrepancies(), self.cfg
        return {
            (j, c): L1Sampler(
                int(hx.combine(self.seed, 0x2A, j, c)[()]),
                rows=cfg.cs_rows,
                buckets=cfg.sampler_buckets,
                gamma=cfg.sampler_gamma,
            ).with_counts(q)
            for j in range(cfg.n_sets)
            for c in range(cfg.n_inner)
        }

    def finalize_pass1(self) -> None:
        self.sampled = {jc: smp.sample() for jc, smp in self.samplers.items()}
        self.pass2_counters = {
            jc: np.zeros(4, dtype=np.int64)
            for jc, v in self.sampled.items()
            if v is not FAIL
        }

    # -- decode ---------------------------------------------------------------
    def vectors(self):
        """Canonical arrays (u, w, qv, cC, splus[(node, set)]) of the state."""
        keys, rows = self.counts.sorted()
        u = np.array([k[0] for k in keys], dtype=U64)
        w = np.array([k[1] for k in keys], dtype=U64)
        qv = rows[:, 0] - rows[:, 1]
        cC = rows[:, 0] + rows[:, 1]
        return u, w, qv, cC, rows[:, 2:]

    def decoder(self, j: int = 0, c: int = 0, r: int = 0, m: int = 0,
                t_u=None, t_v=None) -> "_OneRoundDecoder":
        """Standalone LS1/LS2/LS3 decoder over the current state (used by
        tests that condition on explicit exponential scalings)."""
        u, w, qv, cC, splus = self.vectors()
        uu, u_inv = np.unique(u, return_inverse=True)
        hk_u = hx.combine(self.seed, 0xAB, uu)
        hk_v = hx.combine(self.seed, 0xAC, u, w)
        return _OneRoundDecoder(
            self, j, c, r, m, uu, u_inv, hk_u, hk_v, qv, cC, splus[:, j], t_u, t_v
        )

    def one_round_estimates(self) -> List[float]:
        """All inner estimates of E_v[p_{pi(v),v,S_j}], grouped per set:
        returns per set j the median over inner copies, where each copy is the
        mean over rounds of medians over LS-triple repetitions."""
        u, w, qv, cC, splus = self.vectors()
        cfg = self.cfg
        if len(u) == 0:
            return [0.0] * cfg.n_sets
        uu, u_inv = np.unique(u, return_inverse=True)
        hk_u = hx.combine(self.seed, 0xAB, uu)
        hk_v = hx.combine(self.seed, 0xAC, u, w)

        out: List[float] = []
        for j in range(cfg.n_sets):
            copies = []
            for c in range(cfg.n_inner):
                rounds = []
                for r in range(cfg.n_rounds):
                    meds = []
                    for m in range(cfg.n_medreps):
                        dec = _OneRoundDecoder(
                            self, j, c, r, m, uu, u_inv, hk_u, hk_v, qv, cC, splus[:, j]
                        )
                        u_star = dec.ls1()
                        v_star = dec.ls2(u_star)
                        meds.append(dec.ls3(v_star))
                    rounds.append(float(np.median(meds)))
                copies.append(float(np.mean(rounds)))
            out.append(float(np.median(copies)))
        return out

    def two_round_estimates(self) -> List[Optional[float]]:
        """Per set j: mean of the exact per-sample p values over successful
        inner copies (None when every copy failed)."""
        out: List[Optional[float]] = []
        for j in range(self.cfg.n_sets):
            vals = []
            for c in range(self.cfg.n_inner):
                v = self.sampled.get((j, c), FAIL)
                if v is FAIL:
                    continue
                cu, cup, cv, cvp = self.pass2_counters[(j, c)].tolist()
                if cu <= 0 or cv <= 0:
                    vals.append(0.0)
                    continue
                quu, qvv = cup / cu, cvp / cv
                vals.append(quu * (1 - qvv) + qvv * (1 - quu))
            out.append(float(np.mean(vals)) if vals else None)
        return out

    def eta(self, mode: str) -> float:
        """Level estimate: 3 Delta-hat / alpha * (avg_j eta_j + 1/(8 log^2 n)),
        with the one-pass zero branch below the Delta threshold."""
        cfg = self.cfg
        delta_hat = self.delta_sketch.estimate()
        if mode == "one_pass":
            if delta_hat < cfg.delta_threshold():
                return 0.0
            etas = self.one_round_estimates()
        else:
            if delta_hat == 0.0:
                return 0.0
            etas_opt = self.two_round_estimates()
            etas = [e for e in etas_opt if e is not None]
            if not etas:
                etas = [0.0]
        avg = float(np.mean(etas))
        return (3.0 * delta_hat / cfg.alpha(self.level)) * (avg + 1.0 / (8.0 * cfg.L**2))


class _OneRoundDecoder:
    """LS1/LS2/LS3 decode for one (set, copy, round, repetition)."""

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
        self._fp_cache: Dict[int, np.ndarray] = {}
        self._row_cache: Dict[Tuple[int, int, str], np.ndarray] = {}
        self.n_a = 0
        self.n_b = 0

    def _path(self, point: HypercubePoint) -> np.ndarray:
        fp = self._fp_cache.get(point.value)
        if fp is None:
            fp = self.tree.node_path(point.bits()[None, :])[0]
            self._fp_cache[point.value] = fp
        return fp

    def _row(self, rep: _LevelReplica, point: HypercubePoint, label: str) -> np.ndarray:
        """The point's count row in rep (cached per replica, point, label)."""
        key = (id(rep), point.value, label)
        v = self._row_cache.get(key)
        if v is None:
            chi = [1 if cs.eval_value(point.value) == 1 else 0 for cs in rep.charsets]
            v = self._row_cache[key] = rep.point_row(chi, label)
        return v

    def _apply(self, point: HypercubePoint, label: str, delta: int, pass2: bool) -> None:
        if label not in ("A", "B"):
            raise ValueError(f"label must be 'A' or 'B', got {label!r}")
        if not pass2:
            if label == "A":
                self.n_a += delta
            else:
                self.n_b += delta
        fp_path = self._path(point)
        for per_level in self.replicas:
            for rep in per_level:
                key = rep.node_key(fp_path)
                row = self._row(rep, point, label)
                if pass2:
                    rep.update_pass2(key, row[2:], delta)
                else:
                    rep.update(key, row, delta)

    def _check_balanced(self) -> None:
        if self.n_a != self.n_b:
            raise ValueError(
                f"stream does not encode equal-size multisets: |A|={self.n_a}, |B|={self.n_b}"
            )


class EmdOnePassSketch(_EmdSketchBase):
    """One-pass estimator: eta = sum_i median-of-replicas eta_i + eps*n*d."""

    def __init__(self, cfg: EmdSketchConfig, tree: Optional[QuadtreeSpec] = None):
        super().__init__(cfg, tree)

    def update(self, point: HypercubePoint, label: str, delta: int = 1) -> None:
        self._apply(point, label, delta, pass2=False)

    def merge(self, other: "EmdOnePassSketch") -> None:
        if self.cfg != other.cfg:
            raise ValueError("cannot merge sketches with different configs")
        self.n_a += other.n_a
        self.n_b += other.n_b
        for mine, theirs in zip(self.replicas, other.replicas):
            for a, b in zip(mine, theirs):
                a.counts.merge(b.counts)

    def estimate(self) -> float:
        self._check_balanced()
        total = 0.0
        for per_level in self.replicas:
            total += float(np.median([rep.eta("one_pass") for rep in per_level]))
        return total + self.cfg.eps * self.n_a * self.cfg.d

    def state_bytes(self) -> bytes:
        """`encode_state` of every replica's counts, level by level (the
        round-two state of a two-pass sketch is not included)."""
        cfg = self.cfg
        return encode_state(
            self._KIND,
            (cfg.seed, cfg.d, cfg.universe_m, cfg.level_reps, cfg.n_sets),
            [rep.counts for per_level in self.replicas for rep in per_level],
        )


class EmdTwoPassSketch(_EmdSketchBase):
    """Two-pass estimator: round 1 samples nodes ~ discrepancy, round 2 reads
    the four exact chi counters for each sampled edge; no additive eps term."""

    def __init__(self, cfg: EmdSketchConfig, tree: Optional[QuadtreeSpec] = None):
        super().__init__(cfg, tree)
        self._pass = 1

    def update(self, point: HypercubePoint, label: str, delta: int = 1) -> None:
        if self._pass != 1:
            raise RuntimeError("pass 1 is finalized; use update_pass2()")
        self._apply(point, label, delta, pass2=False)

    def finalize_pass1(self) -> None:
        self._check_balanced()
        for per_level in self.replicas:
            for rep in per_level:
                rep.finalize_pass1()
        self._pass = 2

    def update_pass2(self, point: HypercubePoint, label: str, delta: int = 1) -> None:
        if self._pass != 2:
            raise RuntimeError("call finalize_pass1() first")
        self._apply(point, label, delta, pass2=True)

    def estimate(self) -> float:
        if self._pass != 2:
            raise RuntimeError("call finalize_pass1() and feed pass 2 first")
        total = 0.0
        for per_level in self.replicas:
            total += float(np.median([rep.eta("two_pass") for rep in per_level]))
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
