"""Slotted-ALOHA random network simulator on the unit torus.

Nodes are placed i.i.d. uniform on [0,1)^2 with wraparound distances.  Each
slot, every node independently becomes a transmitter with probability p_t and
aims at a uniformly chosen in-range neighbor (isolated nodes idle).  A link
succeeds when its receiver is silent, reception survives interference under
the configured model, and (for directional reception) no second transmitter
targeted the same receiver.

Interference models:
  * pairwise + no fading: per-interferer guard-zone test
    |T_j - R_i| >= (1 + Delta) d_i G*_rx(theta_ij) G*_tx(phi_ji).
  * pairwise + rayleigh: per-interferer SIR test with Exp(1) fades.
  * multi (none | rayleigh): cumulative SIR over all active transmitters,
    plain gains, S_i / sum_k I_ik >= SIR0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from ._parallel import derive_seed, run_indexed
from .analytic import guard_zone
from .patterns import AntennaPattern, omni

MAX_LINK_LENGTH = math.sqrt(2.0) / 2.0

MODELS = ("pairwise", "multi")
FADINGS = ("none", "rayleigh")


@dataclass(frozen=True)
class NetworkConfig:
    n: int
    r: float
    p_t: float
    alpha: float
    sir0: float
    tx_pattern: AntennaPattern
    rx_pattern: AntennaPattern
    model: str = "pairwise"
    fading: str = "none"
    slots: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0.0 < self.r <= MAX_LINK_LENGTH:
            raise ValueError(f"r must lie in (0, sqrt(2)/2], got {self.r}")
        if not 0.0 <= self.p_t <= 0.5:
            raise ValueError(
                f"p_t must lie in [0, 0.5] (optimal region is (0, 1/2]), got {self.p_t}"
            )
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not self.sir0 > 1.0:
            raise ValueError(f"SIR0 must exceed 1, got {self.sir0}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.fading not in FADINGS:
            raise ValueError(f"fading must be one of {FADINGS}, got {self.fading!r}")
        if self.slots < 0:
            raise ValueError(f"slots must be >= 0, got {self.slots}")


def torus_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shortest displacement b - a on the unit torus, componentwise in [-1/2, 1/2]."""
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    return d - np.round(d)


def torus_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    d = torus_delta(a, b)
    return np.sqrt(np.sum(d * d, axis=-1))


@dataclass(frozen=True, eq=False)
class NetworkState:
    """Immutable placement plus derived adjacency and guard-zone constants."""

    positions: np.ndarray  # (n, 2) in [0, 1)^2
    r: float
    k_pr: np.ndarray  # (n,) in-range neighbor counts
    neighbor_offsets: np.ndarray  # CSR offsets, (n + 1,)
    neighbors: np.ndarray  # CSR column indices
    neighbor_dist: np.ndarray  # torus distance per CSR entry
    delta: float
    c1: float

    @property
    def n(self) -> int:
        return len(self.positions)


def _range_pairs(pos: np.ndarray, r: float) -> np.ndarray:
    """All unordered pairs within torus distance r, as an (m, 2) int array."""
    return cKDTree(pos, boxsize=1.0).query_pairs(r, output_type="ndarray")


def generate_network(config: NetworkConfig) -> NetworkState:
    """Place n nodes i.i.d. uniform on the torus and build the in-range adjacency."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    pos = rng.random((config.n, 2))
    pairs = _range_pairs(pos, config.r)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    k_pr = np.bincount(src, minlength=config.n)
    offsets = np.concatenate([[0], np.cumsum(k_pr)])
    dist = torus_distance(pos[src], pos[dst]) if len(src) else np.zeros(0)
    delta, c1 = guard_zone(config.sir0, config.alpha)
    return NetworkState(
        positions=pos,
        r=config.r,
        k_pr=k_pr.astype(np.int64),
        neighbor_offsets=offsets.astype(np.int64),
        neighbors=dst.astype(np.int64),
        neighbor_dist=dist,
        delta=delta,
        c1=c1,
    )


@dataclass(frozen=True, eq=False)
class SlotOutcome:
    """One slot: candidate links (tx -> rx with length d) and their success flags."""

    tx: np.ndarray
    rx: np.ndarray
    d: np.ndarray
    success: np.ndarray


def _gain(pattern: AntennaPattern, boresight, direction, alpha: float, starred: bool):
    """Gain, plain or starred, toward `direction` of `pattern` aimed along
    `boresight` (vectors along the last axis); scalar 1.0 when omni."""
    if pattern.kind == "omni":
        return 1.0
    vx, vy = boresight[..., 0], boresight[..., 1]
    wx, wy = direction[..., 0], direction[..., 1]
    theta = np.arctan2(vx * wy - vy * wx, vx * wx + vy * wy)  # signed angle from v to w
    return pattern.gain_starred(theta, alpha) if starred else pattern.gain(theta)


def _link_gains(state, config, tx, rx, starred):
    """Per (link i, transmitter j) receive/transmit gains from actual geometry.

    Returns (g_rx, g_tx, dist) with shapes (L, L); scalars 1.0 when a side is omni.
    """
    pos = state.positions
    pt, pr = pos[tx], pos[rx]
    disp = torus_delta(pr[:, None, :], pt[None, :, :])  # R_i -> T_j
    dist = np.sqrt(disp[..., 0] ** 2 + disp[..., 1] ** 2)
    back = torus_delta(pr, pt)  # R_i -> T_i, the receiver's boresight
    g_rx = _gain(config.rx_pattern, back[:, None, :], disp, config.alpha, starred)
    # Interferer j aims along T_j -> R_j toward T_j -> R_i.  Both vectors negated
    # (R_j -> T_j and R_i -> T_j) give the same angle, bit for bit.
    g_tx = _gain(config.tx_pattern, back[None, :, :], disp, config.alpha, starred)
    return g_rx, g_tx, dist


def _evaluate_slot(state, config, tx, rx, d, rng) -> np.ndarray:
    """Success flags for all candidate links of one slot under the configured model."""
    n_links = len(tx)
    if n_links == 0:
        return np.zeros(0, dtype=bool)
    # j == T_i (self) and j == R_i are excluded from the interferer set.
    excl = (tx[None, :] == tx[:, None]) | (tx[None, :] == rx[:, None])
    rayleigh = config.fading == "rayleigh"

    if rayleigh:
        uniq, inv = np.unique(rx, return_inverse=True)
        fades = rng.standard_exponential((len(uniq), state.n))
        f_sig = fades[inv, tx]
        f_int = fades[inv[:, None], tx[None, :]]
    else:
        f_sig = 1.0
        f_int = 1.0

    alpha = config.alpha
    if config.model == "pairwise" and not rayleigh:
        g_rx, g_tx, dist = _link_gains(state, config, tx, rx, starred=True)
        ok = dist >= (1.0 + state.delta) * d[:, None] * g_rx * g_tx
    elif config.model == "pairwise":
        g_rx, g_tx, dist = _link_gains(state, config, tx, rx, starred=False)
        ok = f_sig[:, None] * dist**alpha >= config.sir0 * f_int * g_rx * g_tx * (
            d[:, None] ** alpha
        )
    else:
        g_rx, g_tx, dist = _link_gains(state, config, tx, rx, starred=False)
        # dist vanishes at excluded (self/receiver) entries; keep them out of the sum.
        safe = np.where(excl, 1.0, dist)
        term = np.where(excl, 0.0, f_int * g_rx * g_tx) * safe ** (-alpha)
        interference = term.sum(axis=1)
        signal = (f_sig if rayleigh else np.ones(n_links)) * d ** (-alpha)
        return signal >= config.sir0 * interference

    return np.all(ok | excl, axis=1)


def run_slot(state: NetworkState, config: NetworkConfig, slot_seed) -> SlotOutcome:
    """Draw one slot (activation, receiver choice, fades) and evaluate every link.

    Draw order: activation uniforms (n), receiver-choice uniforms (one per
    active non-isolated node), then fade draws when fading is enabled.
    """
    rng = np.random.default_rng(slot_seed)
    transmitting = (rng.random(state.n) < config.p_t) & (state.k_pr > 0)
    tx = np.flatnonzero(transmitting)
    pick = rng.random(len(tx))
    idx = np.minimum((pick * state.k_pr[tx]).astype(np.int64), state.k_pr[tx] - 1)
    sel = state.neighbor_offsets[tx] + idx
    rx = state.neighbors[sel]
    d = state.neighbor_dist[sel]

    success = _evaluate_slot(state, config, tx, rx, d, rng)
    # Half-duplex: a transmitting receiver hears nothing.
    success &= ~transmitting[rx]
    if config.rx_pattern.kind != "omni" and len(rx):
        # No capture under directional reception: a contested receiver loses all.
        success &= np.bincount(rx, minlength=state.n)[rx] < 2
    return SlotOutcome(tx=tx, rx=rx, d=d, success=success)


def pairwise_success(link, active_links, state: NetworkState, config: NetworkConfig) -> bool:
    """Guard-zone test of one link against every other active transmitter.

    `link` and `active_links` entries are (tx_node, rx_node) pairs; the inclusive
    inequality keeps an interferer sitting exactly on the guard boundary harmless.
    """
    ti, ri = link
    pos = state.positions
    d_i = float(torus_distance(pos[ti], pos[ri]))
    scale = (1.0 + state.delta) * d_i
    v1 = torus_delta(pos[ri], pos[ti])
    for tj, rj in active_links:
        if tj == ti or tj == ri:
            continue
        w = torus_delta(pos[ri], pos[tj])
        dist = math.hypot(w[0], w[1])
        y = 1.0
        if config.rx_pattern.kind != "omni":
            theta = math.atan2(v1[0] * w[1] - v1[1] * w[0], v1[0] * w[0] + v1[1] * w[1])
            y = float(config.rx_pattern.gain_starred(theta, config.alpha))
        z = 1.0
        if config.tx_pattern.kind != "omni":
            v2 = torus_delta(pos[tj], pos[rj])
            u = -w
            phi = math.atan2(v2[0] * u[1] - v2[1] * u[0], v2[0] * u[0] + v2[1] * u[1])
            z = float(config.tx_pattern.gain_starred(phi, config.alpha))
        if dist < scale * y * z:
            return False
    return True


def multi_rayleigh_success(
    link, active_links, state: NetworkState, config: NetworkConfig, fades: np.ndarray
) -> bool:
    """Cumulative-SIR test of one link; `fades[k]` is the channel fade between
    the link's receiver and node k (use ones for the no-fading variant)."""
    ti, ri = link
    pos = state.positions
    d_i = float(torus_distance(pos[ti], pos[ri]))
    signal = float(fades[ti]) / d_i**config.alpha
    v1 = torus_delta(pos[ri], pos[ti])
    total = 0.0
    for tk, rk in active_links:
        if tk == ti or tk == ri:
            continue
        w = torus_delta(pos[ri], pos[tk])
        dist = math.hypot(w[0], w[1])
        g_rx = 1.0
        if config.rx_pattern.kind != "omni":
            theta = math.atan2(v1[0] * w[1] - v1[1] * w[0], v1[0] * w[0] + v1[1] * w[1])
            g_rx = float(config.rx_pattern.gain(theta))
        g_tx = 1.0
        if config.tx_pattern.kind != "omni":
            v2 = torus_delta(pos[tk], pos[rk])
            u = -w
            phi = math.atan2(v2[0] * u[1] - v2[1] * u[0], v2[0] * u[0] + v2[1] * u[1])
            g_tx = float(config.tx_pattern.gain(phi))
        total += float(fades[tk]) * g_rx * g_tx / dist**config.alpha
    return signal >= config.sir0 * total


@dataclass(frozen=True)
class BinStat:
    bin_lo: float
    bin_hi: float
    links: int
    successes: int
    p_emp: float
    bound_lo: float
    bound_hi: float


@dataclass(frozen=True)
class ThroughputStats:
    eta_tt: float
    eta_tt_stderr: float
    eta_tr: float
    eta_tr_stderr: float
    slots: int
    bins: tuple[BinStat, ...]
    w_b_effective: float | None


def interference_free_activity_bound(state: NetworkState, p_t: float):
    """Product over nodes of (1 - p_t pi r^2 / k_pr(j)) and its e^(-c4 p_t) floor,
    where c4 = max_j n pi r^2 / k_pr(j) over non-isolated nodes."""
    k = state.k_pr[state.k_pr > 0].astype(float)
    area = math.pi * state.r**2
    product = float(np.prod(np.clip(1.0 - p_t * area / k, 0.0, 1.0)))
    c4 = float(np.max(state.n * area / k)) if len(k) else 0.0
    return product, math.exp(-c4 * p_t), c4


def _success_bounds(state, config, w_eff, edges):
    """Per-bin success-probability bracket from the guard-zone analysis."""
    n, p_t, c1 = state.n, config.p_t, state.c1
    m_prod, _, _ = interference_free_activity_bound(state, p_t)
    lo = (1.0 - p_t) * m_prod * np.clip(
        1.0 - c1 * p_t * edges[1:] ** 2 * w_eff, 0.0, 1.0
    ) ** (n - 2)
    hi = (1.0 - p_t) * np.clip(1.0 - c1 * p_t * edges[:-1] ** 2 * w_eff, 0.0, 1.0) ** (
        n - 2
    )
    return lo, hi


def estimate_throughput(
    state: NetworkState,
    config: NetworkConfig,
    w_b_effective: float | None = None,
    bins: int = 16,
    threads: int = 1,
) -> ThroughputStats:
    """Average throughput over slots, plus a per-link-length success histogram.

    eta_tt counts successes per slot (unit bit rate); eta_tr sums the successful
    link lengths.  When `w_b_effective` is given (W_B for omni reception,
    W_B(rx) * W_B(tx) for directional reception) each length bin also carries the
    analytic success-probability bracket for comparison.
    """
    if config.slots < 1:
        raise ValueError("config.slots must be >= 1 to estimate throughput")
    edges = np.linspace(0.0, state.r, bins + 1)

    def one_slot(t: int):
        out = run_slot(state, config, np.random.SeedSequence([config.seed, 1, t]))
        b = np.minimum((out.d / state.r * bins).astype(np.int64), bins - 1)
        return (
            int(out.success.sum()),
            float(out.d[out.success].sum()),
            np.bincount(b, minlength=bins),
            np.bincount(b[out.success], minlength=bins),
        )

    results = run_indexed(one_slot, config.slots, threads)
    succ = np.array([r[0] for r in results], dtype=float)
    dsum = np.array([r[1] for r in results])
    attempts = sum(r[2] for r in results)
    wins = sum(r[3] for r in results)

    def mean_se(x):
        se = float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
        return float(np.mean(x)), se

    eta_tt, eta_tt_se = mean_se(succ)
    eta_tr, eta_tr_se = mean_se(dsum)

    bin_stats = []
    if w_b_effective is not None:
        lo, hi = _success_bounds(state, config, w_b_effective, edges)
        for b in range(bins):
            links = int(attempts[b])
            bin_stats.append(
                BinStat(
                    bin_lo=float(edges[b]),
                    bin_hi=float(edges[b + 1]),
                    links=links,
                    successes=int(wins[b]),
                    p_emp=float(wins[b] / links) if links else math.nan,
                    bound_lo=float(lo[b]),
                    bound_hi=float(hi[b]),
                )
            )
    return ThroughputStats(
        eta_tt=eta_tt,
        eta_tt_stderr=eta_tt_se,
        eta_tr=eta_tr,
        eta_tr_stderr=eta_tr_se,
        slots=config.slots,
        bins=tuple(bin_stats),
        w_b_effective=w_b_effective,
    )


def total_throughput_rule(n: int) -> tuple[float, float]:
    """(p_t, r) choice maximizing total throughput: p_t = 1/2, r at the connectivity floor."""
    return 0.5, math.sqrt(math.log(n) / n)


@dataclass(frozen=True)
class CurvePoint:
    n: int
    p_t: float
    r: float
    eta_tt: float
    eta_tt_stderr: float
    eta_tr: float
    eta_tr_stderr: float


def capacity_curve(
    config: NetworkConfig, n_list, param_rule=total_throughput_rule, threads: int = 1
) -> list[CurvePoint]:
    """Throughput versus network size, with (p_t, r) set per n by `param_rule`."""
    n_list = [int(n) for n in n_list]
    if n_list != sorted(n_list):
        raise ValueError("n_list must be increasing")
    points = []
    for n in n_list:
        p_t, r = param_rule(n)
        cfg = replace(config, n=n, p_t=p_t, r=r, seed=derive_seed(config.seed, 4, n))
        state = generate_network(cfg)
        stats = estimate_throughput(state, cfg, threads=threads)
        points.append(
            CurvePoint(
                n=n,
                p_t=p_t,
                r=r,
                eta_tt=stats.eta_tt,
                eta_tt_stderr=stats.eta_tt_stderr,
                eta_tr=stats.eta_tr,
                eta_tr_stderr=stats.eta_tr_stderr,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Fixed-link estimation: the conditional success probability of one designated
# link, with every other node behaving per the ALOHA protocol.  This realizes
# the per-link success law directly (no conflict rule; omni reception handles
# a contested receiver through geometry, where the contender points straight
# at it).
# ---------------------------------------------------------------------------

_CHUNK = 1 << 14


def _forced_link_tables(state, config, tx_node, rx_node):
    """Per (node k, receiver choice m) interference factors toward rx_node.

    Returns eligible node ids, CSR offsets, and flat arrays:
      plain[k, m]   = G_rx(theta_ik) * G_tx(phi_ki) / dist(k, R_i)^alpha
      starred[k, m] = dist(k, R_i) - (1+Delta) d_i G*_rx G*_tx  (>= 0 means harmless)
    """
    pos = state.positions
    ri, ti = pos[rx_node], pos[tx_node]
    d_i = float(torus_distance(ti, ri))
    v1 = torus_delta(ri, ti)

    nodes = np.array(
        [k for k in range(state.n) if k not in (tx_node, rx_node) and state.k_pr[k] > 0],
        dtype=np.int64,
    )
    counts = state.k_pr[nodes]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    ks = np.repeat(nodes, counts)
    ms = np.concatenate(
        [
            state.neighbors[state.neighbor_offsets[k] : state.neighbor_offsets[k] + state.k_pr[k]]
            for k in nodes
        ]
    ) if len(nodes) else np.zeros(0, dtype=np.int64)

    w = torus_delta(ri, pos[ks])  # R_i -> k
    dist = np.sqrt(w[:, 0] ** 2 + w[:, 1] ** 2)
    u = -w  # k -> R_i
    v2 = torus_delta(pos[ks], pos[ms])  # k -> chosen receiver m

    alpha = config.alpha
    g_rx = _gain(config.rx_pattern, v1, w, alpha, starred=False)
    g_tx = _gain(config.tx_pattern, v2, u, alpha, starred=False)
    plain = g_rx * g_tx * dist ** (-alpha) * np.ones(len(ks))

    gs_rx = _gain(config.rx_pattern, v1, w, alpha, starred=True)
    gs_tx = _gain(config.tx_pattern, v2, u, alpha, starred=True)
    starred = dist - (1.0 + state.delta) * d_i * gs_rx * gs_tx * np.ones(len(ks))
    return nodes, offsets, plain, starred, d_i


def link_success_probability(
    state: NetworkState,
    config: NetworkConfig,
    tx_node: int,
    rx_node: int,
    slots: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical success rate of the designated link over `slots` trials.

    The designated transmitter is active toward rx_node every slot; all other
    nodes activate, aim, and fade per the protocol.  Returns (p_hat, stderr).
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    nodes, offsets, plain, starred, d_i = _forced_link_tables(state, config, tx_node, rx_node)
    counts = state.k_pr[nodes].astype(np.int64)
    base = offsets[:-1]
    rayleigh = config.fading == "rayleigh"
    pairwise = config.model == "pairwise"
    sir_d = config.sir0 * d_i**config.alpha
    rx_can_transmit = state.k_pr[rx_node] > 0

    hits = 0
    done = 0
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 5]))
    while done < slots:
        c = min(_CHUNK, slots - done)
        rx_busy = (rng.random(c) < config.p_t) & rx_can_transmit
        zeta = rng.random((c, len(nodes))) < config.p_t
        pick = np.minimum(
            (rng.random((c, len(nodes))) * counts).astype(np.int64), counts - 1
        )
        if rayleigh:
            f_int = rng.standard_exponential((c, len(nodes)))
            f_sig = rng.standard_exponential(c)
        else:
            f_int = np.ones((c, len(nodes)))
            f_sig = np.ones(c)

        sel = base[None, :] + pick
        if pairwise and not rayleigh:
            clear = np.all(~zeta | (starred[sel] >= 0.0), axis=1)
        elif pairwise:
            ok = f_sig[:, None] >= sir_d * plain[sel] * f_int
            clear = np.all(~zeta | ok, axis=1)
        else:
            interference = np.sum(zeta * f_int * plain[sel], axis=1)
            clear = f_sig >= sir_d * interference
        hits += int(np.count_nonzero(clear & ~rx_busy))
        done += c

    p = hits / slots
    return p, math.sqrt(p * (1.0 - p) / slots)


def multi_rayleigh_prediction(
    state: NetworkState, config: NetworkConfig, tx_node: int, rx_node: int
) -> float:
    """Exact product-form success probability of the designated link under the
    cumulative-interference Rayleigh model.

    Each node's exceedance factor is (1 - p_t) + p_t * mean_m 1/(1 + SIR0 d_i^alpha
    * g(k, m)), the fade-ratio law Pr(F1 >= c F2) = 1/(1 + c) averaged over k's
    receiver choices; the prediction is their product times Pr(receiver silent).
    """
    if config.model != "multi" or config.fading != "rayleigh":
        raise ValueError("prediction applies to the multi + rayleigh model only")
    nodes, offsets, plain, _, d_i = _forced_link_tables(state, config, tx_node, rx_node)
    sir_d = config.sir0 * d_i**config.alpha
    pred = (1.0 - config.p_t) if state.k_pr[rx_node] > 0 else 1.0
    for j in range(len(nodes)):
        row = plain[offsets[j] : offsets[j + 1]]
        factor = (1.0 - config.p_t) + config.p_t * float(np.mean(1.0 / (1.0 + sir_d * row)))
        pred *= factor
    return pred
