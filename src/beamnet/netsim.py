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

One linked-cell search (Allen and Tildesley, 1987) finds the points within a
radius on the torus, for the network build and the guard-zone slots alike.  It
bins points by (key, cell) on a g x g torus grid of cells wider than the largest
reach R: g = int(1/R), at most sqrt(n) so that the (key, cell) table stays within
the pair budget, and 1 when that is below 3.  A point within R of a query then
lies in the 3 x 3 cells (wrapped) around the query's.  The network build queries
nodes in runs of _PAIR_BUDGET // n.

Cost of a slot with L links among n nodes.  Slots are drawn a window at a
time, then evaluated in blocks of whole slots of at most cap = _PAIR_BUDGET // n
links in all, taken in order of L so that slots of equal L share a block.  A
slot of more than cap links is a block of its own, evaluated in runs of whole
receivers of at most cap links (a receiver with more links forms its own run).
Either way a block holds O(_PAIR_BUDGET + n) memory whatever L is, and the
window's draws O(_PAIR_BUDGET).  Links already lost (the receiver transmits or,
under directional reception, is contested) are not evaluated.
  * pairwise + no fading has an exact cutoff, the protocol-model locality of
    Gupta and Kumar (2000): since G* <= 1, transmitter j can break link i only
    within (1 + Delta) d_i of R_i.  A block's transmitters are searched keyed by
    slot, so a live receiver meets only its slot's transmitters in the 3 x 3
    cells around its own, and only those within its reach (taken by one index
    array, as most candidates are not) are tested: O(L + pairs in those cells)
    time per slot, in NumPy arrays alone.  The
    receive gain comes first: since G*_tx <= 1, a pair at or beyond
    (1 + Delta) d_i G*_rx cannot break the link, so the transmit gain is
    computed only for the pairs nearer than that.
  * the other three models have no cutoff (a fade, or the sum, lets any
    transmitter matter), so every (link, transmitter) pair is evaluated:
    O(L^2) time.  Pairwise + Rayleigh first tests each pair with both gains
    set to 1, which bounds its test since G <= 1, and computes gains only for
    the pairs that fail it.  The rows of all slots with the same L stack into one
    (rows, L) array, so each row's sum is NumPy's pairwise sum of the same L
    terms in the same order as for the slot alone, bit for bit (a flat ragged
    layout summed by np.add.reduceat or np.bincount is not).  Each such group
    is evaluated in runs of at most _BLOCK // L rows (patterns._BLOCK = 2^14
    pairs, the library's one cache-block size), so that a run's temporaries
    stay in cache while _PAIR_BUDGET bounds the block.  Rayleigh fades
    are rows of each slot's (unique rx) x L matrix, one Exp(1) fade per
    (receiver, transmitter) pair, drawn from the slot's own generator when its
    block or run is evaluated: the same stream as one draw of the whole matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._parallel import derive_seed, run_indexed
from .analytic import MAX_LINK_LENGTH, check_sir0, guard_zone, total_throughput_rule
from .patterns import _BLOCK, AntennaPattern, check_alpha, omni

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
        check_alpha(self.alpha)
        check_sir0(self.sir0)
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.fading not in FADINGS:
            raise ValueError(f"fading must be one of {FADINGS}, got {self.fading!r}")
        if self.slots < 0:
            raise ValueError(f"slots must be >= 0, got {self.slots}")


@dataclass(frozen=True, eq=False)
class NetworkState:
    """Immutable placement and its in-range adjacency, a function of (n, r, seed).
    Every call takes the model, the guard zone (Delta, c1) included, from its
    config, so one placement may be evaluated under several configs."""

    positions: np.ndarray  # (n, 2) in [0, 1)^2
    r: float
    k_pr: np.ndarray  # (n,) in-range neighbor counts
    neighbor_offsets: np.ndarray  # CSR offsets, (n + 1,)
    neighbors: np.ndarray  # CSR column indices
    neighbor_dist: np.ndarray  # torus distance per CSR entry

    @property
    def n(self) -> int:
        return len(self.positions)


# Pairs (link, node) held at once by one block of links; bounds a slot's memory.
_PAIR_BUDGET = 1 << 20
# Added to the largest reach a cell grid is sized for.  Coordinates lie in [0, 1), so
# rounding moves a point's cell or its _displacement length by ~1e-15, far below this.
_REACH_PAD = 1e-9


def _displacement(ax, ay, bx, by):
    """The shortest displacement b - a on the unit torus, componentwise in [-1/2, 1/2],
    and its length: (x, y, length), elementwise over broadcast components.  The one
    torus geometry routine of the network build, the slots and the fixed-link tables."""
    wx, wy = bx - ax, by - ay
    wx -= np.round(wx)
    wy -= np.round(wy)
    dist = wx * wx  # wx**2, bit for bit
    dist += wy * wy
    np.sqrt(dist, out=dist)
    return wx, wy, dist


def _cell_search(points, queries, key, reach, n: int):
    """The linked-cell search (module docstring) over points and queries indexed
    alike: point j at points[:, j], query i at queries[:, i], both of key key[i].
    Returns near(i): for a nonempty array of queries i, every (i, j, w) with j != i,
    key[j] == key[i] and w = _displacement(query i, point j) of length w[2] <= reach[i].
    The candidates of the 3 x 3 cells that pass are taken by one index array, built
    once and applied to i, j and the three components of w.
    """
    (px, py), (qx, qy) = points, queries
    g = min(int(1.0 / (float(reach.max()) + _REACH_PAD)), math.isqrt(n))
    g = g if g >= 3 else 1
    steps = np.arange(-1, 2) if g > 1 else np.arange(1)

    def cell(x):
        return np.minimum((x * g).astype(np.int64), g - 1)

    # Points by (key, cell x, cell y): those of cell c are order[cell_at[c] : cell_at[c + 1]].
    pcell = (key * g + cell(px)) * g + cell(py)
    order = np.argsort(pcell, kind="stable")
    cell_at = np.searchsorted(pcell[order], np.arange((int(key.max()) + 1) * g * g + 1))
    qcx, qcy = cell(qx), cell(qy)

    def near(i):
        # Each query's (query, cell) runs of cell_at over the 3 x 3 cells (wrapped).
        cx = (qcx[i, None, None] + steps[:, None]) % g
        cy = (qcy[i, None, None] + steps) % g
        c = ((key[i, None, None] * g + cx) * g + cy).ravel()
        lo = cell_at[c]
        count = cell_at[c + 1] - lo
        ends = np.cumsum(count)
        j = order[np.repeat(lo - (ends - count), count) + np.arange(ends[-1])]
        i = np.repeat(i, count.reshape(len(i), -1).sum(axis=1))
        w = _displacement(qx[i], qy[i], px[j], py[j])
        keep = np.flatnonzero((j != i) & (w[2] <= reach[i]))
        return i[keep], j[keep], tuple(a[keep] for a in w)

    return near


def generate_network(config: NetworkConfig) -> NetworkState:
    """Place n nodes i.i.d. uniform on the torus and build the in-range adjacency.
    Reads only config.n, config.r and config.seed."""
    n = config.n
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    pos = rng.random((n, 2))
    near = _cell_search(pos.T, pos.T, np.zeros(n, dtype=np.int64), np.full(n, config.r), n)
    step = max(1, _PAIR_BUDGET // n)
    runs = [(i, j, w[2]) for i, j, w in map(near, np.split(np.arange(n), range(step, n, step)))]
    src, dst, dist = (np.concatenate(a) for a in zip(*runs))
    order = np.lexsort((dst, src))
    src, dst, dist = src[order], dst[order], dist[order]
    k_pr = np.bincount(src, minlength=n)
    offsets = np.concatenate([[0], np.cumsum(k_pr)])
    return NetworkState(
        positions=pos,
        r=config.r,
        k_pr=k_pr.astype(np.int64),
        neighbor_offsets=offsets.astype(np.int64),
        neighbors=dst.astype(np.int64),
        neighbor_dist=dist,
    )


@dataclass(frozen=True, eq=False)
class SlotOutcome:
    """One slot: candidate links (tx -> rx with length d) and their success flags."""

    tx: np.ndarray
    rx: np.ndarray
    d: np.ndarray
    success: np.ndarray


@dataclass(frozen=True, eq=False)
class _SlotDraw:
    """A drawn slot: its candidate links, the live ones among them (those that
    only interference can still break), and the slot's generator, positioned at
    its fade draws."""

    tx: np.ndarray
    rx: np.ndarray
    d: np.ndarray
    live: np.ndarray
    rng: np.random.Generator


def _gain(pattern: AntennaPattern, boresight, direction, alpha: float, starred: bool,
          lengths):
    """Gain, plain or starred, toward `direction` of `pattern` aimed along
    `boresight` (each vector an (x, y) pair of component arrays, or an array
    whose first axis is the component); scalar 1.0 when omni.

    An array pattern depends on the angle only through its sine, taken as
    cross / (|boresight| |direction|) with `lengths` the pair of norms.
    """
    if pattern.kind == "omni":
        return 1.0
    (vx, vy), (wx, wy) = boresight, direction
    cross = vx * wy - vy * wx
    if pattern.kind == "array":
        g = pattern.gain_from_sine(cross / (lengths[0] * lengths[1]))
    else:
        g = pattern.gain(np.arctan2(cross, vx * wx + vy * wy))  # signed angle from v to w
    return np.power(g, 1.0 / alpha) if starred else g


def _draw_slots(state: NetworkState, config: NetworkConfig, seeds) -> list[_SlotDraw]:
    """Draw one slot per seed, each from its own generator: activation uniforms
    (n), then receiver-choice uniforms (one per active non-isolated node).  A
    slot's fades are drawn when it is evaluated."""
    can_send = state.k_pr > 0
    sending = np.empty((len(seeds), state.n), dtype=bool)  # the (slots x n) activity table
    rngs, picks = [], []
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        np.less(rng.random(state.n), config.p_t, out=sending[k])
        sending[k] &= can_send
        picks.append(rng.random(np.count_nonzero(sending[k])))
        rngs.append(rng)
    slot, tx = np.nonzero(sending)  # by slot, then transmitter id ascending
    pick = np.concatenate(picks)
    idx = np.minimum((pick * state.k_pr[tx]).astype(np.int64), state.k_pr[tx] - 1)
    sel = state.neighbor_offsets[tx] + idx
    rx = state.neighbors[sel]
    # Half-duplex: a transmitting receiver hears nothing.
    live = ~sending[slot, rx]
    if config.rx_pattern.kind != "omni":
        # No capture under directional reception: a contested receiver loses all.
        _, inv, count = np.unique(slot * state.n + rx, return_inverse=True, return_counts=True)
        live &= count[inv] < 2
    d = state.neighbor_dist[sel]
    ends = np.cumsum([len(p) for p in picks]).tolist()
    return [
        _SlotDraw(tx=tx[a:b], rx=rx[a:b], d=d[a:b], live=live[a:b], rng=rng)
        for a, b, rng in zip([0] + ends, ends, rngs)
    ]


def _evaluate_slots(state, config, slots) -> list[np.ndarray]:
    """Success flags of each drawn slot in `slots`, evaluated together as one block
    in runs of whole receivers, as the module docstring describes."""
    sizes = np.array([len(s.tx) for s in slots], dtype=np.int64)
    first = np.concatenate([[0], np.cumsum(sizes)])  # each slot's first link
    if first[-1] == 0:
        return [np.zeros(0, dtype=bool) for _ in slots]
    slot = np.repeat(np.arange(len(slots)), sizes)  # each link's slot
    tx = np.concatenate([s.tx for s in slots])
    rx = np.concatenate([s.rx for s in slots])
    d = np.concatenate([s.d for s in slots])
    live = np.concatenate([s.live for s in slots])
    success = np.zeros(len(tx), dtype=bool)
    pos = state.positions
    alpha = config.alpha
    rayleigh = config.fading == "rayleigh"
    guard_only = config.model == "pairwise" and not rayleigh
    # Per link, by component (so that the long axis of a pair array is innermost):
    # T_i, R_i and R_i -> T_i, the receiver's boresight, of length d_i.
    t_x, t_y = pos[tx].T
    r_x, r_y = pos[rx].T
    b_x, b_y, _ = _displacement(r_x, r_y, t_x, t_y)

    def gains(i, jbx, jby, jd, w, starred):
        """(g_rx, g_tx) of link i against transmitter j, whose link has boresight
        (jbx, jby) and length jd, where w = _displacement(R_i, T_j); a gain is
        scalar 1.0 when its side is omni."""
        wx, wy, dist = w
        g_rx = _gain(config.rx_pattern, (b_x[i], b_y[i]), (wx, wy), alpha, starred, (d[i], dist))
        # Interferer j aims along T_j -> R_j toward T_j -> R_i.  Both vectors negated
        # (R_j -> T_j and R_i -> T_j) give the same angle, bit for bit.
        g_tx = _gain(config.tx_pattern, (jbx, jby), (wx, wy), alpha, starred, (jd, dist))
        return g_rx, g_tx

    if guard_only:
        # Interferer j can break link i only within (1+Delta) d_i G*_rx G*_tx
        # <= (1+Delta) d_i of R_i, since G* <= 1 and rounding is monotone.
        reach = (1.0 + guard_zone(config.sir0, alpha)[0]) * d
        near = _cell_search((t_x, t_y), (r_x, r_y), slot, reach, state.n)

    # Receivers are keyed by (slot, receiver id), ascending; runs take whole keys.
    keys, inv = np.unique(slot * state.n + rx, return_inverse=True)
    order = np.argsort(inv, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(inv))])  # per key, into order
    key_slot = keys // state.n
    slot_keys = np.searchsorted(key_slot, np.arange(len(slots) + 1))  # each slot's first key
    cap = max(1, _PAIR_BUDGET // state.n)
    bounds = [0]
    while bounds[-1] < len(keys):
        u = bounds[-1]
        bounds.append(max(u + 1, int(np.searchsorted(starts, starts[u] + cap, side="right")) - 1))
    for u, v in zip(bounds[:-1], bounds[1:]):
        rows = order[starts[u] : starts[v]]
        if rayleigh:
            # Keys u..v-1's rows of their slots' (unique rx) x L fade matrices
            # (column j for the slot's link j), each slot's rows drawn in one call
            # from its own generator: the same stream as one draw of its matrix.
            row_at = np.concatenate([[0], np.cumsum(sizes[key_slot[u:v]])])
            fades = np.empty(row_at[-1])
            for k in range(key_slot[u], key_slot[v - 1] + 1):
                a, b = max(u, slot_keys[k]) - u, min(v, slot_keys[k + 1]) - u
                out = fades[row_at[a] : row_at[b]].reshape(b - a, sizes[k])
                slots[k].rng.standard_exponential(out=out)
        rows = rows[live[rows]]  # links already lost are not evaluated
        if not len(rows):
            continue
        if guard_only:
            # A live receiver does not transmit, so T_i (j == i) is the only one of
            # its slot's transmitters near R_i that is not an interferer.  Since
            # G*_tx <= 1, fl(reach_i G*_rx G*_tx) <= reach_i G*_rx: only the pairs
            # nearer than reach_i G*_rx need G*_tx, and the product keeps its bits.
            i, j, (wx, wy, dist) = near(rows)
            lim = reach[i] * _gain(config.rx_pattern, (b_x[i], b_y[i]), (wx, wy), alpha, True,
                                   (d[i], dist))
            kept = np.flatnonzero(dist < lim)
            i, j, wx, wy, dist, lim = (a[kept] for a in (i, j, wx, wy, dist, lim))
            g_tx = _gain(config.tx_pattern, (b_x[j], b_y[j]), (wx, wy), alpha, True,
                         (d[j], dist))
            success[rows] = True
            success[i[dist < lim * g_tx]] = False
            continue
        # Rows of slots with equal L stack into one (rows, L) array: a row sum is
        # then the pairwise sum of the same L terms in the same order as alone.
        for n_links, grp in _row_runs(rows, sizes[slot[rows]]):
            s = slot[grp]
            cols = np.arange(n_links)
            # Transmitter data per row: its slot's L links, repeated over the
            # slot's rows (rows are in slot order), or one broadcast row.
            group_slots, reps = np.unique(s, return_counts=True)
            j = first[group_slots][:, None] + cols
            tj = [a[j] if len(reps) == 1 else np.repeat(a[j], reps, axis=0)
                  for a in (t_x, t_y, b_x, b_y, d)]
            # Live receivers do not transmit, so no j is R_i and dist > 0; only
            # j == T_i (self), at column i - first, is left out.
            rr, self_col = np.arange(len(grp)), grp - first[s]
            if rayleigh:
                fade_row = row_at[inv[grp] - u]  # start of each link's row in `fades`
                f_int = sliding_window_view(fades, n_links)[fade_row]  # rows copied whole
                f_sig = fades[fade_row + self_col]
            else:
                f_sig = f_int = 1.0
            i = grp[:, None]
            w = wx, wy, dist = _displacement(r_x[i], r_y[i], tj[0], tj[1])
            if config.model == "pairwise":
                # Pairwise with fading: the SIR test with both gains set to 1 first.
                # Since G <= 1 and rounding is monotone, a pair that passes it passes
                # with its own gains, so only the others (row fr, link jl) need them.
                sig = f_sig[:, None] * dist**alpha
                scale, d_alpha = config.sir0 * f_int, d[i] ** alpha
                ok = sig >= scale * d_alpha
                ok[rr, self_col] = True
                fr, fc = np.nonzero(~ok)
                jl = first[s[fr]] + fc
                g_rx, g_tx = gains(grp[fr], b_x[jl], b_y[jl], d[jl], [a[fr, fc] for a in w],
                                   starred=False)
                ok[fr, fc] = sig[fr, fc] >= scale[fr, fc] * g_rx * g_tx * d_alpha[fr, 0]
                success[grp] = np.all(ok, axis=1)
            else:
                g_rx, g_tx = gains(i, tj[2], tj[3], tj[4], w, starred=False)
                term = f_int * g_rx * g_tx * dist ** (-alpha)
                term[rr, self_col] = 0.0
                signal = f_sig * d[grp] ** (-alpha)
                success[grp] = signal >= config.sir0 * term.sum(axis=1)
    return [success[a:b] for a, b in zip(first[:-1], first[1:])]


def _row_runs(rows: np.ndarray, row_links: np.ndarray):
    """(L, rows of L links) for each link count L, ascending, in runs of at most
    _BLOCK // L rows (at least one), so that a run's (rows, L) temporaries stay in
    cache; each row is evaluated alone, so the runs do not change its flag."""
    for n_links in np.unique(row_links):
        group = rows[row_links == n_links]
        step = max(1, _BLOCK // int(n_links))
        for start in range(0, len(group), step):
            yield n_links, group[start : start + step]


def _blocks(sizes: np.ndarray, cap: int) -> list[list[int]]:
    """Slot indices in blocks of at most `cap` links, taken in order of link count
    (stable), so that slots of equal L share a block; a slot of more than `cap`
    links forms a block of its own."""
    blocks, links = [], 0
    for k in np.argsort(sizes, kind="stable"):
        if not blocks or links + sizes[k] > cap:
            blocks.append([])
            links = 0
        blocks[-1].append(int(k))
        links += int(sizes[k])
    return blocks


def _run_slots(state, config, ts, threads: int = 1) -> list[SlotOutcome]:
    """Slots `ts` of the run (slot t draws from SeedSequence([seed, 1, t])): all are
    drawn first, then evaluated in blocks of whole slots (`_blocks`)."""
    drawn = _draw_slots(state, config, [np.random.SeedSequence([config.seed, 1, t]) for t in ts])
    blocks = _blocks(np.array([len(s.tx) for s in drawn], dtype=np.int64),
                     max(1, _PAIR_BUDGET // state.n))
    flags = run_indexed(
        lambda b: _evaluate_slots(state, config, [drawn[k] for k in blocks[b]]), len(blocks), threads
    )
    success = {k: f for block, fs in zip(blocks, flags) for k, f in zip(block, fs)}
    return [SlotOutcome(tx=s.tx, rx=s.rx, d=s.d, success=success[k]) for k, s in enumerate(drawn)]


def run_slot(state: NetworkState, config: NetworkConfig, slot_seed) -> SlotOutcome:
    """Draw one slot (activation, receiver choice, fades) and evaluate every link,
    as a block of one slot: the flags estimate_throughput gets for the slot.

    Draw order: activation uniforms (n), receiver-choice uniforms (one per
    active non-isolated node), then, under Rayleigh fading, the (unique rx) x L
    fade matrix: rows by receiver id ascending, column j for link j.
    """
    (slot,) = _draw_slots(state, config, [slot_seed])
    (success,) = _evaluate_slots(state, config, [slot])
    return SlotOutcome(tx=slot.tx, rx=slot.rx, d=slot.d, success=success)


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
    n, p_t, c1 = state.n, config.p_t, guard_zone(config.sir0, config.alpha)[1]
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

    Slot t draws from SeedSequence([seed, 1, t]).  The slots are drawn a window
    at a time and evaluated in blocks of whole slots (module docstring); each
    slot's flags, success count and successful length sum are those run_slot
    gives it, so the results depend neither on the blocks nor on `threads`.
    """
    if config.slots < 1:
        raise ValueError("config.slots must be >= 1 to estimate throughput")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    edges = np.linspace(0.0, state.r, bins + 1)

    # A window holds at most _PAIR_BUDGET // n slots (at most n links and n
    # activity flags each) and sqrt(_PAIR_BUDGET) generators (about 1 KB each).
    window = max(1, min(_PAIR_BUDGET // state.n, math.isqrt(_PAIR_BUDGET)))
    succ, dsum = [], []
    attempts = wins = np.zeros(bins, dtype=np.int64)
    for t0 in range(0, config.slots, window):
        outs = _run_slots(state, config, range(t0, min(t0 + window, config.slots)), threads)
        succ += [int(out.success.sum()) for out in outs]
        dsum += [float(out.d[out.success].sum()) for out in outs]
        d = np.concatenate([out.d for out in outs])
        b = np.minimum((d / state.r * bins).astype(np.int64), bins - 1)
        attempts = attempts + np.bincount(b, minlength=bins)
        wins = wins + np.bincount(b[np.concatenate([out.success for out in outs])], minlength=bins)
    succ = np.array(succ, dtype=float)
    dsum = np.array(dsum)

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


@dataclass(frozen=True)
class CurvePoint:
    n: int
    p_t: float
    r: float
    eta_tt: float
    eta_tt_stderr: float
    eta_tr: float
    eta_tr_stderr: float


def capacity_curve(config: NetworkConfig, n_list, threads: int = 1) -> list[CurvePoint]:
    """Throughput versus network size, with (p_t, r) set per n by total_throughput_rule."""
    n_list = [int(n) for n in n_list]
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {n_list}")
    points = []
    for n in n_list:
        p_t, r = total_throughput_rule(n)
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

def _forced_link_tables(state, config, tx_node, rx_node):
    """Per (node k, receiver choice m) interference factors toward rx_node.

    Returns eligible node ids, CSR offsets, flat arrays
      plain[k, m]   = G_rx(theta_ik) * G_tx(phi_ki) / dist(k, R_i)^alpha
      starred[k, m] = dist(k, R_i) - (1+Delta) d_i G*_rx G*_tx  (>= 0 means harmless)
    and the link's length d_i.  The angles are the slot engine's: R_i aims along
    R_i -> T_i toward R_i -> k, and k along m -> k toward R_i -> k (both of k's
    vectors negated, which gives the same angle bit for bit).
    Raises ValueError unless rx_node is an in-range neighbour of node tx_node.
    """
    row = state.neighbor_offsets[tx_node : tx_node + 2] if 0 <= tx_node < state.n else (0, 0)
    if rx_node not in state.neighbors[row[0] : row[1]]:
        raise ValueError(f"({tx_node}, {rx_node}) is not a link: tx_node must be one of the "
                         f"{state.n} nodes and rx_node one of its in-range neighbours")
    pos = state.positions
    to_x, to_y, to_dist = _displacement(*pos[rx_node], *pos.T)  # R_i -> every node
    d_i = float(to_dist[tx_node])

    keep = state.k_pr > 0
    keep[[tx_node, rx_node]] = False
    nodes = np.flatnonzero(keep)
    counts = state.k_pr[nodes]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    ks = np.repeat(nodes, counts)
    csr = np.repeat(keep, state.k_pr)  # CSR entries of the kept nodes
    ms = state.neighbors[csr]

    w, dist = (to_x[ks], to_y[ks]), to_dist[ks]  # R_i -> k
    v = _displacement(*pos[ms].T, *pos[ks].T)[:2]  # chosen receiver m -> k

    alpha = config.alpha
    g_rx = _gain(config.rx_pattern, (to_x[tx_node], to_y[tx_node]), w, alpha, False, (d_i, dist))
    g_tx = _gain(config.tx_pattern, v, w, alpha, False, (state.neighbor_dist[csr], dist))
    plain = g_rx * g_tx * dist ** (-alpha) * np.ones(len(ks))
    # G* = G**(1/alpha), as gain_starred computes it.
    gs_rx, gs_tx = np.power(g_rx, 1.0 / alpha), np.power(g_tx, 1.0 / alpha)
    guard = (1.0 + guard_zone(config.sir0, alpha)[0]) * d_i
    starred = dist - guard * gs_rx * gs_tx * np.ones(len(ks))
    return nodes, offsets, plain, starred, d_i


def _bernoulli_cells(rng, size: int, p: float) -> np.ndarray:
    """Indices, ascending, of the successes among `size` i.i.d. Bernoulli(p) cells.

    The gaps between successes, floor(E / -ln(1 - p)) + 1 with E ~ Exp(1), are
    Geometric(p).  They are drawn one at a time until their running sum passes
    the last cell; none are drawn when size or p is 0.  For speed they come in
    batches of the expected number still to come; once a batch passes the last
    cell, the stream is rewound and exactly the gaps used are drawn again, so
    the stream does not depend on the batch sizes.
    """
    if size == 0 or p == 0.0:
        return np.zeros(0, dtype=np.int64)
    scale = -1.0 / math.log1p(-p)
    found = []
    last = -1
    while True:
        k = int((size - 1 - last) * p) + 1
        saved = rng.bit_generator.state
        gaps = np.minimum(np.floor(rng.standard_exponential(k) * scale), size)
        pos = last + np.cumsum(gaps.astype(np.int64) + 1)
        t = int(np.searchsorted(pos, size))  # pos[t] is the first gap past the last cell
        if t < k:
            rng.bit_generator.state = saved
            rng.standard_exponential(t + 1)
            found.append(pos[:t])
            return np.concatenate(found)
        found.append(pos)
        last = int(pos[-1])


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

    Trials run in chunks of c = _PAIR_BUDGET // m rows over the m eligible
    nodes, and only active (trial, node) cells are drawn.  Draw order per chunk:
    receiver-busy uniforms (c), the active cells of the flattened c x m grid
    (`_bernoulli_cells`), one receiver-choice uniform per active cell, then
    under Rayleigh fading one interference fade per active cell and the c
    signal fades.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    nodes, offsets, plain, starred, d_i = _forced_link_tables(state, config, tx_node, rx_node)
    m = len(nodes)
    counts = state.k_pr[nodes].astype(np.int64)
    base = offsets[:-1]
    rayleigh = config.fading == "rayleigh"
    pairwise = config.model == "pairwise"
    sir_d = config.sir0 * d_i**config.alpha
    rx_can_transmit = state.k_pr[rx_node] > 0
    chunk = max(1, _PAIR_BUDGET // max(1, m))

    hits = 0
    done = 0
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 5]))
    while done < slots:
        c = min(chunk, slots - done)
        rx_busy = (rng.random(c) < config.p_t) & rx_can_transmit
        # Cell index = trial * m + node (m = 0 leaves no cells to divide).
        trial, k = np.divmod(_bernoulli_cells(rng, c * m, config.p_t), max(1, m))
        pick = np.minimum((rng.random(len(k)) * counts[k]).astype(np.int64), counts[k] - 1)
        sel = base[k] + pick
        if rayleigh:
            f_int = rng.standard_exponential(len(k))
            f_sig = rng.standard_exponential(c)
        else:
            f_int, f_sig = 1.0, np.ones(c)

        if pairwise:
            if rayleigh:
                broken = f_sig[trial] < sir_d * plain[sel] * f_int
            else:
                broken = starred[sel] < 0.0
            clear = np.bincount(trial[broken], minlength=c) == 0
        else:
            interference = np.bincount(trial, weights=f_int * plain[sel], minlength=c)
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
    mean = np.add.reduceat(1.0 / (1.0 + sir_d * plain), offsets[:-1]) / np.diff(offsets)
    return pred * float(np.prod((1.0 - config.p_t) + config.p_t * mean))
