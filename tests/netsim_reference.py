"""Reference evaluators for the slot engine in `beamnet.netsim`.

`dense_evaluate_slot` is the engine as it stood before the interference cutoff
and the receiver blocks: every (link, transmitter) pair of a slot as L x L
arrays; `dense_evaluate_slots` puts it in the engine's place.  `pairwise_success` and `multi_rayleigh_success` test one link at a time
with scalar arithmetic.  Tests compare the engine against all three.
`pairwise_link_prediction` is the exact fixed-link law of the two pairwise
models, the oracle for `link_success_probability` beside the library's
`multi_rayleigh_prediction`.  `torus_delta` and `torus_distance` are the
references' own torus geometry, apart from the library's `netsim._displacement`.
"""

from __future__ import annotations

import math

import numpy as np

from beamnet.analytic import guard_zone
from beamnet.netsim import NetworkConfig, NetworkState, _forced_link_tables, _gain


def torus_delta(a, b):
    """Shortest displacement b - a on the unit torus, componentwise in [-1/2, 1/2]."""
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    return d - np.round(d)


def torus_distance(a, b):
    d = torus_delta(a, b)
    return np.sqrt(np.sum(d * d, axis=-1))


def _link_gains(state, config, tx, rx, starred):
    """Per (link i, transmitter j) receive/transmit gains from actual geometry.

    Returns (g_rx, g_tx, dist) with shapes (L, L); scalars 1.0 when a side is omni.
    """
    pos = state.positions
    pt, pr = pos[tx], pos[rx]
    disp = torus_delta(pr[:, None, :], pt[None, :, :])  # R_i -> T_j
    dist = np.sqrt(disp[..., 0] ** 2 + disp[..., 1] ** 2)
    back = torus_delta(pr, pt)  # R_i -> T_i, the receiver's boresight
    d = np.sqrt(back[:, 0] ** 2 + back[:, 1] ** 2)
    # dist vanishes at j == R_i; a unit norm there reads that entry as angle 0.
    norm = np.where(dist > 0.0, dist, 1.0)
    by_component = np.moveaxis(disp, -1, 0)
    g_rx = _gain(config.rx_pattern, np.moveaxis(back[:, None, :], -1, 0), by_component,
                 config.alpha, starred, (d[:, None], norm))
    # Interferer j aims along T_j -> R_j toward T_j -> R_i.  Both vectors negated
    # (R_j -> T_j and R_i -> T_j) give the same angle, bit for bit.
    g_tx = _gain(config.tx_pattern, np.moveaxis(back[None, :, :], -1, 0), by_component,
                 config.alpha, starred, (d[None, :], norm))
    return g_rx, g_tx, dist


def dense_evaluate_slot(state, config, tx, rx, d, rng) -> np.ndarray:
    """Success flags for all candidate links of one slot under the configured model."""
    n_links = len(tx)
    if n_links == 0:
        return np.zeros(0, dtype=bool)
    # j == T_i (self) and j == R_i are excluded from the interferer set.
    excl = (tx[None, :] == tx[:, None]) | (tx[None, :] == rx[:, None])
    rayleigh = config.fading == "rayleigh"

    if rayleigh:
        # One fade per (receiver, transmitter) pair: row by receiver, column j for link j.
        uniq, inv = np.unique(rx, return_inverse=True)
        fades = rng.standard_exponential((len(uniq), n_links))
        f_sig = fades[inv, np.arange(n_links)]
        f_int = fades[inv]
    else:
        f_sig = 1.0
        f_int = 1.0

    alpha = config.alpha
    if config.model == "pairwise" and not rayleigh:
        g_rx, g_tx, dist = _link_gains(state, config, tx, rx, starred=True)
        ok = dist >= (1.0 + guard_zone(config.sir0, alpha)[0]) * d[:, None] * g_rx * g_tx
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


def dense_evaluate_slots(state, config, slots) -> list[np.ndarray]:
    """`dense_evaluate_slot` in place of `netsim._evaluate_slots`: each drawn slot
    alone, its links already lost masked afterwards."""
    return [dense_evaluate_slot(state, config, s.tx, s.rx, s.d, s.rng) & s.live for s in slots]


def pairwise_success(link, active_links, state: NetworkState, config: NetworkConfig) -> bool:
    """Guard-zone test of one link against every other active transmitter.

    `link` and `active_links` entries are (tx_node, rx_node) pairs; the inclusive
    inequality keeps an interferer sitting exactly on the guard boundary harmless.
    """
    ti, ri = link
    pos = state.positions
    d_i = float(torus_distance(pos[ti], pos[ri]))
    scale = (1.0 + guard_zone(config.sir0, config.alpha)[0]) * d_i
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


def pairwise_link_prediction(
    state: NetworkState, config: NetworkConfig, tx_node: int, rx_node: int, step: float = 0.1
) -> float:
    """Exact success probability of the designated link of
    `link_success_probability` under the pairwise model.

    Nodes act independently, so it is Pr(receiver silent) times the product over
    eligible nodes k of (1 - p_t) + p_t * mean_m q_km, where q_km is the chance
    that k, aiming at m, leaves the link clear: 1{starred_km >= 0} without
    fading; with Rayleigh fading, given the signal fade s,
    1 - exp(-s / (SIR0 d_i^alpha plain_km)), and the product is integrated over
    s ~ Exp(1).

    The factors switch on at s ~ SIR0 d_i^alpha plain_km, which spans many
    decades (down to 1e-12 in the tests' networks), so Gauss-Laguerre in s
    misses them by 2e-4 to 5e-4 even at 180 points.  In ln s every factor is a
    smooth step of unit width, and the trapezoid rule with `step` over
    ln s in [-40, 4] is accurate to far below the Monte Carlo error.
    """
    if config.model != "pairwise":
        raise ValueError("prediction applies to the pairwise model only")
    nodes, offsets, plain, starred, d_i = _forced_link_tables(state, config, tx_node, rx_node)
    p_t = config.p_t
    silent = (1.0 - p_t) if state.k_pr[rx_node] > 0 else 1.0

    def product(clear):
        mean = np.add.reduceat(clear, offsets[:-1], axis=-1) / np.diff(offsets)
        return np.prod((1.0 - p_t) + p_t * mean, axis=-1)

    if config.fading == "none":
        return silent * float(product((starred >= 0.0).astype(float)))
    s = np.exp(np.arange(-40.0, 4.0, step))
    weight = step * s * np.exp(-s)  # Exp(1) density times ds = s d(ln s)
    with np.errstate(divide="ignore"):  # plain = 0 (a null) never breaks the link
        clear = -np.expm1(-s[:, None] / (config.sir0 * d_i**config.alpha * plain))
    return silent * float(weight @ product(clear))
