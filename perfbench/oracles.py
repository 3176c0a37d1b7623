"""Independent references that the benchmark checks beamnet's outputs against.

Nothing here calls the library code it checks: the beam-width reference is a
periodic trapezoid rule over the pattern's public `gain`, and the slot
reference recomputes one link at a time from node positions, with its own
torus geometry, guard zone and SIR sum.
"""

from __future__ import annotations

import math

import numpy as np

# The trapezoid rule on 2^14 angles agrees with 2^20 angles to about 2e-9.
TRAPEZOID_POINTS = 1 << 14

# A link whose decision sits this close (relative) to its threshold is a tie:
# the library and the reference may round it either way.
TIE_RTOL = 1e-9


class Checks:
    """Correctness ledger: one entry per operation checked."""

    def __init__(self):
        self.attempted = 0
        self.ties = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def exact_beam_width(pattern, h: float, alpha: float, points: int = TRAPEZOID_POINTS) -> float:
    """W_B = mean_theta G(theta)^(h/alpha), the exact value of Pr(G* > X) for F_X(x) = x^h."""
    theta = np.arange(points) * (2.0 * math.pi / points)
    return float(np.mean(np.power(pattern.gain(theta), h / alpha)))


def beam_width_ok(w_b: float, stderr: float, exact: float, max_stderr: float | None = None) -> bool:
    """A W_B estimate lies within max(4 SE, 1e-6) of the exact value (and reports
    an SE no larger than `max_stderr`, when given).  The 1e-6 floor admits an
    exact route that reports SE = 0."""
    if max_stderr is not None and not stderr <= max_stderr:
        return False
    return abs(w_b - exact) <= max(4.0 * stderr, 1e-6)


def fixed_link_ok(p_hat: float, prediction: float, trials: int) -> bool:
    """|p_hat - prediction| <= 4 SE, with the binomial SE of `trials` draws at the prediction."""
    se = math.sqrt(max(prediction * (1.0 - prediction), 0.0) / trials)
    return abs(p_hat - prediction) <= max(4.0 * se, 1e-12)


def _wrap(d: np.ndarray) -> np.ndarray:
    """Shortest displacement on the unit torus."""
    return d - np.rint(d)


def _angle(vx, vy, wx, wy):
    """Signed angle from vector v to vector w."""
    return np.arctan2(vx * wy - vy * wx, vx * wx + vy * wy)


def slot_invariants(positions, r: float, directional_rx: bool, tx, rx, d, success) -> list[str]:
    """Protocol invariants of one slot's links; returns the violations found."""
    problems = []
    if len(np.unique(tx)) != len(tx):
        problems.append("a node transmits on two links")
    if np.any(tx == rx):
        problems.append("a link targets its own transmitter")
    v = _wrap(positions[rx] - positions[tx])
    length = np.hypot(v[:, 0], v[:, 1])
    if np.any(np.abs(length - d) > 1e-12):
        problems.append("reported link length differs from the torus distance")
    if np.any(length > r * (1.0 + 1e-12)):
        problems.append("a receiver lies outside the transmission range")
    if np.any(success & np.isin(rx, tx)):
        problems.append("half-duplex: a transmitting receiver decoded a link")
    if directional_rx and len(rx):
        contested = np.bincount(rx, minlength=len(positions))[rx] > 1
        if np.any(success & contested):
            problems.append("no capture: a contested directional receiver decoded a link")
    return problems


def link_success(positions, config, tx, rx, i: int) -> bool | None:
    """Reference success of link i (tx[i] -> rx[i]) of a slot without fading.

    Applies, in order: half-duplex, no capture at a directional receiver, then
    the pairwise guard zone |T_j - R_i| >= (1 + Delta) d_i G*_rx G*_tx or the
    cumulative SIR S_i >= SIR0 sum_j I_ij.  Returns None for a tie.
    """
    if config.fading != "none":
        raise ValueError("the per-link reference covers the no-fading models only")
    ti, ri = tx[i], rx[i]
    if np.any(tx == ri):
        return False
    if config.rx_pattern.kind != "omni" and np.count_nonzero(rx == ri) > 1:
        return False
    keep = (tx != ti) & (tx != ri)
    tj, rj = tx[keep], rx[keep]
    v1 = _wrap(positions[ti] - positions[ri])  # R_i -> T_i, the receiver's boresight
    w = _wrap(positions[tj] - positions[ri])  # R_i -> T_j
    v2 = _wrap(positions[rj] - positions[tj])  # T_j -> R_j, the interferer's boresight
    d_i = math.hypot(v1[0], v1[1])
    dist = np.hypot(w[:, 0], w[:, 1])
    theta = _angle(v1[0], v1[1], w[:, 0], w[:, 1])
    phi = _angle(v2[:, 0], v2[:, 1], -w[:, 0], -w[:, 1])
    alpha = config.alpha
    if config.model == "pairwise":
        delta = config.sir0 ** (1.0 / alpha) - 1.0
        y = config.rx_pattern.gain_starred(theta, alpha)
        z = config.tx_pattern.gain_starred(phi, alpha)
        bound = (1.0 + delta) * d_i * y * z
        margin = dist - bound
        if np.any(margin < -TIE_RTOL * bound):
            return False
        if np.all(margin >= TIE_RTOL * bound):
            return True
        return None
    g = config.rx_pattern.gain(theta) * config.tx_pattern.gain(phi)
    signal = d_i ** (-alpha)
    gap = signal - config.sir0 * float(np.sum(g * dist ** (-alpha)))
    if abs(gap) <= TIE_RTOL * signal:
        return None
    return gap > 0.0
