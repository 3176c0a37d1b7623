"""One-shot Monte Carlo estimators for the tests in `test_ebw.py`: every shard
draws each stretch of its stream in one call rng.random(m), phi (theta, then
phi, for the interference probability) then the law's stretches, and evaluates
the whole shard at once.  The library reads the same stretches in blocks.
Also a log-sum midpoint rule for W_B at degrees where a plain null product
overflows (`test_cli.py`)."""

from __future__ import annotations

import math

import numpy as np

from beamnet._parallel import shard_sizes
from beamnet.ebw import BasisDistribution
from beamnet.patterns import TWO_PI


def _distances(dist, rng, m):
    if isinstance(dist, BasisDistribution):
        return rng.random(m) ** (1.0 / dist.order)
    cum = np.cumsum(dist.weights)
    cum[-1] = 1.0
    comp = np.minimum(np.searchsorted(cum, rng.random(m), side="left"), len(dist.orders) - 1)
    return rng.random(m) ** (1.0 / np.asarray(dist.orders)[comp])


def _estimate(count, samples, seed):
    hits = 0
    for i, m in enumerate(shard_sizes(samples)):
        hits += count(np.random.default_rng(np.random.SeedSequence([seed, i])), m)
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def effective_beam_width(pattern, dist, alpha, samples, seed):
    def count(rng, m):
        phi = rng.random(m) * TWO_PI
        x = _distances(dist, rng, m)
        return int(np.count_nonzero(pattern.gain_starred(phi, alpha) > x))

    return _estimate(count, samples, seed)


def interference_probability(rx, tx, dist, alpha, samples, seed):
    def count(rng, m):
        theta = rng.random(m) * TWO_PI
        phi = rng.random(m) * TWO_PI
        x = _distances(dist, rng, m)
        yz = rx.gain_starred(theta, alpha) * tx.gain_starred(phi, alpha)
        return int(np.count_nonzero(yz > x))

    return _estimate(count, samples, seed)


def esnla_beam_width_log_sum(n: int, points: int) -> float:
    """W_B of ESNLA(n) at D/lambda = 1/2, alpha = 4, h = 2, the mean of G^(1/2) =
    |AF/AF(0)| over theta in [0, pi/2], by the midpoint rule on `points` angles.
    |AF/AF(0)| is summed in logs, prod_k |1 - u/u_k| with u = sin^2(psi/2), so it
    cannot overflow at any degree."""
    s = np.arange(1, n // 2 + 1)
    u_k = np.sin(0.5 * np.pi * np.sin(2.0 * np.pi * s / (n + 1))) ** 2
    theta = (np.arange(points) + 0.5) * (0.5 * np.pi / points)
    u = np.sin(0.5 * np.pi * np.sin(theta)) ** 2
    log_af = np.zeros(points)
    for k in range(0, len(u_k), 256):
        log_af += np.log(np.abs(1.0 - u[:, None] / u_k[None, k : k + 256])).sum(axis=1)
    return float(np.exp(log_af).mean())
