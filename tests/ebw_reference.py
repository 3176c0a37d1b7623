"""One-shot Monte Carlo estimators for the tests in `test_ebw.py`: every shard
draws each stretch of its stream in one call rng.random(m), phi (theta, then
phi, for the interference probability) then the law's stretches, and evaluates
the whole shard at once.  The library reads the same stretches in blocks."""

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
