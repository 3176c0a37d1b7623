"""Threshold-based widths of a pattern, measured on a grid of angles, and the
null-product kernel that allocates its temporaries block by block, the bit
oracle of the library's `_null_gains` (its scratch allocated once per call),
for the tests in `test_patterns.py`."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from beamnet.patterns import _BLOCK, TWO_PI, AntennaPattern, _unit_clamp

# Measure grid for threshold widths; widths have O(1/grid) error.
DEFAULT_GRID = 1 << 20


@dataclass(frozen=True)
class ThresholdWidth:
    """Null/beam width of G* at a gain threshold; the two are complements."""

    threshold: float
    null_width: float
    beam_width: float


def threshold_widths(
    pattern: AntennaPattern, beta: float, alpha: float, grid: int = DEFAULT_GRID
) -> ThresholdWidth:
    """Normalized null width |{theta: G* <= beta}|/2pi on a uniform grid, and its complement."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    theta = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    gs = pattern.gain_starred(theta, alpha)
    null = float(np.count_nonzero(gs <= beta)) / grid
    return ThresholdWidth(threshold=float(beta), null_width=null, beam_width=1.0 - null)


def null_gains(sines, d_ratio, lone_nulls, rescale, r, b) -> np.ndarray:
    """patterns._null_gains with fresh temporaries for every block, each pair
    factor over all of the unit padding."""
    g = np.empty(sines.shape)
    rows = min(len(sines), _BLOCK // max(1, sines.shape[1])) or 1
    for i in range(0, len(sines), rows):
        if rows == 1:
            at, scale, r_i, b_i = i, math.pi * d_ratio[i], r[:, i], b[:, i]
        else:
            at = slice(i, i + rows)
            scale, r_i, b_i = math.pi * d_ratio[at, None], r[:, at, None], b[:, at, None]
        for j in range(0, sines.shape[1], _BLOCK):
            half = sines[at, j : j + _BLOCK] * scale
            f = np.cos(half) ** lone_nulls if lone_nulls else np.ones_like(half)
            if len(r):
                a = np.abs(half)
                y = np.minimum(a, 0.5 * math.pi - a)
                np.sin(y, out=y)
                y *= y
                high = (a > 0.25 * math.pi).astype(float)
                low = 1.0 - high
                t, t2 = np.empty_like(y), np.empty_like(y)
                if rescale:
                    power, e = np.zeros(y.shape, dtype=int), np.empty(y.shape, dtype=np.intc)
                for r_k, b_k in zip(r_i, b_i):
                    np.multiply(y, r_k, out=t)
                    t += low
                    np.multiply(high, b_k, out=t2)
                    t += t2
                    f *= t
                    if rescale:
                        np.frexp(f, out=(f, e))
                        power += e
                if rescale:
                    np.ldexp(f, power, out=f)
            _unit_clamp(np.multiply(f, f, out=g[at, j : j + _BLOCK]))
    return g
