"""Threshold-based widths of a pattern, measured on a grid of angles for the
tests in `test_patterns.py`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from beamnet.patterns import TWO_PI, AntennaPattern

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
