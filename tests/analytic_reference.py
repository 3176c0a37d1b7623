"""Sampling oracle for `beamnet.analytic.f_alpha`, the Rayleigh fade-ratio moment."""

from __future__ import annotations

import numpy as np


def f_alpha_monte_carlo(alpha: float, samples: int = 10**6, seed: int = 0) -> float:
    """Mean of (F1/F2)**(2/alpha) over Exp(1) pairs."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xFA]))
    f1 = rng.standard_exponential(samples)
    f2 = rng.standard_exponential(samples)
    return float(np.mean((f1 / f2) ** (2.0 / alpha)))
