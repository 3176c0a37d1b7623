"""Beam-width scaling sweeps and the power-law fit lg W_B = -gamma * lg N + b.

Sweeps estimate W_B across array degree N for one family at a fixed effective
path-loss exponent alpha* (realized as alpha = 2*alpha*, h = 2, which shares
the same W_B).  The fitted decay W_B = b1 / N**gamma summarizes how fast a
family's beam width shrinks as elements are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import patterns
from ._parallel import derive_seed, run_indexed
from .ebw import BasisDistribution, EbwEstimate, effective_beam_width

# Families with a degree N.  The order is part of every sweep cell's seed.
FAMILIES = ("omni", "esnla", "binomial", "chebyshev")
_FAMILY_CODE = {name: i for i, name in enumerate(FAMILIES)}

DEFAULT_N_LIST = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)

# Reference (b1, gamma) at alpha* = 2, D/lambda = 1/2, used by the reproduce
# command's pass/fail report.
REFERENCE_FITS = {
    "esnla": (0.659, 0.810),
    "binomial": (0.496, 0.496),
    "chebyshev": (0.716, 0.874),
}

RMS_GRID_LO = 1.5
RMS_GRID_HI = 1e4
RMS_GRID_POINTS = 64


@dataclass(frozen=True)
class SweepRow:
    n: int
    w_b: float
    stderr: float
    r_ms: float | None = None  # chebyshev only: the per-N optimized ratio


@dataclass(frozen=True)
class SweepTable:
    family: str
    alpha_star: float
    d_ratio: float
    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        ns = [row.n for row in self.rows]
        if ns != sorted(set(ns)):
            raise ValueError("sweep N values must be strictly increasing")
        if any(not 0.0 < row.w_b <= 1.0 for row in self.rows):
            raise ValueError("sweep W_B values must lie in (0, 1]")


@dataclass(frozen=True)
class PowerLawFit:
    b1: float
    gamma: float
    r2: float

    @property
    def intercept(self) -> float:
        """b = lg b1, the log-log regression intercept."""
        return math.log10(self.b1)

    def predict(self, n) -> np.ndarray:
        return self.b1 / np.asarray(n, dtype=float) ** self.gamma


def sweep(
    family: str,
    n_list=DEFAULT_N_LIST,
    alpha_star: float = 2.0,
    d_ratio: float = 0.5,
    samples: int = 10**6,
    seed: int = 0,
    threads: int = 1,
    optimizer_samples: int | None = None,
) -> SweepTable:
    """Estimate W_B for each N.  Chebyshev rows first optimize R_MS per N.

    `optimizer_samples` trims the per-candidate cost of that search (the
    objective is flat near its optimum, so a coarser search barely moves the
    re-estimated W_B); default is the sweep's own sample count.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if alpha_star <= 0:
        raise ValueError(f"alpha_star must be positive, got {alpha_star}")
    alpha = 2.0 * alpha_star
    n_list = [int(n) for n in n_list]

    def cell(i: int) -> SweepRow:
        n = n_list[i]
        cell_seed = derive_seed(
            seed, _FAMILY_CODE[family], n, round(alpha_star * 10**6), round(d_ratio * 10**6)
        )
        r_ms = None
        if family == "chebyshev":
            r_ms, _ = optimize_chebyshev_rms(
                n, alpha_star, d_ratio, optimizer_samples or samples, derive_seed(cell_seed, 1)
            )
        p = patterns.build_pattern(family, n=n, d_ratio=d_ratio, r_ms=r_ms)
        est = effective_beam_width(p, BasisDistribution(2.0), alpha, samples, cell_seed)
        return SweepRow(n=n, w_b=est.value, stderr=est.stderr, r_ms=r_ms)

    rows = run_indexed(cell, len(n_list), threads)
    return SweepTable(family=family, alpha_star=alpha_star, d_ratio=d_ratio, rows=tuple(rows))


def fit_power_law(table: SweepTable) -> PowerLawFit:
    """Unweighted OLS of lg W_B on lg N; returns b1 = 10**intercept and gamma = -slope."""
    if len(table.rows) < 3:
        raise ValueError(f"need at least 3 sweep rows, got {len(table.rows)}")
    if any(row.w_b <= 0.0 for row in table.rows):
        raise ValueError("all W_B must be positive for a log-log fit")
    x = np.log10([row.n for row in table.rows])
    y = np.log10([row.w_b for row in table.rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return PowerLawFit(b1=10.0**intercept, gamma=-slope, r2=r2)


def optimize_chebyshev_rms(
    n: int,
    alpha_star: float,
    d_ratio: float = 0.5,
    samples: int = 10**6,
    seed: int = 0,
) -> tuple[float, float]:
    """Search R_MS minimizing W_B for a degree-N Chebyshev array.

    Log-spaced grid over [1.5, 1e4] followed by a bounded Brent search between
    the best grid point's neighbors.  Every candidate reuses the same sampling
    seed (common random numbers), so the noisy objective is a fixed function of
    R_MS and the returned value is the minimum over all evaluated candidates.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha = 2.0 * alpha_star
    basis = BasisDistribution(2.0)
    evaluated: dict[float, float] = {}

    def objective(log_r: float) -> float:
        r_ms = 10.0**log_r
        if r_ms not in evaluated:
            p = patterns.chebyshev_array(n, d_ratio, r_ms)
            evaluated[r_ms] = effective_beam_width(p, basis, alpha, samples, seed).value
        return evaluated[r_ms]

    grid = np.linspace(math.log10(RMS_GRID_LO), math.log10(RMS_GRID_HI), RMS_GRID_POINTS)
    best = int(np.argmin([objective(g) for g in grid]))
    bounds = (grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)])
    minimize_scalar(objective, bounds=bounds, method="bounded", options={"xatol": 1e-3})

    r_best = min(evaluated, key=lambda r: (evaluated[r], r))
    return float(r_best), float(evaluated[r_best])


@dataclass(frozen=True)
class BundleReport:
    """Fit comparison across a bundle of sweeps sharing a family and N list."""

    keys: tuple[float, ...]  # alpha* or d_ratio per table
    gammas: tuple[float, ...]
    intercepts: tuple[float, ...]  # b = lg b1
    gamma_spread: float
    intercepts_increasing: bool


def _bundle(tables, key_fn) -> BundleReport:
    if len(tables) == 0:
        raise ValueError("need at least one sweep table")
    family = tables[0].family
    n_list = [row.n for row in tables[0].rows]
    for t in tables:
        if t.family != family or [row.n for row in t.rows] != n_list:
            raise ValueError("bundle tables must share family and N list")
    order = sorted(range(len(tables)), key=lambda i: key_fn(tables[i]))
    keys = tuple(key_fn(tables[i]) for i in order)
    fits = [fit_power_law(tables[i]) for i in order]
    gammas = tuple(f.gamma for f in fits)
    intercepts = tuple(f.intercept for f in fits)
    spread = max(
        (abs(a - b) for i, a in enumerate(gammas) for b in gammas[i + 1 :]), default=0.0
    )
    increasing = all(b2 > b1 for b1, b2 in zip(intercepts, intercepts[1:]))
    return BundleReport(
        keys=keys,
        gammas=gammas,
        intercepts=intercepts,
        gamma_spread=spread,
        intercepts_increasing=increasing,
    )


def parallel_lines_check(tables) -> BundleReport:
    """Across alpha*: the decay index gamma barely moves while the intercept rises."""
    return _bundle(tables, lambda t: t.alpha_star)


def spacing_check(tables) -> BundleReport:
    """Across D/lambda at fixed alpha*: gamma is insensitive to spacing.

    `intercepts_increasing` reports whether the intercept b grows with D/lambda,
    i.e. whether b is largest at D = lambda/2; it is reported, not asserted.
    """
    return _bundle(tables, lambda t: t.d_ratio)


def family_ordering_check(
    binomial: SweepTable, esnla: SweepTable, chebyshev: SweepTable
) -> list[bool]:
    """Per-N check that W_B(binomial) > W_B(esnla) >= W_B(chebyshev) - 3 SE."""
    if not len(binomial.rows) == len(esnla.rows) == len(chebyshev.rows):
        raise ValueError("ordering check needs matching N lists")
    out = []
    for rb, re, rc in zip(binomial.rows, esnla.rows, chebyshev.rows):
        if not rb.n == re.n == rc.n:
            raise ValueError("ordering check needs matching N lists")
        slack = 3.0 * math.hypot(re.stderr, rc.stderr)
        out.append(rb.w_b > re.w_b and re.w_b >= rc.w_b - slack)
    return out
