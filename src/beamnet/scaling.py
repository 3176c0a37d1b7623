"""Beam-width scaling sweeps and the power-law fit lg W_B = -gamma * lg N + b.

Sweeps estimate W_B across array degree N for one family at a fixed effective
path-loss exponent alpha* (realized as alpha = 2*alpha*, h = 2, which shares
the same W_B).  The fitted decay W_B = b1 / N**gamma summarizes how fast a
family's beam width shrinks as elements are added.

A sweep's cells share their draws: one effective_beam_widths call estimates
every N from the same (phi, X) samples, drawn from a seed of (seed, alpha*,
D/lambda) alone (common random numbers, Glasserman & Yao, Management Science
38(6), 1992).  So the sweeps of different families at one (seed, alpha*,
D/lambda) draw the same samples too, and every comparison across N or across
families is paired.  Each cell is still a plain Monte Carlo estimate with its
own law and SE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import patterns
from ._parallel import derive_seed
# effective_beam_width is not called here, but stays a name of this module:
# perfbench/spans.py wraps scaling.effective_beam_width by name.
from .ebw import BasisDistribution, effective_beam_width, effective_beam_widths, exact_beam_widths

# Families with a degree N.
FAMILIES = ("omni", "esnla", "binomial", "chebyshev")

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

# Golden-section search's step: the interior points sit this share of the bracket
# in from its ends, and each step keeps 1 - _GOLDEN = 1/phi of it.
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class SweepRow:
    n: int
    w_b: float
    stderr: float
    r_ms: float | None = None  # chebyshev only: the per-N optimized ratio


def _check_alpha_star(alpha_star: float) -> None:
    """Reject an alpha* that is not finite and >= 1/2 (alpha = 2 alpha* >= 1), NaN included."""
    if not 0.5 <= alpha_star < math.inf:
        raise ValueError(f"alpha_star must be finite and >= 1/2, got {alpha_star}")


def _check_n_values(ns) -> list[int]:
    """The N values as ints, if they are strictly increasing integers >= 1."""
    ints = [int(n) for n in ns]
    if ints != list(ns) or ints != sorted(set(ints)) or min(ints, default=1) < 1:
        raise ValueError("sweep N values must be strictly increasing integers >= 1, "
                         f"got {list(ns)}")
    return ints


@dataclass(frozen=True)
class SweepTable:
    family: str
    alpha_star: float
    d_ratio: float
    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        _check_n_values([row.n for row in self.rows])
        for row in self.rows:
            if not 0.0 < row.w_b <= 1.0:
                raise ValueError(f"sweep W_B values must lie in (0, 1], got {row.w_b} "
                                 f"at {self.family} N = {row.n}")


@dataclass(frozen=True)
class PowerLawFit:
    b1: float
    gamma: float
    r2: float

    @property
    def intercept(self) -> float:
        """b = lg b1, the log-log regression intercept."""
        return math.log10(self.b1)


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
    """Estimate W_B by Monte Carlo for each N, every N from the same `samples`
    draws (module docstring): one effective_beam_widths call on `threads`
    threads, at the seed derive_seed(seed, round(alpha* 10^6),
    round(D/lambda 10^6)).  A Chebyshev sweep first optimizes R_MS for every N
    on the exact W_B, in one optimize_chebyshev_rms call.

    `optimizer_samples` is ignored, since the R_MS search is exact; it stays in
    the signature because perfbench/workloads.py passes it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    _check_alpha_star(alpha_star)
    alpha = 2.0 * alpha_star
    n_list = _check_n_values(n_list)  # before any cell is computed
    r_ms = [None] * len(n_list)
    if family == "chebyshev":
        r_ms = [r for r, _ in optimize_chebyshev_rms(n_list, alpha_star, d_ratio)]

    cells = [patterns.build_pattern(family, n=n, d_ratio=d_ratio, r_ms=r)
             for n, r in zip(n_list, r_ms)]
    sweep_seed = derive_seed(seed, round(alpha_star * 10**6), round(d_ratio * 10**6))
    estimates = effective_beam_widths(cells, BasisDistribution(2.0), alpha, samples,
                                      sweep_seed, threads)
    rows = tuple(SweepRow(n=n, w_b=est.value, stderr=est.stderr, r_ms=r)
                 for n, est, r in zip(n_list, estimates, r_ms))
    return SweepTable(family=family, alpha_star=alpha_star, d_ratio=d_ratio, rows=rows)


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
    # 0.0 - slope, not -slope: a flat sweep's slope is +0.0, and its gamma +0.0.
    return PowerLawFit(b1=10.0**intercept, gamma=0.0 - slope, r2=r2)


def optimize_chebyshev_rms(ns, alpha_star: float,
                           d_ratio: float = 0.5) -> list[tuple[float, float]]:
    """Search, for each N in `ns`, the R_MS minimizing the exact W_B of a degree-N
    Chebyshev array; returns one (R_MS, W_B) per N.

    W_B(R_MS) can have more than one local minimum (secondary minima within
    2e-3, relative, of the global one at alpha* = 4, D/lambda <= 1/4), where a
    search over the whole range stops in whichever it meets.  So a log-spaced
    grid over [1.5, 1e4] brackets them first: golden-section search refines,
    to 1e-3 in log10 R_MS, the bracket between the grid neighbors of each
    strict local minimum of the grid (a point below each neighbor it has), or
    of the best point when there is none (at N = 1, W_B does not depend on
    R_MS).  Each N's result is the lowest (R_MS, W_B) evaluated, ties to the
    smaller R_MS; the R_MS is the exact float its W_B was computed at.

    The N values share their W_B evaluations: one exact_beam_widths batch takes
    every N's grid, and the brackets of all N then advance in lockstep, one
    batch per golden-section step (about 13 batches in all).  Each point is the
    one a search of that N alone would evaluate, and its W_B keeps its bits in
    any batch, so the results do not depend on the other N.
    """
    _check_alpha_star(alpha_star)
    ns = [int(n) for n in ns]
    if min(ns, default=1) < 1:
        raise ValueError(f"n must be >= 1, got {min(ns)}")
    alpha = 2.0 * alpha_star
    basis = BasisDistribution(2.0)

    grid = np.linspace(math.log10(RMS_GRID_LO), math.log10(RMS_GRID_HI), RMS_GRID_POINTS)
    grid_r = [10.0**g for g in grid]
    arrays = [p for n in ns for p in patterns.chebyshev_arrays(n, d_ratio, grid_r)]
    values = np.reshape(exact_beam_widths(arrays, basis, alpha), (len(ns), len(grid)))
    best = [min(zip(row, grid)) for row in values]
    owners, searches = [], []
    for i, row in enumerate(values):
        walled = np.concatenate([[math.inf], row, [math.inf]])
        minima = np.flatnonzero((row < walled[:-2]) & (row < walled[2:]))
        for k in minima if len(minima) else [int(np.argmin(row))]:
            bounds = (grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)])
            owners.append(i)
            searches.append(_golden_section(*bounds, xatol=1e-3))
    points = {j: next(search) for j, search in enumerate(searches)}
    while points:
        arrays = [patterns.chebyshev_array(ns[owners[j]], d_ratio, 10.0**x)
                  for j, x in points.items()]
        sent = exact_beam_widths(arrays, basis, alpha)
        for j, w in zip(list(points), sent):
            try:
                points[j] = searches[j].send(w)
            except StopIteration as stop:
                del points[j]
                best[owners[j]] = min(best[owners[j]], stop.value)
    return [(float(10.0**log_r), float(w_best)) for w_best, log_r in best]


def _golden_section(a: float, b: float, xatol: float):
    """Minimize f on [a, b] by golden-section search (Kiefer, Proc. AMS 4, 1953), as
    a generator: it yields each point x in turn, is sent f(x) back, and returns
    the lowest (f(x), x) evaluated, ties to the smaller x.  Two interior points
    split the bracket in the golden ratio; each step drops the part beyond the
    worse of them (ties keep the left part) and evaluates one new point, until
    the bracket is at most xatol wide.  That takes a fixed
    2 + ceil(ln((b - a)/xatol)/ln phi) evaluations."""
    steps = math.ceil(math.log((b - a) / xatol) / -math.log1p(-_GOLDEN))
    c, d = a + _GOLDEN * (b - a), b - _GOLDEN * (b - a)
    fc = yield c
    fd = yield d
    best = min((fc, c), (fd, d))
    for _ in range(steps):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = a + _GOLDEN * (b - a)
            fc = yield c
            best = min(best, (fc, c))
        else:
            a, c, fc = c, d, fd
            d = b - _GOLDEN * (b - a)
            fd = yield d
            best = min(best, (fd, d))
    return best


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
