"""Closed-form throughput expressions, guard-zone constants, and capacity regimes.

These serve as oracles for the slot simulator: the guard zone converts the SIR
threshold into a distance criterion, F(alpha) is the Rayleigh fade-ratio
correction, and the total-throughput bracket and the transport-radius root
predict how the simulator's averages move with (n, p_t, r, W_B).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .patterns import check_alpha

# Bisection's relative tolerance: 4 units in the last place.
_RTOL = 4.0 * sys.float_info.epsilon

# The largest distance on the unit torus, and so the largest link radius.
MAX_LINK_LENGTH = math.sqrt(2.0) / 2.0


def check_sir0(sir0: float) -> None:
    """Reject an SIR threshold that is not finite and > 1, NaN included."""
    if not 1.0 < sir0 < math.inf:
        raise ValueError(f"SIR0 must be finite and exceed 1, got {sir0}")


def guard_zone(sir0: float, alpha: float) -> tuple[float, float]:
    """Guard zone Delta = SIR0**(1/alpha) - 1 and area constant c1 = pi*(1+Delta)**2."""
    check_sir0(sir0)
    check_alpha(alpha)
    delta = sir0 ** (1.0 / alpha) - 1.0
    return delta, math.pi * (1.0 + delta) ** 2


def f_alpha(alpha: float) -> float:
    """Rayleigh fade-ratio moment E[(F1/F2)**(2/alpha)] = (2pi/alpha)/sin(2pi/alpha).

    Diverges for alpha <= 2 (returns math.inf)."""
    check_alpha(alpha)
    if alpha <= 2.0:
        return math.inf
    x = 2.0 * math.pi / alpha
    return x / math.sin(x)


def _bracket_power(n: int, x: float) -> float:
    """1 - (1 - x)**(n-1), computed stably for tiny x."""
    return -math.expm1((n - 1) * math.log1p(-x))


def analytic_total_throughput(n: int, p_t: float, r: float, w_b: float, c1: float) -> float:
    """Expected total throughput bracket n(1-p_t)[1-(1-c1 p_t r^2 W_B)^(n-1)]
    / [c1 (n-1) r^2 W_B] (order constant dropped)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0.0 < w_b <= 1.0:
        raise ValueError(f"W_B must lie in (0, 1], got {w_b}")
    x = c1 * p_t * r * r * w_b
    if x >= 1.0:
        raise ValueError(f"c1*p_t*r^2*W_B = {x:.4g} must stay below 1")
    return n * (1.0 - p_t) * _bracket_power(n, x) / (c1 * (n - 1) * r * r * w_b)


def transport_root(n: int) -> float:
    """Bisection root w in (0,1) of 2(n-1) w (1-w)^(n-2) = 1 - (1-w)^(n-1).

    This is the stationarity condition of the transport-throughput bracket in r,
    with w = c1 W_B r^2 / 2.  n w tends to the root x = 1.25643... of e^x = 1 + 2x;
    the bracket starts below 1/(2n) and the tolerance is relative, so the root
    keeps its accuracy at every n."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")

    def g(w: float) -> float:
        return 2.0 * (n - 1) * w * math.exp((n - 2) * math.log1p(-w)) - _bracket_power(n, w)

    return _bisect(g, min(1e-12, 0.5 / n), 1.0 - 1e-12, xtol=1e-300, maxiter=200)


def _bisect(f, xa: float, xb: float, xtol: float, maxiter: int) -> float:
    """Root of f in [xa, xb], where f changes sign, by bisection: stops once the
    half-width falls below xtol + 4 eps |x|.  The steps are scipy.optimize.bisect's,
    so the same f values give the same root."""
    fa, fb = f(xa), f(xb)
    if fa * fb > 0.0:
        raise ValueError("f(xa) and f(xb) must have different signs")
    if fa == 0.0:
        return xa
    if fb == 0.0:
        return xb
    dm = xb - xa
    for _ in range(maxiter):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < xtol + _RTOL * abs(xm):
            return xm
    raise RuntimeError(f"bisection did not converge in {maxiter} steps")


@dataclass(frozen=True)
class CapacityRegime:
    """Recommended (p_t, r) and the predicted throughput order for a given W_B."""

    objective: str  # "total" | "transport"
    regime: str  # order expression
    p_t: float
    r: float
    pt_clamped: bool  # transport large-W_B branch wanted p_t > 1/2
    r_clamped: bool  # optimal radius fell outside [connectivity floor, sqrt(2)/2]


def total_throughput_rule(n: int) -> tuple[float, float]:
    """(p_t, r) choice maximizing total throughput: p_t = 1/2, r at the connectivity floor."""
    return 0.5, math.sqrt(math.log(n) / n)


def optimal_params(n: int, w_b: float, objective: str, c1: float) -> CapacityRegime:
    """Pick (p_t, r) maximizing the throughput bracket, with the regime label.

    Connectivity requires r >= sqrt(log(n)/n) (natural log, unit constant), and
    no torus distance exceeds MAX_LINK_LENGTH = sqrt(2)/2.  The transport
    bracket rises in r up to its optimum r0 and falls beyond it, so r0 clamped
    into that range maximizes it there; the clamp is flagged.  The transmit
    probability is restricted to (0, 1/2]; when the transport branch asks for a
    larger p_t it is clamped and flagged.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not 0.0 < w_b <= 1.0:
        raise ValueError(f"W_B must lie in (0, 1], got {w_b}")
    if objective not in ("total", "transport"):
        raise ValueError(f"objective must be 'total' or 'transport', got {objective!r}")
    log_n = math.log(n)
    floor = math.sqrt(log_n / n)

    if objective == "total":
        regime = "Theta(n / (W_B log n))" if w_b >= 1.0 / log_n else "Theta(n)"
        p_t, r = total_throughput_rule(n)
        return CapacityRegime(objective, regime, p_t, r, pt_clamped=False, r_clamped=False)

    if w_b >= 1.0 / log_n:
        want = 1.0 / (w_b * log_n)
        return CapacityRegime(
            objective=objective,
            regime="Theta(sqrt(n) / (W_B sqrt(log n)))",
            p_t=min(0.5, want),
            r=floor,
            pt_clamped=want > 0.5,
            r_clamped=False,
        )
    w = transport_root(n)
    r0 = math.sqrt(2.0 * w / (c1 * w_b))
    regime = "Theta(sqrt(n / W_B))" if w_b >= 1.0 / n else "Theta(n)"
    return CapacityRegime(
        objective=objective,
        regime=regime,
        p_t=0.5,
        r=min(max(r0, floor), MAX_LINK_LENGTH),
        pt_clamped=False,
        r_clamped=not floor <= r0 <= MAX_LINK_LENGTH,
    )
