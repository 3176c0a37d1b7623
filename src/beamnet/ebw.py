"""Effective beam width estimation.

The effective beam width of a pattern is W_B = Pr(Z > X) where Z = G*(phi) for
a uniform orientation phi and X is the normalized distance to a potential
interferer with law F_X(x) = x^h on [0, 1] (or a positive-weight finite mixture
of such laws).  The joint interference probability of a receiver/transmitter
pair is Pr(Y*Z > X), which factors into a product of beam widths for any
single-order law.

exact_beam_width evaluates W_B deterministically as a periodic integral; the
Monte Carlo estimators sample the same probabilities with a standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import derive_seed, run_indexed, shard_rng, shard_sizes
from .patterns import TWO_PI, AntennaPattern, check_alpha

DEFAULT_SAMPLES = 10**6

# Angles of the periodic trapezoid rule in exact_beam_width.  Unless 2h/alpha is
# an even integer, G**(h/alpha) has a cusp at every null and the rule converges
# only algebraically.  Against 2**22 angles (ESNLA, binomial and Chebyshev arrays,
# N = 2..20, D/lambda = 1/2) the error is at rounding level for h/alpha in {1, 2},
# <= 6e-8 at 1/2, <= 4e-6 at 1/4 and <= 3e-5 at 1/8.
EXACT_GRID = 1 << 14


@dataclass(frozen=True)
class BasisDistribution:
    """Normalized-distance law F_X(x) = x^h on [0, 1]."""

    order: float

    def __post_init__(self):
        if not 0.0 < self.order < math.inf:
            raise ValueError(f"order must be finite and positive, got {self.order}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size) ** (1.0 / self.order)

    @property
    def components(self) -> tuple[tuple[float, float], ...]:
        return ((1.0, self.order),)

    def describe(self) -> str:
        return f"h={self.order:g}"


@dataclass(frozen=True)
class MixtureDistribution:
    """Finite positive-weight mixture sum_h w_h x^h with weights summing to 1."""

    weights: tuple[float, ...]
    orders: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) == 0 or len(self.weights) != len(self.orders):
            raise ValueError("mixture needs matching, nonempty weights and orders")
        # Written so that NaN fails each test.
        if not all(0.0 <= w < math.inf for w in self.weights):
            raise ValueError(f"mixture weights must be finite and nonnegative, got {self.weights}")
        if not all(0.0 < h < math.inf for h in self.orders):
            raise ValueError(f"mixture orders must be finite and positive, got {self.orders}")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {sum(self.weights)!r}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        comp = np.minimum(np.searchsorted(cum, rng.random(size), side="left"),
                          len(self.orders) - 1)
        h = np.asarray(self.orders)[comp]
        return rng.random(size) ** (1.0 / h)

    @property
    def components(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.weights, self.orders))

    def describe(self) -> str:
        return "+".join(f"{w:g}*h{h:g}" for w, h in self.components)


Distribution = BasisDistribution | MixtureDistribution


@dataclass(frozen=True)
class EbwEstimate:
    """A Monte Carlo beam-width (or interference) probability estimate with its SE."""

    value: float
    stderr: float
    samples: int


def _bernoulli_estimate(count_fn, samples: int, seed: int, threads: int) -> tuple[float, float]:
    sizes = shard_sizes(samples)

    def work(i: int) -> int:
        return count_fn(shard_rng(seed, i), sizes[i])

    hits = sum(run_indexed(work, len(sizes), threads))
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def _check_inputs(alpha: float, samples: int) -> None:
    check_alpha(alpha)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def effective_beam_width(
    pattern: AntennaPattern,
    dist: Distribution,
    alpha: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    threads: int = 1,
) -> EbwEstimate:
    """Monte Carlo estimate of W_B = Pr(G*(phi) > X), phi ~ U[0, 2pi), X ~ dist."""
    _check_inputs(alpha, samples)

    def count(rng: np.random.Generator, m: int) -> int:
        phi = rng.random(m) * TWO_PI
        x = dist.sample(rng, m)
        return int(np.count_nonzero(pattern.gain_starred(phi, alpha) > x))

    value, se = _bernoulli_estimate(count, samples, seed, threads)
    return EbwEstimate(value=value, stderr=se, samples=samples)


def interference_probability(
    rx: AntennaPattern,
    tx: AntennaPattern,
    dist: Distribution,
    alpha: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    threads: int = 1,
) -> EbwEstimate:
    """Monte Carlo estimate of Pr(Y*Z > X) with Y = G*_rx(theta), Z = G*_tx(phi),
    theta and phi i.i.d. uniform, independent of X."""
    _check_inputs(alpha, samples)

    def count(rng: np.random.Generator, m: int) -> int:
        theta = rng.random(m) * TWO_PI
        phi = rng.random(m) * TWO_PI
        x = dist.sample(rng, m)
        yz = rx.gain_starred(theta, alpha) * tx.gain_starred(phi, alpha)
        return int(np.count_nonzero(yz > x))

    value, se = _bernoulli_estimate(count, samples, seed, threads)
    return EbwEstimate(value=value, stderr=se, samples=samples)


def exact_beam_width(pattern: AntennaPattern, dist: Distribution, alpha: float) -> float:
    """Exact W_B = sum_h w_h * mean_theta G(theta)**(h/alpha).

    Pr(G* > X) = E[F_X(G*)] and F_X(x) = x**h, so W_B is a one-dimensional
    periodic integral.  Omni and sector patterns use their closed forms (1 and
    the beam fraction); arrays use the periodic trapezoid rule on EXACT_GRID
    angles (Trefethen & Weideman, SIAM Review 56, 2014).
    """
    check_alpha(alpha)
    if pattern.kind == "omni":
        return 1.0
    if pattern.kind == "sector":
        return pattern.beam_fraction
    g = pattern.gain(np.arange(EXACT_GRID) * (TWO_PI / EXACT_GRID))
    return float(sum(w * np.mean(g ** (h / alpha)) for w, h in dist.components))


@dataclass(frozen=True)
class BoundsReport:
    """Sandwich check: product of beam widths <= Pr(E_I) <= min beam width."""

    pr_ei: float
    pr_ei_stderr: float
    product_lower: float
    product_stderr: float
    min_upper: float
    min_stderr: float
    passed: bool


def verify_bounds(
    rx: AntennaPattern,
    tx: AntennaPattern,
    mixture: MixtureDistribution,
    alpha: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    threads: int = 1,
) -> BoundsReport:
    """Check product_lower - 3SE <= Pr(YZ > X) <= min_upper + 3SE for a mixture law.

    Equality holds for single-order mixtures and for indicator (sector) patterns;
    distinct orders on a non-indicator pattern produce strict excess over the product.
    """
    pr = interference_probability(rx, tx, mixture, alpha, samples, seed, threads)
    w_rx = effective_beam_width(rx, mixture, alpha, samples, derive_seed(seed, 2, 0), threads)
    w_tx = effective_beam_width(tx, mixture, alpha, samples, derive_seed(seed, 2, 1), threads)
    product = w_rx.value * w_tx.value
    product_se = math.sqrt(
        (w_tx.value * w_rx.stderr) ** 2 + (w_rx.value * w_tx.stderr) ** 2
    )
    if w_rx.value <= w_tx.value:
        upper, upper_se = w_rx.value, w_rx.stderr
    else:
        upper, upper_se = w_tx.value, w_tx.stderr
    lo_ok = pr.value >= product - 3.0 * math.sqrt(pr.stderr**2 + product_se**2)
    hi_ok = pr.value <= upper + 3.0 * math.sqrt(pr.stderr**2 + upper_se**2)
    return BoundsReport(
        pr_ei=pr.value,
        pr_ei_stderr=pr.stderr,
        product_lower=product,
        product_stderr=product_se,
        min_upper=upper,
        min_stderr=upper_se,
        passed=bool(lo_ok and hi_ok),
    )

