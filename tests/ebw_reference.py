"""One-shot Monte Carlo estimators for the tests: every shard draws each stretch
of its stream in one call rng.random(m), phi (theta, then phi, for the
interference probability) then the law's stretches, and evaluates the whole
shard at once.  The library's effective_beam_width reads the same stretches in
blocks (`test_ebw.py`); the sampled joint probability and the sandwich check
are the oracles of the library's exact interference_probability and of
acceptance criteria 6 and 7.  Also a log-sum midpoint rule for W_B at degrees
where a plain null product overflows (`test_cli.py`), and W_B at D/lambda = 1/2
and integer order as a Bessel sum (`test_ebw.py`)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from beamnet._parallel import derive_seed, shard_sizes
from beamnet.ebw import BasisDistribution, EbwEstimate
from beamnet.patterns import TWO_PI, _null_factor


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
    return EbwEstimate(value=p, stderr=math.sqrt(p * (1.0 - p) / samples), samples=samples)


def effective_beam_width(pattern, dist, alpha, samples, seed):
    def count(rng, m):
        phi = rng.random(m) * TWO_PI
        x = _distances(dist, rng, m)
        return int(np.count_nonzero(pattern.gain_starred(phi, alpha) > x))

    return _estimate(count, samples, seed)


def interference_probability(rx, tx, dist, alpha, samples, seed):
    """Pr(Y*Z > X) with Y = G*_rx(theta), Z = G*_tx(phi), theta and phi i.i.d.
    uniform, independent of X."""
    def count(rng, m):
        theta = rng.random(m) * TWO_PI
        phi = rng.random(m) * TWO_PI
        x = _distances(dist, rng, m)
        yz = rx.gain_starred(theta, alpha) * tx.gain_starred(phi, alpha)
        return int(np.count_nonzero(yz > x))

    return _estimate(count, samples, seed)


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


def verify_bounds(rx, tx, mixture, alpha, samples, seed=0) -> BoundsReport:
    """Check product_lower - 3SE <= Pr(YZ > X) <= min_upper + 3SE for a mixture law.

    Equality holds for single-order mixtures and for indicator (sector) patterns;
    distinct orders on a non-indicator pattern produce strict excess over the product.
    """
    pr = interference_probability(rx, tx, mixture, alpha, samples, seed)
    w_rx = effective_beam_width(rx, mixture, alpha, samples, derive_seed(seed, 2, 0))
    w_tx = effective_beam_width(tx, mixture, alpha, samples, derive_seed(seed, 2, 1))
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


def bessel_beam_width(pattern, m: int) -> float:
    """mean_theta G(theta)^m of an array built from its nulls at D/lambda = 1/2, as
    sum_k a_k J0(pi k) (Watson, A Treatise on the Theory of Bessel Functions, 1944).

    In psi = pi sin(theta), G is a cosine polynomial of degree
    deg = 2 len(null_u) + lone_nulls (module docstring of patterns), so G^m is one
    of degree K = m deg, sum_k a_k cos(k psi), and E[cos(k psi)] = J0(pi k) for
    theta uniform.  The a_k come exactly from an FFT of G^m at 2K + 2 equispaced
    psi in [-pi, pi), whose offset -pi turns the k-th coefficient's sign by
    (-1)^k.  G^m is sampled as the unclamped null product raised to the power 2m,
    at sines psi/pi in [-1, 1), which the product's rescaling bound assumes.  The
    sum shares only _null_factor with the library, so it checks the quadrature
    (the null split, Gauss-Jacobi, node counts) and the rescaled product, not the
    gain kernel."""
    if pattern.d_ratio != 0.5:
        raise ValueError("the Bessel sum is an oracle at D/lambda = 1/2 only")
    degree = m * (2 * len(pattern.null_u) + pattern.lone_nulls)
    points = 2 * degree + 2
    psi = -np.pi + TWO_PI * np.arange(points) / points
    f = _null_factor(psi / np.pi, 0.5, pattern.null_u, pattern.null_c, pattern.lone_nulls,
                     pattern._rescaled)
    c = np.fft.rfft(f ** (2 * m))[: degree + 1].real / points
    c[1:] *= 2.0
    c[1::2] *= -1.0
    return float(np.dot(c, j0(np.pi * np.arange(degree + 1))))
