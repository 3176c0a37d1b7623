"""One-shot Monte Carlo estimators for the tests: every shard draws each stretch
of its stream in one call rng.random(m), phi (theta, then phi, for the
interference probability) then the law's stretches, and evaluates the whole
shard at once.  The library's effective_beam_width reads the same stretches in
blocks (`test_ebw.py`); the sampled joint probability and the sandwich check
are the oracles of the library's exact interference_probability and of
acceptance criteria 6 and 7.  The exact W_B one pattern at a time, split,
placed and summed with per-pattern Python, the bit-exact oracle of the
library's batch (`exact_beam_width`, `exact_interference_probability`).  Also a
log-sum midpoint rule for W_B of any array built from its nulls, at degrees
where a plain null product overflows (`test_cli.py`) and at orders where G
underflows (`test_ebw.py`), and W_B at D/lambda = 1/2 and integer order as a
Bessel sum (`test_ebw.py`)."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from beamnet._parallel import derive_seed, shard_sizes
from beamnet.ebw import (HALF_PI, NODE_SCALE, NODES_PER_PIECE, SPLIT_RATIO, BasisDistribution,
                         EbwEstimate, _jacobi_rule, _law_mean)
from beamnet.patterns import TWO_PI, _null_gains


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


def log_gains_midpoint(pattern, points: int) -> np.ndarray:
    """ln G of an array built from its nulls at the midpoints of `points` equal
    steps of theta in [0, pi/2], summed in logs so that it can neither overflow
    nor underflow: 2 sum_k ln (|u - u_k|/u_k) + 2m ln |cos(psi/2)|, lone nulls
    included, with u = sin^2(psi/2) and u - u_k taken as c_k - c, c = cos^2(psi/2),
    where c < u.  The pair factors are multiplied 16 at a time before their log:
    each lies in [0, 1/u_k], so 16 of them stay inside float64's range for the
    degrees the tests take."""
    theta = (np.arange(points) + 0.5) * (0.5 * np.pi / points)
    half = np.pi * pattern.d_ratio * np.sin(theta)
    u, c = np.sin(half) ** 2, np.cos(half) ** 2
    log_g = 2.0 * pattern.lone_nulls * np.log(np.abs(np.cos(half)))
    pairs = len(pattern.null_u)
    factors = np.ones((1024, -(-pairs // 16) * 16))
    for x, x_k, at in ((u, pattern.null_u, u <= c), (c, pattern.null_c, c < u)):
        at = np.flatnonzero(at)
        for a in range(0, len(at) if pairs else 0, 1024):
            i = at[a : a + 1024]
            f = factors[: len(i)]
            np.abs(np.subtract.outer(x[i], x_k), out=f[:, :pairs])
            f[:, :pairs] /= pattern.null_u
            with np.errstate(divide="ignore"):
                log_g[i] += 2.0 * np.log(f.reshape(len(i), -1, 16).prod(axis=2)).sum(axis=1)
    return log_g


def beam_width_log_sum(pattern, orders, points: int) -> list[float]:
    """mean_theta G(theta)^e for each order e in `orders`, by the midpoint rule on
    `points` angles over log_gains_midpoint: so no G^e is lost to underflow, at any
    degree or order."""
    log_g = log_gains_midpoint(pattern, points)
    return [float(np.exp(e * log_g).mean()) for e in orders]


def bessel_beam_width(pattern, m: int) -> float:
    """mean_theta G(theta)^m of an array built from its nulls at D/lambda = 1/2, as
    sum_k a_k J0(pi k) (Watson, A Treatise on the Theory of Bessel Functions, 1944).

    In psi = pi sin(theta), G is a cosine polynomial of degree
    deg = 2 len(null_u) + lone_nulls (module docstring of patterns), so G^m is one
    of degree K = m deg, sum_k a_k cos(k psi), and E[cos(k psi)] = J0(pi k) for
    theta uniform.  The a_k come exactly from an FFT of G^m at 2K + 2 equispaced
    psi in [-pi, pi), whose offset -pi turns the k-th coefficient's sign by
    (-1)^k.  G^m is sampled from the gain kernel at sines psi/pi in [-1, 1),
    which its rescaling bound assumes; the clamp moves G only where it is below
    1e-300.  The sum shares only that kernel with the library, so it checks the
    quadrature (the null split, Gauss-Jacobi, node counts) and the rescaled
    product."""
    if pattern.d_ratio != 0.5:
        raise ValueError("the Bessel sum is an oracle at D/lambda = 1/2 only")
    degree = m * (2 * len(pattern.null_u) + pattern.lone_nulls)
    points = 2 * degree + 2
    psi = (-np.pi + TWO_PI * np.arange(points) / points).reshape(1, -1)
    g = _null_gains(psi / np.pi, *pattern._null_args)[0]
    c = np.fft.rfft(g ** m)[: degree + 1].real / points
    c[1:] *= 2.0
    c[1::2] *= -1.0
    return float(np.dot(c, j0(np.pi * np.arange(degree + 1))))


def null_sines(pattern) -> tuple[np.ndarray, np.ndarray]:
    """Where an array built from its nulls vanishes, as s = sin(theta) >= 0, and
    the multiplicity of each null of the array factor: s_k = psi_k/(2 pi D/lambda)
    once per null pair, ascending, then s = 1/(2 D/lambda) for the lone nulls
    (multiplicity m)."""
    s = np.sort(np.arctan2(np.sqrt(pattern.null_u), np.sqrt(pattern.null_c)))
    s /= math.pi * pattern.d_ratio
    mult = np.ones(len(s), dtype=int)
    if pattern.lone_nulls:
        s = np.append(s, 0.5 / pattern.d_ratio)
        mult = np.append(mult, pattern.lone_nulls)
    return s, mult


def null_split(pattern) -> list[tuple[float, float, float, float]]:
    """One pattern's pieces of [0, pi/2] as (lo, hi, order at lo, order at hi), by
    a depth-first bisection over the sorted real zeros of G."""
    s, mult = null_sines(pattern)
    visible = s < 1.0
    nulls = np.arcsin(s[visible]).tolist()
    horizon = 4.0 * float(mult[s == 1.0].sum())
    ends = [0.0, *nulls, HALF_PI]
    orders = [0.0, *(2.0 * mult[visible]).tolist(), horizon]
    mirrors = nulls[::-1]
    real = [-math.inf, *(-t for t in mirrors), *nulls, *([HALF_PI] if horizon else []),
            *(math.pi - t for t in mirrors), math.inf]
    beyond = np.concatenate([s, 1.0 / pattern.d_ratio - s])
    beyond = beyond[beyond > 1.0]
    tau = math.acosh(beyond.min()) if beyond.size else math.inf

    pieces = []
    todo = list(zip(ends[:-1], ends[1:], orders[:-1], orders[1:]))[::-1]
    while todo:
        lo, hi, o_lo, o_hi = todo.pop()
        reach = min(lo - real[bisect.bisect_left(real, lo) - 1],
                    real[bisect.bisect_right(real, hi)] - hi,
                    math.hypot(HALF_PI - hi, tau))
        if hi - lo > SPLIT_RATIO * reach:
            mid = 0.5 * (lo + hi)
            todo += [(mid, hi, 0.0, o_hi), (lo, mid, o_lo, 0.0)]
        else:
            pieces.append((lo, hi, o_lo, o_hi))
    return pieces


def quadrature(pattern, pieces, e: float) -> tuple[np.ndarray, np.ndarray]:
    """One pattern's angles in [0, pi/2] and weights v, with the pieces grouped by
    rule in a dict."""
    degree = 2 * len(pattern.null_u) + pattern.lone_nulls
    per_sine = NODE_SCALE * math.sqrt(e * degree) * 2.0 * math.pi * pattern.d_ratio
    groups: dict[tuple, list] = {}
    for lo, hi, o_lo, o_hi in pieces:
        nodes = NODES_PER_PIECE + math.ceil(per_sine * (math.sin(hi) - math.sin(lo)))
        groups.setdefault((nodes, o_hi * e % 1.0, o_lo * e % 1.0), []).append((lo, hi))
    angles, weights = [], []
    for key, ends in groups.items():
        xp1, v = _jacobi_rule(*key)
        lo, hi = np.array(ends).T
        half = 0.5 * (hi - lo)[:, None]
        angles.append((lo[:, None] + half * xp1).ravel())
        weights.append((half * v).ravel())
    return np.concatenate(angles), np.concatenate(weights)


def gain_means(pattern, exponents) -> list[float]:
    """mean_theta G(theta)**e of one pattern for each e in `exponents`."""
    if pattern.kind == "omni":
        return [1.0] * len(exponents)
    if pattern.kind == "sector":
        return [pattern.beam_fraction] * len(exponents)
    pieces = null_split(pattern)
    means = []
    for e in exponents:
        theta, v = quadrature(pattern, pieces, e)
        means.append(float(np.dot(v, pattern.gain_from_sine(np.sin(theta)) ** e)) / HALF_PI)
    return means


def exact_beam_width(pattern, dist, alpha) -> float:
    """The exact W_B of one pattern, by the per-pattern route."""
    return _law_mean(dist, gain_means(pattern, [h / alpha for _, h in dist.components]))


def exact_interference_probability(rx, tx, dist, alpha) -> float:
    """The exact Pr(Y*Z > X), by the per-pattern route."""
    exponents = [h / alpha for _, h in dist.components]
    means = zip(gain_means(rx, exponents), gain_means(tx, exponents))
    return _law_mean(dist, [a * b for a, b in means])
