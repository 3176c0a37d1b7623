"""Effective beam width estimation.

The effective beam width of a pattern is W_B = Pr(Z > X) where Z = G*(phi) for
a uniform orientation phi and X is the normalized distance to a potential
interferer with law F_X(x) = x^h on [0, 1] (or a positive-weight finite mixture
of such laws).  The joint interference probability of a receiver/transmitter
pair is Pr(Y*Z > X), which factors into a product of beam widths for any
single-order law.

exact_beam_width evaluates W_B deterministically; the Monte Carlo estimators
sample the same probabilities with a standard error.  They split the samples
into shards of 2^20 (`_parallel`), and shard i draws from its own (seed, i)
stream, laid out as one stretch of uniforms per variate: phi (theta, then phi,
for interference_probability), then the law's stretches (for a mixture, the
component, then x).  A shard is evaluated in blocks of _BLOCK = 2^14 samples,
one cursor per stretch, so an estimate holds O(2^14) samples per worker whatever
the sample and thread counts, and its value is that of one draw of each stretch
whole.

Since Pr(G* > X) = E[F_X(G*)], W_B = sum_h w_h mean_theta G(theta)^e with
e = h/alpha, and G depends on theta only through sin(theta), so the mean is
(2/pi) times the integral of G^e over [0, pi/2].

That integral is taken by a null-split Gauss-Jacobi rule (Golub & Welsch, Math.
Comp. 23, 1969; Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  An array
built from its nulls knows them in closed form (AntennaPattern.null_sines), and
at a null of multiplicity mu, G^e has a cusp |theta - theta_k|^(2 mu e) (at the
horizon theta = pi/2, |pi/2 - theta|^(4 mu e)).  The rule splits [0, pi/2] at
the visible nulls and gives each piece a Gauss-Jacobi weight that carries the
fractional part of the order at each end; the integer part stays in the
integrand, which is then analytic on the piece.  A piece is bisected while it
is more than SPLIT_RATIO times as long as its distance to the nearest zero of G
off its ends: the mirrored nulls -theta_k and pi - theta_k, and the complex
zeros pi/2 +- i arccosh(s') of nulls past the horizon (sin(theta) = s' > 1).
The integrand is then analytic inside a Bernstein ellipse of rho >= 1 + sqrt(2)
around each piece, and the piece's node count grows with the phase it spans.
Against 40-digit quadrature the rule agrees to about 1e-13 for ESNLA, binomial
and Chebyshev arrays up to N = 200.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import derive_seed, run_indexed, shard_cursors, shard_sizes
from .patterns import _BLOCK, TWO_PI, AntennaPattern, check_alpha

DEFAULT_SAMPLES = 10**6

HALF_PI = 0.5 * math.pi

# The null-split rule (module docstring): each piece is at most SPLIT_RATIO times as
# long as its distance to the nearest zero of G off its ends, and gets NODES_PER_PIECE
# nodes plus NODE_SCALE * sqrt(e N) per radian of phase it spans.
SPLIT_RATIO = 2.0
NODES_PER_PIECE = 12
NODE_SCALE = 2.0


@dataclass(frozen=True)
class BasisDistribution:
    """Normalized-distance law F_X(x) = x^h on [0, 1]."""

    order: float
    stretches = 1  # uniforms per sample, taken as from_uniforms' arguments

    def __post_init__(self):
        if not 0.0 < self.order < math.inf:
            raise ValueError(f"order must be finite and positive, got {self.order}")

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """X by inversion, X = U^(1/h)."""
        return u ** (1.0 / self.order)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.from_uniforms(rng.random(size))

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
    stretches = 2  # uniforms per sample, taken as from_uniforms' arguments

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

    def from_uniforms(self, u_comp: np.ndarray, u: np.ndarray) -> np.ndarray:
        """X = U^(1/h) with the component h chosen by u_comp."""
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        comp = np.minimum(np.searchsorted(cum, u_comp, side="left"), len(self.orders) - 1)
        return u ** (1.0 / np.asarray(self.orders)[comp])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` draws of X: the component uniforms, then the x uniforms."""
        return self.from_uniforms(rng.random(size), rng.random(size))

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


def _bernoulli_estimate(count_fn, stretches: int, samples: int, seed: int,
                        threads: int) -> tuple[float, float]:
    """Pr(event) and its standard error from `samples` Bernoulli trials, where
    count_fn(*u) counts the events among a block of samples given by `stretches`
    arrays of uniforms, one per variate.  Each shard is read in blocks of _BLOCK
    samples, a cursor per stretch (`shard_cursors`): the draws of one call
    rng.random(m) per stretch, in O(_BLOCK) memory per worker."""
    sizes = shard_sizes(samples)

    def work(i: int) -> int:
        m = sizes[i]
        cursors = shard_cursors(seed, i, stretches, m)
        return sum(count_fn(*(c.random(min(_BLOCK, m - a)) for c in cursors))
                   for a in range(0, m, _BLOCK))

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

    def count(u_phi: np.ndarray, *u_x: np.ndarray) -> int:
        x = dist.from_uniforms(*u_x)
        return int(np.count_nonzero(pattern.gain_starred(u_phi * TWO_PI, alpha) > x))

    value, se = _bernoulli_estimate(count, 1 + dist.stretches, samples, seed, threads)
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

    def count(u_theta: np.ndarray, u_phi: np.ndarray, *u_x: np.ndarray) -> int:
        x = dist.from_uniforms(*u_x)
        yz = rx.gain_starred(u_theta * TWO_PI, alpha) * tx.gain_starred(u_phi * TWO_PI, alpha)
        return int(np.count_nonzero(yz > x))

    value, se = _bernoulli_estimate(count, 2 + dist.stretches, samples, seed, threads)
    return EbwEstimate(value=value, stderr=se, samples=samples)


def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Jacobi nodes and weights for (1 - x)^a (1 + x)^b on [-1, 1],
    a, b >= 0 (Golub & Welsch).  The orthonormal polynomials obey
    beta_{k+1} p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1}; the nodes are the
    eigenvalues of the Jacobi matrix of the alpha_k and beta_k, polished by one
    Newton step on that recurrence, and the weights are the Christoffel numbers
    1 / sum_{k<n} p_k(x)^2, scaled to the weight's integral
    mu0 = 2^(a+b+1) B(a+1, b+1)."""
    k = np.arange(1.0, n + 1.0)
    s = 2.0 * k + a + b
    alpha = np.concatenate([[(b - a) / (2.0 + a + b)], (b * b - a * a) / (s[:-1] * (s[:-1] + 2.0))])
    beta = 2.0 / s * np.sqrt((k + a) * (k + b) * k * (k + a + b) / ((s + 1.0) * (s - 1.0)))
    back = np.concatenate([[0.0], beta[:-1]])  # beta_0 = 0, ..., beta_{n-1}
    x = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta[:-1], -1))

    p_prev, p, dp_prev, dp = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
    for j in range(n):  # p_n and its derivative, for the Newton step
        step = x - alpha[j]
        p_prev, p, dp_prev, dp = (p, (step * p - back[j] * p_prev) / beta[j],
                                  dp, (p + step * dp - back[j] * dp_prev) / beta[j])
    x = x - p / dp

    p_prev, p, total = np.zeros(n), np.ones(n), np.ones(n)
    for j in range(n - 1):  # p_0^2 + ... + p_{n-1}^2
        p_prev, p = p, ((x - alpha[j]) * p - back[j] * p_prev) / beta[j]
        total += p * p
    mu0 = 2.0 ** (a + b + 1.0) * math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                                          - math.lgamma(a + b + 2.0))
    w = 1.0 / total
    return x, w * (mu0 / w.sum())


@functools.lru_cache(maxsize=256)
def _jacobi_rule(nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for the weight (1 - x)^a (1 + x)^b on [-1, 1], as 1 + x and
    the weights divided by that weight function: sum_i v_i f(x_i) integrates
    f(x) = (1 - x)^a (1 + x)^b g(x), g smooth.  Read-only: every caller shares them."""
    x, w = _gauss_jacobi(nodes, a, b)
    xp1, v = 1.0 + x, w / ((1.0 - x) ** a * (1.0 + x) ** b)
    xp1.flags.writeable = v.flags.writeable = False
    return xp1, v


def _null_split(pattern: AntennaPattern) -> list[tuple[float, float, float, float]]:
    """Pieces of [0, pi/2] in theta as (lo, hi, order at lo, order at hi): the order
    of G's zero at an end, as a power of the distance per unit of e = h/alpha."""
    s, mult = pattern.null_sines()
    visible = s < 1.0
    nulls = np.arcsin(s[visible]).tolist()
    horizon = 4.0 * float(mult[s == 1.0].sum())
    ends = [0.0, *nulls, HALF_PI]
    orders = [0.0, *(2.0 * mult[visible]).tolist(), horizon]
    # Zeros of G off the pieces' ends: the visible nulls, their mirrors -theta_k
    # and pi - theta_k, the horizon, and pi/2 +- i arccosh(s') for each s' > 1 with
    # u(s') = u_k (the invisible nulls and the aliases 1/(D/lambda) - s_k).
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


def _quadrature(pattern: AntennaPattern, pieces, e: float) -> tuple[np.ndarray, np.ndarray]:
    """Angles in [0, pi/2] and weights v with int_0^{pi/2} G^e = sum v G^e."""
    degree = 2 * len(pattern.null_u) + pattern.lone_nulls
    per_sine = NODE_SCALE * math.sqrt(e * degree) * 2.0 * math.pi * pattern.d_ratio
    groups: dict[tuple, list] = {}
    for lo, hi, o_lo, o_hi in pieces:
        nodes = NODES_PER_PIECE + math.ceil(per_sine * (math.sin(hi) - math.sin(lo)))
        # (hi - theta)^(o_hi e) is (hi - theta)^a times an integer power, which is
        # analytic: the weight carries only the fractional part of each order.
        groups.setdefault((nodes, o_hi * e % 1.0, o_lo * e % 1.0), []).append((lo, hi))
    angles, weights = [], []
    for key, ends in groups.items():
        xp1, v = _jacobi_rule(*key)
        lo, hi = np.array(ends).T
        half = 0.5 * (hi - lo)[:, None]
        angles.append((lo[:, None] + half * xp1).ravel())
        weights.append((half * v).ravel())
    return np.concatenate(angles), np.concatenate(weights)


def exact_beam_width(pattern: AntennaPattern, dist: Distribution, alpha: float) -> float:
    """Exact W_B = sum_h w_h * mean_theta G(theta)**(h/alpha) (module docstring).

    Omni and sector patterns use their closed forms (1 and the beam fraction);
    arrays use the null-split Gauss-Jacobi rule.  An array given by its taper
    has no null set, and raises ValueError.
    """
    check_alpha(alpha)
    if pattern.kind == "omni":
        return 1.0
    if pattern.kind == "sector":
        return pattern.beam_fraction
    pieces = _null_split(pattern)
    total = 0.0
    for w, h in dist.components:
        e = h / alpha
        theta, v = _quadrature(pattern, pieces, e)
        total += w * float(np.dot(v, pattern.gain_from_sine(np.sin(theta)) ** e))
    return total / HALF_PI


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

