"""Effective beam width and joint interference probability.

The effective beam width of a pattern is W_B = Pr(Z > X) where Z = G*(phi) for
a uniform orientation phi and X is the normalized distance to a potential
interferer with law F_X(x) = x^h on [0, 1] (or a positive-weight finite mixture
of such laws).  The joint interference probability of a receiver/transmitter
pair is Pr(Y*Z > X) with Y = G*_rx(theta), theta uniform and independent of phi.

Since Pr(G* > X) = E[F_X(G*)], W_B = sum_h w_h mean_theta G(theta)^e with
e = h/alpha, and likewise Pr(Y*Z > X) = sum_h w_h mean G_rx^e mean G_tx^e.  For
a single-order law the joint probability is the product of the two beam widths.
For a mixture it lies between that product and the smaller width: both means
fall as e grows (G <= 1), so Chebyshev's sum inequality gives the lower bound,
and a mean of at most 1 the upper.  G depends on theta only through sin(theta),
so each mean is (2/pi) times the integral of G^e over [0, pi/2].  These are
exact_beam_width and interference_probability.

The integral is taken by a null-split Gauss-Jacobi rule (Golub & Welsch, Math.
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

effective_beam_width samples W_B with a standard error, for the sweeps.
It splits the samples into shards of 2^20 (`_parallel`), and shard i draws from
its own (seed, i) stream, laid out as one stretch of uniforms per variate: phi,
then the law's stretches (for a mixture, the component, then x).  A shard is
evaluated in blocks of _BLOCK = 2^14 samples, one cursor per stretch
(`shard_cursors`), so an estimate holds O(2^14) samples per worker whatever the
sample and thread counts, and its value is that of one call rng.random(m) per
stretch, made one after another on the shard's generator.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import run_indexed, shard_cursors, shard_sizes
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

    @property
    def components(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.weights, self.orders))

    def describe(self) -> str:
        return "+".join(f"{w:g}*h{h:g}" for w, h in self.components)


Distribution = BasisDistribution | MixtureDistribution


@dataclass(frozen=True)
class EbwEstimate:
    """A Monte Carlo beam-width estimate with its SE."""

    value: float
    stderr: float
    samples: int


def effective_beam_width(
    pattern: AntennaPattern,
    dist: Distribution,
    alpha: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    threads: int = 1,
) -> EbwEstimate:
    """Monte Carlo estimate of W_B = Pr(G*(phi) > X), phi ~ U[0, 2pi), X ~ dist,
    from `samples` Bernoulli trials read in blocks of _BLOCK (module docstring)."""
    check_alpha(alpha)
    sizes = shard_sizes(samples)

    def hits(i: int) -> int:
        m = sizes[i]
        cursors = shard_cursors(seed, i, 1 + dist.stretches, m)
        count = 0
        for a in range(0, m, _BLOCK):
            u_phi, *u_x = (c.random(min(_BLOCK, m - a)) for c in cursors)
            x = dist.from_uniforms(*u_x)
            count += int(np.count_nonzero(pattern.gain_starred(u_phi * TWO_PI, alpha) > x))
        return count

    p = sum(run_indexed(hits, len(sizes), threads)) / samples
    return EbwEstimate(value=p, stderr=math.sqrt(p * (1.0 - p) / samples), samples=samples)


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


def _gain_means(pattern: AntennaPattern, exponents: list[float]) -> list[float]:
    """mean_theta G(theta)**e for each e in `exponents` (module docstring): 1 for
    omni, the beam fraction for a sector, whose G is an indicator, and for an array
    the null-split Gauss-Jacobi rule, split once for every e.  An array given by
    its taper has no null set, and raises ValueError."""
    if pattern.kind == "omni":
        return [1.0] * len(exponents)
    if pattern.kind == "sector":
        return [pattern.beam_fraction] * len(exponents)
    pieces = _null_split(pattern)
    means = []
    for e in exponents:
        theta, v = _quadrature(pattern, pieces, e)
        means.append(float(np.dot(v, pattern.gain_from_sine(np.sin(theta)) ** e)) / HALF_PI)
    return means


def _law_mean(dist: Distribution, terms: list[float]) -> float:
    """sum_h w_h t_h over the law's orders, taken about the first order's term:
    terms equal across orders (omni, sector) give that term exactly, however the
    weights round."""
    t0 = terms[0]
    return t0 + sum(w * (t - t0) for (w, _), t in zip(dist.components, terms))


def exact_beam_width(pattern: AntennaPattern, dist: Distribution, alpha: float) -> float:
    """Exact W_B = sum_h w_h * mean_theta G(theta)**(h/alpha) (module docstring),
    each mean from _gain_means; an array given by its taper raises ValueError."""
    check_alpha(alpha)
    return _law_mean(dist, _gain_means(pattern, [h / alpha for _, h in dist.components]))


def interference_probability(rx: AntennaPattern, tx: AntennaPattern, dist: Distribution,
                             alpha: float) -> float:
    """Exact Pr(Y*Z > X) = sum_h w_h * mean G_rx**(h/alpha) * mean G_tx**(h/alpha),
    with Y = G*_rx(theta), Z = G*_tx(phi), theta and phi i.i.d. uniform and
    independent of X (module docstring)."""
    check_alpha(alpha)
    exponents = [h / alpha for _, h in dist.components]
    means = zip(_gain_means(rx, exponents), _gain_means(tx, exponents))
    return _law_mean(dist, [a * b for a, b in means])
