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
exact_beam_widths, exact_beam_width and interference_probability.

The integral is taken by a null-split Gauss-Jacobi rule (Golub & Welsch, Math.
Comp. 23, 1969; Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  An array
built from its nulls knows them in closed form (u_k and c_k give their sines
s_k = sin(theta_k), _null_split), and at a null of multiplicity mu, G^e has a
cusp |theta - theta_k|^(2 mu e) (at the horizon theta = pi/2,
|pi/2 - theta|^(4 mu e)).  The rule splits [0, pi/2] at the visible nulls and
gives each piece a Gauss-Jacobi weight that carries the fractional part of the
order at each end; the integer part stays in the integrand, which is then
analytic on the piece.  A piece is bisected while it is more than SPLIT_RATIO
times as long as its distance to the nearest zero of G off its ends: the
mirrored nulls -theta_k and pi - theta_k, and the complex zeros
pi/2 +- i arccosh(s') of nulls past the horizon (sin(theta) = s' > 1).
The integrand is then analytic inside a Bernstein ellipse of rho >= 1 + sqrt(2)
around each piece, and the piece's node count grows with the phase it spans.
Against 40-digit quadrature the rule agrees to about 1e-13 for ESNLA, binomial
and Chebyshev arrays up to N = 200.  At an order e < 1 a gain below
patterns.NULL_CLAMP counts as exp(e ln G), not 0 (the kernel's `order`).

exact_beam_widths takes a batch of patterns through the rule at once: the
pieces of all of them are bisected level by level, and then runs of patterns
with at most _BLOCK // 4 nodes in all (_runs) get their nodes, placed one rule
at a time into a grid of one row per pattern, and their gains from the kernel
every array's gain goes through (patterns._null_gains), all from one
description of the batch (patterns._null_batch).  Each pattern's mean is
np.dot over its own nodes, in the order a pattern alone would place them, so a
W_B has the same bits in any batch as on its own.  exact_beam_width is a batch
of one pattern, and interference_probability one of two.

effective_beam_widths samples the W_B of a batch of patterns with standard
errors, for the sweeps, all patterns from the same draws (common random
numbers).  It splits the samples into shards of 2^20 (`_parallel`), and shard i
draws from its own (seed, i) stream, laid out as one stretch of uniforms per
variate: phi, then the law's stretches (for a mixture, the component, then x).
A shard is evaluated in blocks of _BLOCK = 2^14 samples, one cursor per stretch
(`shard_cursors`); a block's phi, X and sin(phi) are taken once, X is raised
to the power alpha in place, and every pattern counts its hits G(phi) > X^alpha
among them.  Both powers are increasing, so these are the hits G*(phi) > X but
where the two powers' rounding splits a G within an ulp or so of X^alpha,
which no draw of the tests or the benchmark does; a gain clamped to 0 misses
either way.  Each pattern gets its gains on its own, an array's from
gain_from_sine on the block's sines and a sector's from gain.
So an estimate holds O(2^14) samples per worker whatever the sample and thread
counts, and each pattern's value is that of one call rng.random(m) per
stretch, made one after another on the shard's generator: the same bits in any
batch as alone (effective_beam_width is a batch of one).  Threads split the
draws, never the patterns: each takes a run of whole blocks of a shard, opened
at its first draw, and the hit counts are integers, so no result depends on
the thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import run_indexed, shard_cursors, shard_sizes
from .patterns import _BLOCK, TWO_PI, AntennaPattern, _null_batch, _null_gains, check_alpha

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


def effective_beam_widths(
    patterns,
    dist: Distribution,
    alpha: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    threads: int = 1,
) -> list[EbwEstimate]:
    """Monte Carlo estimates of W_B = Pr(G*(phi) > X), phi ~ U[0, 2pi), X ~ dist,
    of each pattern from the same `samples` draws of (phi, X), read in blocks of
    _BLOCK (module docstring).  A block's phi, X and sin(phi) are taken once for
    all patterns, so each pattern's estimate has the bits it has alone.  An omni
    pattern has G* = 1 > X on every trial, so its estimate is exactly 1 with SE 0;
    a batch of omni patterns draws nothing."""
    check_alpha(alpha)
    sizes = shard_sizes(samples)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    drawn = [p for p in patterns if p.kind != "omni"]
    arrays = any(p.kind == "array" for p in drawn)
    # Each shard's blocks in up to `threads` runs of whole blocks, a task each.
    tasks = []
    for i, m in enumerate(sizes if drawn else ()):
        step = _BLOCK * -(-m // (_BLOCK * threads))
        tasks += [(i, a, min(a + step, m)) for a in range(0, m, step)]

    def hits(k: int) -> np.ndarray:
        i, start, stop = tasks[k]
        cursors = shard_cursors(seed, i, 1 + dist.stretches, sizes[i], start)
        count = np.zeros(len(drawn), dtype=np.int64)
        for a in range(start, stop, _BLOCK):
            u_phi, *u_x = (c.random(min(_BLOCK, stop - a)) for c in cursors)
            x = dist.from_uniforms(*u_x)
            np.power(x, alpha, out=x)  # G* > X where G > X^alpha (module docstring)
            theta = np.multiply(u_phi, TWO_PI, out=u_phi)
            sines = np.sin(theta) if arrays else None
            for j, p in enumerate(drawn):
                g = p.gain_from_sine(sines) if p.kind == "array" else p.gain(theta)
                count[j] += np.count_nonzero(g > x)
        return count

    counts = iter(sum(run_indexed(hits, len(tasks), threads), np.zeros(len(drawn), np.int64)))
    out = []
    for p in patterns:
        value = 1.0 if p.kind == "omni" else int(next(counts)) / samples
        out.append(EbwEstimate(value=value, stderr=math.sqrt(value * (1.0 - value) / samples),
                               samples=samples))
    return out


def effective_beam_width(
    pattern: AntennaPattern,
    dist: Distribution,
    alpha: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    threads: int = 1,
) -> EbwEstimate:
    """effective_beam_widths of the one pattern."""
    return effective_beam_widths([pattern], dist, alpha, samples, seed, threads)[0]


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


def _null_split(nulls) -> tuple[np.ndarray, ...]:
    """Pieces of [0, pi/2] in theta for every pattern of `nulls`, as arrays (pattern
    index, lo, hi, order at lo, order at hi), by pattern and then by lo: the order of
    G's zero at an end, as a power of the distance per unit of e = h/alpha."""
    d, lone, owner, u, c = nulls.d_ratio, nulls.lone_nulls, nulls.owner, nulls.u, nulls.c
    index = np.arange(len(d))
    # Where G vanishes, as s = sin(theta) >= 0 with the null's multiplicity:
    # s_k = psi_k/(2 pi D/lambda) once per null pair, ascending, then s = 1/(2 D/lambda)
    # for the lone nulls.  A null with s < 1 is visible at theta = arcsin(s) and
    # pi - arcsin(s); s = 1 is the horizon theta = pi/2; s > 1 is not visible.
    with_lone = lone > 0
    pat = np.concatenate([owner, index[with_lone]])
    s = np.concatenate([np.arctan2(np.sqrt(u), np.sqrt(c)) / (math.pi * d)[owner],
                        0.5 / d[with_lone]])
    mult = np.concatenate([np.ones(len(u), dtype=int), lone[with_lone]])
    order = np.lexsort((s, np.arange(len(s)) >= len(u), pat))
    pat, s, mult = pat[order], s[order], mult[order]
    horizon = 4.0 * np.bincount(pat[s == 1.0], mult[s == 1.0], len(d))
    # The nearest complex zero off the real line: pi/2 +- i arccosh(s') for the least
    # s' > 1 with u(s') = u_k (the invisible nulls and the aliases 1/(D/lambda) - s_k).
    beyond = np.concatenate([s, (1.0 / d)[pat] - s])
    past = beyond > 1.0
    least = np.full(len(d), math.inf)
    np.minimum.at(least, np.concatenate([pat, pat])[past], beyond[past])
    tau = np.array([math.acosh(x) for x in least.tolist()])

    # Interval i of pattern p (row start[p] + i) runs between its ends E_i and
    # E_{i+1}, E = 0, the visible nulls t_1 < ... < t_m, pi/2.  The zeros of G on
    # the real line are the t_k, their mirrors -t_k and pi - t_k, and the horizon.
    # So the nearest zero below a piece's lo is zeros_below[row] (t_i, or -t_1 for
    # i = 0), or the one before it when lo is E_i; the nearest above its hi is
    # zeros_above[row + p] (t_{i+1}, or past t_m the horizon, then pi - t_m), or
    # the one after it when hi is E_{i+1} and that is a zero.
    visible = s < 1.0
    t, t_pat, t_order = np.arcsin(s[visible]), pat[visible], 2.0 * mult[visible]
    m = np.bincount(t_pat, minlength=len(d))
    start = np.cumsum(m + 1) - (m + 1)
    rows = int(np.sum(m + 1))
    row_pat = np.repeat(index, m + 1)
    at = np.arange(len(t)) + t_pat
    left, right = np.zeros(rows), np.full(rows, HALF_PI)
    left[at + 1] = right[at] = t
    o_left, o_right = np.zeros(rows), horizon[row_pat]
    o_left[at + 1] = o_right[at] = t_order
    has = m > 0
    zeros_below = left.copy()
    zeros_below[start] = np.where(has, -left[np.minimum(start + 1, rows - 1)], -math.inf)
    mirror = np.where(has, math.pi - right[np.maximum(start + m - 1, 0)], math.inf)
    zeros_above = np.empty(rows + len(d))
    zeros_above[at + t_pat] = t
    zeros_above[start + index + m] = np.where(horizon > 0.0, HALF_PI, mirror)
    zeros_above[start + index + m + 1] = mirror

    # Bisect every piece more than SPLIT_RATIO times as long as its distance to the
    # nearest zero off its ends, level by level.  The complex zeros lie
    # hypot(pi/2 - hi, tau) away.
    done = []
    row, lo, hi = np.arange(rows), left, right
    while row.size:
        p = row_pat[row]
        i = row - start[p]
        below = zeros_below[row - ((lo == left[row]) & (i > 0))]
        above = zeros_above[row + p + ((hi == right[row]) & ((i < m[p]) | (horizon[p] > 0.0)))]
        reach = np.minimum(np.minimum(lo - below, above - hi), np.hypot(HALF_PI - hi, tau[p]))
        split = hi - lo > SPLIT_RATIO * reach
        done.append((row[~split], lo[~split], hi[~split]))
        row, lo, hi = row[split], lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        row, lo, hi = (np.concatenate(h) for h in ((row, row), (lo, mid), (mid, hi)))
    row, lo, hi = (np.concatenate(col) for col in zip(*done))
    order = np.lexsort((lo, row))
    row, lo, hi = row[order], lo[order], hi[order]
    # A piece keeps its interval's order at an end it shares with the interval.
    return (row_pat[row], lo, hi, np.where(lo == left[row], o_left[row], 0.0),
            np.where(hi == right[row], o_right[row], 0.0))


def _node_counts(nulls, pieces, e: float) -> np.ndarray:
    """Each piece's node count: NODES_PER_PIECE plus NODE_SCALE * sqrt(e N) per
    radian of phase it spans (module docstring)."""
    pat, lo, hi = pieces[:3]
    degree = 2 * nulls.count + nulls.lone_nulls
    per_sine = NODE_SCALE * np.sqrt(e * degree) * 2.0 * math.pi * nulls.d_ratio
    return NODES_PER_PIECE + np.ceil(per_sine[pat] * (np.sin(hi) - np.sin(lo))).astype(int)


def _quadrature(pieces, nodes, e: float) -> tuple[np.ndarray, np.ndarray]:
    """Sines of angles in [0, pi/2] and weights v with int_0^{pi/2} G^e = sum v G^e
    for each pattern of `pieces` (consecutive indices), one row per pattern,
    padded with sin(theta) = 0 and v = 0 to the longest row.  A piece's
    Gauss-Jacobi rule is keyed by its node count and fractional end orders; a
    pattern's nodes run key by key, in the order of each key's first piece, and
    piece by piece within a key."""
    pat, lo, hi, o_lo, o_hi = pieces
    # (hi - theta)^(o_hi e) is (hi - theta)^a times an integer power, which is
    # analytic: the weight carries only the fractional part of each order.
    a, b = o_hi * e % 1.0, o_lo * e % 1.0
    by_key = np.lexsort((pat, b, a, nodes))  # stable: by piece within (key, pattern)
    key = np.ones(len(by_key), dtype=bool)
    key[1:] = np.diff(nodes[by_key]) != 0
    key[1:] |= (np.diff(a[by_key]) != 0) | (np.diff(b[by_key]) != 0)
    run = key.copy()
    run[1:] |= np.diff(pat[by_key]) != 0
    first = np.empty(len(by_key), dtype=int)  # the first piece of each (pattern, key)
    first[by_key] = by_key[run][np.cumsum(run) - 1]
    layout = np.argsort(first, kind="stable")
    offset = np.empty(len(by_key), dtype=int)
    offset[layout] = np.cumsum(nodes[layout]) - nodes[layout]
    row = pat - pat[0]
    count = np.bincount(row, nodes).astype(int)  # each pattern's nodes
    width = int(count.max())
    offset += row * width - (np.cumsum(count) - count)[row]  # into the padded grid
    sines, weights = np.zeros(len(count) * width), np.zeros(len(count) * width)
    starts = np.flatnonzero(key)
    for j, stop in zip(starts, [*starts[1:], len(by_key)]):
        k = by_key[j:stop]
        xp1, v = _jacobi_rule(int(nodes[k[0]]), float(a[k[0]]), float(b[k[0]]))
        half = 0.5 * (hi[k] - lo[k])[:, None]
        at = offset[k][:, None] + np.arange(len(xp1))
        sines[at] = np.sin(lo[k][:, None] + half * xp1)
        weights[at] = half * v
    return sines.reshape(-1, width), weights.reshape(-1, width)


def _runs(kind, nodes):
    """Split patterns, with `kind` (lone nulls, rescaling) and `nodes` nodes each,
    into runs k:l: one pattern, or consecutive patterns of one kind with at most
    _BLOCK // 4 nodes together.  A run's gains hold nine arrays of its nodes at
    once (sines, weights, gains and the kernel's six of scratch; a rescaled
    run one and a half more, the exponents): runs of a full _BLOCK left
    reproduce_tableC's peak RSS about 1 MB higher than runs of a quarter, and
    were no faster (2-vCPU x86 virtual machine)."""
    k = 0
    while k < len(kind):
        l, total = k + 1, nodes[k]
        while l < len(kind) and kind[l] == kind[k] and total + nodes[l] <= _BLOCK // 4:
            l, total = l + 1, total + nodes[l]
        yield k, l
        k = l


def _gain_means(patterns, exponents: list[float]) -> list[list[float]]:
    """mean_theta G(theta)**e for each pattern and each e in `exponents` (module
    docstring): 1 for omni, the beam fraction for a sector, whose G is an indicator,
    and for the arrays the null-split Gauss-Jacobi rule, split once for every e.
    The arrays go through the rule together, a run of patterns (_runs) at a time,
    each run's gains from one _null_gains call on its padded grid of nodes.  Each
    mean is np.dot over its own pattern's nodes, so it does not depend on the
    other patterns.  An array given by its taper has no null set, and raises
    ValueError."""
    means: list = [None] * len(patterns)
    arrays = []
    for i, p in enumerate(patterns):
        if p.kind == "omni":
            means[i] = [1.0] * len(exponents)
        elif p.kind == "sector":
            means[i] = [p.beam_fraction] * len(exponents)
        elif p.null_u is None:
            raise ValueError(f"{p.label} has no null set (null_u): it is given by its taper")
        else:
            arrays.append(i)
    if not arrays:
        return means
    nulls = _null_batch([patterns[i] for i in arrays])
    pieces = _null_split(nulls)
    cut = np.searchsorted(pieces[0], np.arange(len(arrays) + 1))  # each pattern's pieces

    per_e = []
    for e in exponents:
        nodes = _node_counts(nulls, pieces, e)
        per_pattern = np.add.reduceat(nodes, cut[:-1]).tolist()
        row = []
        for k, l in _runs(nulls.kind, per_pattern):
            part = slice(cut[k], cut[l])
            sines, v = _quadrature([col[part] for col in pieces], nodes[part], e)
            g_e = _null_gains(sines, *nulls.rows(range(k, l)), order=e)
            for i, n in enumerate(per_pattern[k:l]):
                row.append(float(np.dot(v[i, :n], g_e[i, :n])) / HALF_PI)
        per_e.append(row)
    for i, row in zip(arrays, zip(*per_e)):
        means[i] = list(row)
    return means


def _law_mean(dist: Distribution, terms: list[float]) -> float:
    """sum_h w_h t_h over the law's orders, taken about the first order's term:
    terms equal across orders (omni, sector) give that term exactly, however the
    weights round."""
    t0 = terms[0]
    return t0 + sum(w * (t - t0) for (w, _), t in zip(dist.components, terms))


def exact_beam_widths(patterns, dist: Distribution, alpha: float) -> list[float]:
    """Exact W_B = sum_h w_h * mean_theta G(theta)**(h/alpha) (module docstring) of
    each pattern, all means from one _gain_means; an array given by its taper raises
    ValueError."""
    check_alpha(alpha)
    exponents = [h / alpha for _, h in dist.components]
    return [_law_mean(dist, means) for means in _gain_means(patterns, exponents)]


def exact_beam_width(pattern: AntennaPattern, dist: Distribution, alpha: float) -> float:
    """exact_beam_widths of the one pattern."""
    return exact_beam_widths([pattern], dist, alpha)[0]


def interference_probability(rx: AntennaPattern, tx: AntennaPattern, dist: Distribution,
                             alpha: float) -> float:
    """Exact Pr(Y*Z > X) = sum_h w_h * mean G_rx**(h/alpha) * mean G_tx**(h/alpha),
    with Y = G*_rx(theta), Z = G*_tx(phi), theta and phi i.i.d. uniform and
    independent of X (module docstring)."""
    check_alpha(alpha)
    rx_means, tx_means = _gain_means([rx, tx], [h / alpha for _, h in dist.components])
    return _law_mean(dist, [a * b for a, b in zip(rx_means, tx_means)])
