"""Normalized azimuthal antenna power patterns.

Every pattern exposes a gain G(theta) in [0, 1] with G(0) = 1 at boresight,
2*pi-periodic in theta.  A linear array of N + 1 elements with taper a_k has the
array factor AF = sum_k a_k z^k, z = exp(-i psi), in the phase
psi = 2*pi*(D/lambda)*sin(theta); its main beam lies at theta = 0.

Arrays built from their nulls (ESNLA, binomial, Dolph-Chebyshev) have every
null on the unit circle, in conjugate pairs r, conj(r) = exp(+-i psi_k) plus m
lone nulls at psi = pi.  With u = sin^2(psi/2) and u_k = sin^2(psi_k/2), a pair
contributes |z - r| |z - conj(r)| = 4 |u - u_k| and a lone null 2 |cos(psi/2)|,
so in real arithmetic, with one sine of the phase per angle,

    G(theta) = prod_pairs (1 - u/u_k)^2 * cos(psi/2)^(2m),

and G(0) = 1 exactly.  Where |psi| > pi/2, u is above 1/2 and 1 - u/u_k would
lose relative accuracy next to a null with psi_k near pi; there the factors
come from c = cos^2(psi/2) and c_k = cos^2(psi_k/2) instead, as (c_k - c)/u_k.
The sine is of |psi/2| folded into [0, pi/4], which gives u or c, whichever is
at most 1/2.  One kernel (_null_gains) evaluates G for one pattern, for ebw's
grids of one row per pattern and for patterns that share their angles, in
blocks of _BLOCK angles, from one builder's columns (_null_batch), for one
pattern or many.  It allocates its block scratch once per call and computes
every block in views of it: a block of float64 is 128 KiB, glibc's default
mmap threshold, and such temporaries allocated and freed block by block get
the heap trimmed and their pages faulted in afresh.  Patterns that share their
angles and D/lambda share the terms of the angles too (psi/2, the lone-null
factor, y and the masks).  Arrays given by a taper (`from_coefficients`)
evaluate the polynomial at z and are normalized by their power at theta = 0.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Gains below this are analytic nulls; clamped so G**(1/alpha) cannot underflow.
NULL_CLAMP = 1e-300

# Null products whose partial products could exceed 2 to this power are renormalized
# as they go (_rescale_flags); below 1023, where float64 overflows.
_RESCALE_LOG2_BOUND = 1000

# The library's one cache-block size, in elements: angles per block of the null-product
# kernel, samples per block of the Monte Carlo estimators (ebw) and (link, transmitter)
# pairs per run of the slot engine's cutoff-free models (netsim).  Their temporaries
# then stay in cache.  A block of float64 is 128 KiB, glibc's default mmap threshold:
# seven such temporaries freed together get the heap trimmed, and the next call's
# fault their pages in again, so the null-product kernel allocates its scratch
# once per call (_null_gains).
_BLOCK = 1 << 14


def check_alpha(alpha: float) -> None:
    """Reject a path-loss exponent alpha that is not finite and >= 1, NaN included."""
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")


def _wrap_pi(theta: np.ndarray) -> np.ndarray:
    """Wrap angles into [-pi, pi)."""
    return np.mod(theta + np.pi, TWO_PI) - np.pi


def _unit_clamp(g: np.ndarray) -> np.ndarray:
    """Clamp power gains into [0, 1] in place, zeroing those below NULL_CLAMP."""
    np.minimum(g, 1.0, out=g)
    g[g < NULL_CLAMP] = 0.0
    return g


def _taper_factor(sin_theta, d_ratio, coeffs):
    """|AF| of a taper, the polynomial evaluated at z = exp(-i psi)."""
    from numpy.polynomial import polynomial as npoly  # only tapers need it

    return np.abs(npoly.polyval(np.exp(-2j * np.pi * d_ratio * sin_theta), coeffs))


def _rescale_flags(null_u, d_ratio, owner) -> np.ndarray:
    """Whether each pattern's null product may overflow, and so is renormalized as
    it goes (_null_gains).  Sines in [-1, 1] keep u = sin^2(psi/2) at most
    u_max = sin^2(pi D/lambda), so a pair factor |1 - u/u_k| is at most
    max(1, u_max/u_k - 1) and a lone-null factor at most 1: every partial product
    stays below 2^_RESCALE_LOG2_BOUND when the sum of log2 max(1, u_max/u_k - 1)
    does."""
    u_max = np.sin(np.pi * d_ratio) ** 2
    bits = np.log2(np.maximum(1.0, u_max[owner] / null_u - 1.0))
    return np.bincount(owner, bits, len(d_ratio)) > _RESCALE_LOG2_BOUND


def _log_roots(under, f, power, block, scale, lone_nulls, r, b) -> np.ndarray:
    """ln |f| = ln(G)/2 at the angles `under` of a _null_gains block, whose G = f^2
    fell below NULL_CLAMP, from the block's state: f, its binary exponent `power`
    in rescaled rows (else None), the sines, psi/2 per sine (`scale`) and the pair
    factors.  A rescaled f is a normalized mantissa, so ln |f| costs O(1).  A
    plain product may have passed through the subnormals on its way and lost
    bits, so its factors are summed again in logs, a pair at a time."""
    with np.errstate(divide="ignore"):  # ln 0 = -inf at an analytic null
        if power is not None:
            return np.log(np.abs(f[under])) + power[under] * math.log(2.0)
        rows = np.size(scale)
        row, col = np.nonzero(under.reshape(-1, under.shape[-1]))
        half = block.reshape(-1, block.shape[-1])[row, col] * np.reshape(scale, rows)[row]
        row = row if rows > 1 else 0  # one row: its pair factors are scalars
        a = np.abs(half)
        y = np.sin(np.minimum(a, 0.5 * math.pi - a)) ** 2
        high = a > 0.25 * math.pi
        total = lone_nulls * np.log(np.abs(np.cos(half)))
        for r_k, b_k in zip(r.reshape(len(r), rows), b.reshape(len(b), rows)):
            total += np.log(np.abs(y * r_k[row] + np.where(high, b_k[row], 1.0)))
        return total


def _null_gains(sines, d_ratio, lone_nulls, rescale, r, b, order=None) -> np.ndarray:
    """Clamped gains G at `sines`, one row per pattern built from its nulls, in
    blocks of at most _BLOCK: row i has D/lambda d_ratio[i] and pair factors
    (r, b)[:, i] = (-1/u_k, c_k/u_k), or the exact unit r = 0, b = 1 past its
    pairs.  The rows share lone_nulls, whose factors are cos(psi/2) (sqrt(1 - u)
    loses accuracy next to psi = pi), and `rescale`: renormalizing the partial
    product to [1/2, 1) after each pair factor, which keeps G's bits wherever
    the plain product neither overflows nor underflows (scaling by 2^k is exact).
    `sines` has one row per pattern, or one row that every pattern shares; then
    a pattern at the D/lambda of the one before it reuses that one's terms of
    the angles (psi/2, the lone-null factor, y and the masks).  Every block,
    partial ones included, is computed in views of scratch allocated once per
    call (_BLOCK).  With an `order` e it gives G^e, and where G is below
    NULL_CLAMP and e < 1, which can lift G^e far above it, exp(2 e ln|f|)
    (_log_roots) instead of 0."""
    n, width = len(d_ratio), sines.shape[1]
    g = np.empty((n, width))
    shared = len(sines) < n
    rows = 1 if shared else min(n, _BLOCK // max(1, width)) or 1
    shape = (rows, width) if rows > 1 else (min(width, _BLOCK),)  # a block's, at most
    # The lone-null factor, the product (the same array unless the sines are
    # shared) and the pair factor t, psi/2 before the pair loop; with pairs also
    # y, the high and low masks and t's second term; with rescaling the exponents.
    paired = len(r) > 0
    scratch = [*np.empty((7 if paired else 3, *shape))]
    if rescale and paired:
        scratch += [np.empty(shape, dtype=int), np.empty(shape, dtype=np.intc)]
    for j in range(0, width, _BLOCK):
        for i in range(0, n, rows):
            # A block of one row takes its pattern's values as scalars, which NumPy
            # applies with less overhead than a column it broadcasts, and only its
            # own pairs, not the unit padding after them.
            at = i if rows == 1 else slice(i, i + rows)
            scale, r_i, b_i = math.pi * d_ratio[at], r[:, at], b[:, at]
            if rows == 1:
                pairs = np.count_nonzero(r_i)
                r_i, b_i = r_i[:pairs], b_i[:pairs]
            else:
                scale, r_i, b_i = scale[:, None], r_i[..., None], b_i[..., None]
            block = sines[0 if shared else at, j : j + _BLOCK]
            f0, f, t, *rest = (buf[: len(block)] for buf in scratch)
            if not (shared and i and d_ratio[i] == d_ratio[i - 1]):
                half = np.multiply(block, scale, out=t)  # psi/2, in [-pi/2, pi/2]
                if lone_nulls:
                    np.cos(half, out=f0)
                    f0 **= lone_nulls
                else:
                    f0.fill(1.0)
                if paired:
                    # y = min(u, c), the sin^2 of |psi/2| folded into [0, pi/4].  A
                    # pair factor is 1 - y/u_k where y = u, and (c_k - y)/u_k where y = c.
                    y, high, low = rest[:3]
                    a = np.abs(half, out=half)
                    np.minimum(a, np.subtract(0.5 * math.pi, a, out=y), out=y)
                    np.sin(y, out=y)
                    y *= y
                    np.greater(a, 0.25 * math.pi, out=high)
                    np.subtract(1.0, high, out=low)
            if shared:
                np.copyto(f, f0)
            else:
                f = f0
            root, power = f, None
            if len(r_i):
                y, high, low, t2, *exponents = rest
                if rescale:
                    power, e = exponents
                    power.fill(0)
                for r_k, b_k in zip(r_i, b_i):
                    np.multiply(y, r_k, out=t)
                    t += low
                    np.multiply(high, b_k, out=t2)
                    t += t2
                    f *= t
                    if rescale:
                        np.frexp(f, out=(f, e))
                        power += e
                if rescale:
                    root = np.ldexp(f, power, out=t)  # f keeps the mantissas for ln G
            g_at = _unit_clamp(np.multiply(root, root, out=g[at, j : j + _BLOCK]))
            if order is not None:
                under = g_at == 0.0
                np.power(g_at, order, out=g_at)
                if order < 1.0 and under.any():
                    g_at[under] = np.exp((2.0 * order) * _log_roots(
                        under, f, power, block, scale, lone_nulls, r_i, b_i))
    return g


class _NullBatch(namedtuple("_NullBatch", "d_ratio lone_nulls kind count owner u c r b")):
    """Arrays built from their nulls as _null_gains and the exact W_B rule read
    them: per pattern its D/lambda, lone nulls, kind (lone nulls, rescaling: the
    kernel's per-call scalars) and pair count; per pair its pattern (owner), u_k
    and c_k; the pair factors (r, b) = (-1/u_k, c_k/u_k), unit-padded columns."""

    def rows(self, at) -> tuple:
        """_null_gains' arguments after the sines for the patterns `at`, of one kind."""
        w = self.count[at].max()
        return self.d_ratio[at], *self.kind[at[0]], self.r[:w, at], self.b[:w, at]


def _null_batch(arrays) -> _NullBatch:
    """_NullBatch of `arrays`, their pairs one pattern after another."""
    count = np.array([len(p.null_u) for p in arrays])
    owner = np.repeat(np.arange(len(arrays)), count)
    u, c = (np.concatenate([getattr(p, f) for p in arrays]) for f in ("null_u", "null_c"))
    d, lone = np.array([p.d_ratio for p in arrays]), np.array([p.lone_nulls for p in arrays])
    r, b = np.zeros((count.max(), len(arrays))), np.ones((count.max(), len(arrays)))
    rank = np.arange(len(u)) - np.repeat(np.cumsum(count) - count, count)
    r[rank, owner], b[rank, owner] = -1.0 / u, c / u
    kind = list(zip(lone.tolist(), _rescale_flags(u, d, owner).tolist()))
    return _NullBatch(d, lone, kind, count, owner, u, c, r, b)


@dataclass(frozen=True, eq=False)
class AntennaPattern:
    """Immutable normalized azimuthal power pattern; evaluation is pure."""

    kind: str  # "omni" | "sector" | "array"
    label: str
    beam_fraction: float = 1.0  # sector only
    d_ratio: float = 0.5  # array only: element spacing D/lambda
    # Arrays built from their nulls: u_k = sin^2(psi_k/2) and c_k = cos^2(psi_k/2)
    # per conjugate null pair, each from its constructor's closed form, and the
    # number of lone nulls at psi = pi.
    null_u: np.ndarray | None = None
    null_c: np.ndarray | None = None
    lone_nulls: int = 0
    # Arrays given by a taper: a_k, k = 0..N (ascending), and AF(0)**2, the main-beam power.
    taper: np.ndarray | None = None
    peak_power: float = 1.0

    @functools.cached_property
    def _null_args(self) -> tuple:
        """_null_gains' arguments after the sines: _null_batch of this pattern alone."""
        return _null_batch([self]).rows([0])

    @property
    def _rescaled(self) -> bool:
        """Whether the null product is renormalized as it goes (_rescale_flags)."""
        return self._null_args[2]

    def gain_from_sine(self, sin_theta: np.ndarray) -> np.ndarray:
        """Normalized gain of an array pattern at angles given by their sines, which
        lie in [-1, 1] up to rounding (an array factor depends on theta only through
        sin(theta); _rescale_flags' bound relies on that range)."""
        s = np.asarray(sin_theta, dtype=float)
        if self.null_u is None:
            return _unit_clamp(_taper_factor(s, self.d_ratio, self.taper) ** 2 / self.peak_power)
        return _null_gains(s.reshape(1, -1), *self._null_args).reshape(s.shape)

    def gain(self, theta) -> np.ndarray | float:
        """Normalized power gain G(theta) in [0, 1]."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.kind == "omni":
            g = np.ones_like(th)
        elif self.kind == "sector":
            g = (np.abs(_wrap_pi(th)) <= np.pi * self.beam_fraction + 1e-15).astype(float)
        else:
            g = self.gain_from_sine(np.sin(th))
        return g if np.ndim(theta) else float(g[0])

    def gain_starred(self, theta, alpha: float) -> np.ndarray | float:
        """G*(theta) = G(theta)**(1/alpha), the path-loss-adjusted gain."""
        check_alpha(alpha)
        g = self.gain(theta)
        return np.power(g, 1.0 / alpha) if np.ndim(theta) else float(g) ** (1.0 / alpha)


def omni() -> AntennaPattern:
    """Omni-directional pattern, G(theta) = 1 everywhere."""
    return AntennaPattern(kind="omni", label="omni")


def sector(beam_fraction: float) -> AntennaPattern:
    """Indicator pattern: G = 1 on an angular fraction f centered at boresight, else 0."""
    f = float(beam_fraction)
    if not 0.0 < f <= 1.0:
        raise ValueError(f"beam_fraction must be in (0, 1], got {beam_fraction}")
    return AntennaPattern(kind="sector", label=f"sector({f:g})", beam_fraction=f)


def _array_pattern(d_ratio, label, **fields) -> AntennaPattern:
    """Array pattern at element spacing D/lambda in (0, 1/2], which keeps grating
    lobes out of the visible phases."""
    d = float(d_ratio)
    if not 0.0 < d <= 0.5:
        raise ValueError(f"d_ratio must lie in (0, 1/2], got {d_ratio}")
    return AntennaPattern(kind="array", label=label, d_ratio=d, **fields)


def from_coefficients(coeffs, d_ratio: float, label: str) -> AntennaPattern:
    """Build a normalized array pattern from a real, nonnegative taper a_0..a_N.

    Such a taper peaks at theta = 0: |sum a_k z^k| <= sum a_k, attained at z = 1,
    where the pattern is normalized.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or len(c) < 2:
        raise ValueError("need at least two coefficients")
    if not (np.all(c.imag == 0.0) and np.all(c.real >= 0.0) and c.real.sum() > 0.0):
        raise ValueError("taper must be real and nonnegative, and not all zero")
    # The same 1-d evaluation gain() performs, so gain(0) == 1 exactly.
    peak = float(_taper_factor(np.zeros(1), float(d_ratio), c)[0] ** 2)
    return _array_pattern(d_ratio, label, taper=c, peak_power=peak)


def esnla(n: int, d_ratio: float = 0.5) -> AntennaPattern:
    """Equally-spaced-null linear array of degree N (even), nulls at 2*pi*s/(N+1)."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"esnla degree must be even and >= 2, got {n}")
    # Its taper takes both signs, but the main beam is still at theta = 0: as D/lambda -> 0
    # the factor tends to the Dirichlet kernel |sin((N+1)theta) / ((N+1) sin theta)|,
    # which peaks there, and a grid scan over N <= 80 and D/lambda in (0, 1/2]
    # finds no angle where |AF| exceeds |AF(0)|.
    # Nulls s and N + 1 - s form a conjugate pair, u_s = sin^2(pi (D/lambda) sin(2 pi s/(N+1))).
    # sin(2 pi s/(N+1)) = sin(pi r/(N+1)) with r = min(2s, N+1-2s): an argument in
    # (0, pi/2], where the sine keeps its relative accuracy (near pi it would not).
    s = np.arange(1, n // 2 + 1)
    r = np.minimum(2 * s, n + 1 - 2 * s)
    half = np.pi * float(d_ratio) * np.sin(np.pi * r / (n + 1))  # psi_s/2
    return _array_pattern(d_ratio, f"esnla({n},{float(d_ratio):g})",
                          null_u=np.sin(half) ** 2, null_c=np.cos(half) ** 2)


def binomial_array(n: int, d_ratio: float = 0.5) -> AntennaPattern:
    """Binomial-taper linear array, a_k = C(N, k): all N nulls at psi = pi, so
    G = cos^(2N)(pi (D/lambda) sin(theta))."""
    if n < 1:
        raise ValueError(f"binomial degree must be >= 1, got {n}")
    label = f"binomial({n},{float(d_ratio):g})"
    return _array_pattern(d_ratio, label, null_u=np.zeros(0), null_c=np.zeros(0), lone_nulls=n)


def chebyshev_array(n: int, d_ratio: float, r_ms: float) -> AntennaPattern:
    """Dolph-Chebyshev array with main-lobe-to-side-lobe field ratio R_MS
    (chebyshev_arrays)."""
    return chebyshev_arrays(n, d_ratio, [r_ms])[0]


def chebyshev_arrays(n: int, d_ratio: float, r_values) -> list[AntennaPattern]:
    """Dolph-Chebyshev arrays of degree N, one per main-lobe-to-side-lobe field
    ratio R_MS in `r_values`, their nulls computed together.

    Sidelobes sit at equal power level 1/R_MS**2 relative to the main beam.  The
    factor is T_N(x0 cos(psi/2)) with x0 = cosh(arccosh(R_MS)/N) in the phase
    psi = 2*pi*(D/lambda)*sin(theta), so its nulls are Dolph's closed form
    psi_k = 2 arccos(c_k/x0), c_k = cos((2k-1)pi/2N), k = 1..N (Proc. IRE 34,
    1946): conjugate pairs k, N + 1 - k with cos^2(psi_k/2) = c_k^2/x0^2 and
    u_k = 1 - c_k^2/x0^2, and a lone null at psi = pi when N is odd.
    """
    if n < 1:
        raise ValueError(f"chebyshev degree must be >= 1, got {n}")
    for r_ms in r_values:
        if not 1.0 < r_ms < math.inf:
            raise ValueError(f"r_ms must be finite and exceed 1, got {r_ms}")
    t = [math.acosh(r_ms) / n for r_ms in r_values]
    x0 = [math.cosh(v) for v in t]
    a = (2 * np.arange(1, n // 2 + 1) - 1) * np.pi / (2 * n)
    # 1 - c^2/x0^2 = (x0 - c)(x0 + c)/x0^2 with x0 - c = 2 sinh^2(t/2) + 2 sin^2(a/2),
    # free of cancellation when x0 and c are both near 1.  One row per R_MS; the
    # scalars are Python floats, so each row has the bits of a single build.
    sinh2 = np.array([math.sinh(v / 2) ** 2 for v in t]).reshape(-1, 1)
    x0_col, x0_sq = np.array(x0).reshape(-1, 1), np.array([x**2 for x in x0]).reshape(-1, 1)
    null_u = 2.0 * (sinh2 + np.sin(a / 2) ** 2) * (x0_col + np.cos(a)) / x0_sq
    null_c = (np.cos(a) / x0_col) ** 2
    return [_array_pattern(d_ratio, f"chebyshev({n},{float(d_ratio):g},{float(r_ms):g})",
                           null_u=u, null_c=c, lone_nulls=n % 2)
            for r_ms, u, c in zip(r_values, null_u, null_c)]


# Pattern families: name -> (constructor, its parameters as (name, type, default)),
# default None meaning required.  Constructors are named, not captured, so a
# wrapper installed on the module attribute (a tracer, a test double) sees the call.
PATTERN_FAMILIES = {
    "omni": ("omni", ()),
    "sector": ("sector", (("beam_fraction", float, None),)),
    "esnla": ("esnla", (("n", int, None), ("d_ratio", float, 0.5))),
    "binomial": ("binomial_array", (("n", int, None), ("d_ratio", float, 0.5))),
    "chebyshev": (
        "chebyshev_array",
        (("n", int, None), ("d_ratio", float, 0.5), ("r_ms", float, 30.0)),
    ),
}


def build_pattern(family: str, **params) -> AntennaPattern:
    """Build a pattern of a named family.  A missing or None parameter takes
    the family's default.  Parameters the family does not take are ignored, so
    that `scaling.sweep` can pass n and d_ratio to its omni cells;
    `parse_pattern_spec` passes only the family's own fields."""
    if family not in PATTERN_FAMILIES:
        raise ValueError(f"unknown pattern family {family!r}")
    constructor, fields = PATTERN_FAMILIES[family]
    args = []
    for name, _, default in fields:
        value = params.get(name)
        if value is None:
            if default is None:
                raise ValueError(f"{family} pattern needs {name}")
            value = default
        args.append(value)
    return globals()[constructor](*args)


def parse_pattern_spec(spec: str) -> AntennaPattern:
    """Parse compact pattern ids like 'omni', 'sector:0.25', 'esnla:4:0.5',
    'binomial:6:0.5', 'chebyshev:8:0.5:30'."""
    name, *fields = spec.split(":")
    name = name.lower()
    if name not in PATTERN_FAMILIES:
        raise ValueError(f"unknown pattern family {name!r}")
    params = PATTERN_FAMILIES[name][1]
    if len(fields) > len(params):
        raise ValueError(f"bad pattern spec {spec!r}: too many fields, {name} takes {len(params)}")
    try:
        values = {key: cast(text) for (key, cast, _), text in zip(params, fields)}
        return build_pattern(name, **values)
    except ValueError as exc:
        raise ValueError(f"bad pattern spec {spec!r}: {exc}") from exc
