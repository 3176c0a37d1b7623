"""Normalized azimuthal antenna power patterns and threshold-based beam widths.

Every pattern exposes a gain G(theta) in [0, 1] with G(0) = 1 at boresight,
2*pi-periodic in theta.  Linear-array patterns are built from taper
coefficients a_k via the array factor |sum_k a_k exp(-2*pi*i*k*(D/lambda)*sin(theta))|,
whose main beam lies at theta = 0 by construction, and are normalized by
their power there.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

TWO_PI = 2.0 * math.pi

# Measure grid for threshold widths; widths have O(1/grid) error.
DEFAULT_GRID = 1 << 20

# Gains below this are analytic nulls; clamped so G**(1/alpha) cannot underflow.
NULL_CLAMP = 1e-300


def check_alpha(alpha: float) -> None:
    """Reject a path-loss exponent alpha that is not finite and >= 1, NaN included."""
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")


def _wrap_pi(theta: np.ndarray) -> np.ndarray:
    """Wrap angles into [-pi, pi)."""
    return np.mod(theta + np.pi, TWO_PI) - np.pi


def _factor_magnitude(theta, d_ratio, coeffs, roots):
    """|AF| at theta.  Patterns built from placed nulls evaluate as the root
    product, which stays accurate where the expanded polynomial cancels
    catastrophically (large N with small spacing)."""
    z = np.exp(-2j * np.pi * d_ratio * np.sin(theta))
    if roots is not None:
        out = np.ones_like(z)
        for r in roots:
            out = out * (z - r)
        return np.abs(out)
    return np.abs(npoly.polyval(z, coeffs))


@dataclass(frozen=True, eq=False)
class AntennaPattern:
    """Immutable normalized azimuthal power pattern; evaluation is pure."""

    kind: str  # "omni" | "sector" | "array"
    label: str
    beam_fraction: float = 1.0  # sector only
    coeffs: np.ndarray | None = None  # array only: a_k, k = 0..N (ascending)
    roots: np.ndarray | None = None  # array only: placed factor roots, if built from nulls
    d_ratio: float = 0.5  # array only: element spacing D/lambda
    peak_power: float = 1.0  # AF(0)**2, the main-beam power

    @property
    def degree(self) -> int:
        """Degree N of the array factor (number of nulls); 0 for non-arrays."""
        return 0 if self.coeffs is None else len(self.coeffs) - 1

    def array_factor(self, theta) -> np.ndarray | float:
        """Raw (unnormalized) array factor magnitude."""
        if self.coeffs is None:
            raise ValueError(f"pattern {self.label!r} has no array factor")
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        af = _factor_magnitude(th, self.d_ratio, self.coeffs, self.roots)
        return af if np.ndim(theta) else float(af[0])

    def gain(self, theta) -> np.ndarray | float:
        """Normalized power gain G(theta) in [0, 1]."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.kind == "omni":
            g = np.ones_like(th)
        elif self.kind == "sector":
            g = (np.abs(_wrap_pi(th)) <= np.pi * self.beam_fraction + 1e-15).astype(float)
        else:
            af = _factor_magnitude(th, self.d_ratio, self.coeffs, self.roots)
            g = np.clip(af * af / self.peak_power, 0.0, 1.0)
            g = np.where(g < NULL_CLAMP, 0.0, g)
        return g if np.ndim(theta) else float(g[0])

    def gain_starred(self, theta, alpha: float) -> np.ndarray | float:
        """G*(theta) = G(theta)**(1/alpha), the path-loss-adjusted gain."""
        check_alpha(alpha)
        g = self.gain(theta)
        return np.power(g, 1.0 / alpha) if np.ndim(theta) else float(g) ** (1.0 / alpha)


@dataclass(frozen=True)
class ThresholdWidth:
    """Null/beam width of G* at a gain threshold; the two are complements."""

    threshold: float
    null_width: float
    beam_width: float


def omni() -> AntennaPattern:
    """Omni-directional pattern, G(theta) = 1 everywhere."""
    return AntennaPattern(kind="omni", label="omni")


def sector(beam_fraction: float) -> AntennaPattern:
    """Indicator pattern: G = 1 on an angular fraction f centered at boresight, else 0."""
    f = float(beam_fraction)
    if not 0.0 < f <= 1.0:
        raise ValueError(f"beam_fraction must be in (0, 1], got {beam_fraction}")
    return AntennaPattern(kind="sector", label=f"sector({f:g})", beam_fraction=f)


def _array_pattern(coeffs: np.ndarray, d_ratio: float, label: str, roots=None) -> AntennaPattern:
    """Array pattern normalized by its power at theta = 0, where the main beam lies."""
    d = float(d_ratio)
    if not 0.0 < d <= 0.5:
        raise ValueError(f"d_ratio must lie in (0, 1/2], got {d_ratio}")
    # The same 1-d evaluation gain() performs, so gain(0) == 1 exactly.
    peak = float(_factor_magnitude(np.zeros(1), d, coeffs, roots)[0] ** 2)
    return AntennaPattern(
        kind="array", label=label, coeffs=coeffs, roots=roots, d_ratio=d, peak_power=peak
    )


def from_coefficients(coeffs, d_ratio: float, label: str) -> AntennaPattern:
    """Build a normalized array pattern from a real, nonnegative taper a_0..a_N.

    Such a taper peaks at theta = 0: |sum a_k z^k| <= sum a_k, attained at z = 1.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or len(c) < 2:
        raise ValueError("need at least two coefficients")
    if not (np.all(c.imag == 0.0) and np.all(c.real >= 0.0) and c.real.sum() > 0.0):
        raise ValueError("taper must be real and nonnegative, and not all zero")
    return _array_pattern(c, d_ratio, label)


def esnla(n: int, d_ratio: float = 0.5) -> AntennaPattern:
    """Equally-spaced-null linear array of degree N (even), nulls at 2*pi*s/(N+1)."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"esnla degree must be even and >= 2, got {n}")
    # Its taper takes both signs, but the main beam is still at theta = 0: as D/lambda -> 0
    # the factor tends to the Dirichlet kernel |sin((N+1)theta) / ((N+1) sin theta)|,
    # which peaks there, and a grid scan over N <= 80 and D/lambda in (0, 1/2]
    # finds no angle where |AF| exceeds |AF(0)|.
    null_angles = TWO_PI * np.arange(1, n + 1) / (n + 1)
    roots = np.exp(-2j * np.pi * float(d_ratio) * np.sin(null_angles))
    coeffs = npoly.polyfromroots(roots)
    return _array_pattern(coeffs, d_ratio, f"esnla({n},{float(d_ratio):g})", roots=roots)


def binomial_array(n: int, d_ratio: float = 0.5) -> AntennaPattern:
    """Binomial-taper linear array: a_k = C(N, k)."""
    if n < 1:
        raise ValueError(f"binomial degree must be >= 1, got {n}")
    coeffs = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    return from_coefficients(coeffs, d_ratio, f"binomial({n},{float(d_ratio):g})")


def chebyshev_array(n: int, d_ratio: float, r_ms: float) -> AntennaPattern:
    """Dolph-Chebyshev array with main-lobe-to-side-lobe field ratio R_MS.

    Sidelobes sit at equal power level 1/R_MS**2 relative to the main beam.  The
    factor is T_N(x0 cos(psi/2)) with x0 = cosh(arccosh(R_MS)/N) in the phase
    psi = 2*pi*(D/lambda)*sin(theta), so its nulls are Dolph's closed form
    psi_k = 2 arccos(cos((2k-1)pi/2N)/x0), k = 1..N (Proc. IRE 34, 1946).
    """
    if n < 1:
        raise ValueError(f"chebyshev degree must be >= 1, got {n}")
    if not 1.0 < r_ms < math.inf:
        raise ValueError(f"r_ms must be finite and exceed 1, got {r_ms}")
    x0 = math.cosh(math.acosh(r_ms) / n)
    psi = 2.0 * np.arccos(np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)) / x0)
    # The nulls come in conjugate pairs, so the sign of psi in the roots is immaterial.
    roots = np.exp(1j * psi)
    return _array_pattern(
        npoly.polyfromroots(roots), d_ratio,
        f"chebyshev({n},{float(d_ratio):g},{float(r_ms):g})", roots=roots,
    )


def threshold_widths(
    pattern: AntennaPattern, beta: float, alpha: float, grid: int = DEFAULT_GRID
) -> ThresholdWidth:
    """Normalized null width |{theta: G* <= beta}|/2pi on a uniform grid, and its complement."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    theta = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    gs = pattern.gain_starred(theta, alpha)
    null = float(np.count_nonzero(gs <= beta)) / grid
    return ThresholdWidth(threshold=float(beta), null_width=null, beam_width=1.0 - null)


def write_pattern_csv(
    pattern: AntennaPattern,
    alpha: float,
    path,
    rows: int = 1 << 12,
    comment: str | None = None,
) -> None:
    """Dump (theta_rad, gain, gain_starred) samples for plotting."""
    theta = np.linspace(0.0, TWO_PI, rows, endpoint=False)
    g = pattern.gain(theta)
    gs = pattern.gain_starred(theta, alpha)
    with open(path, "w", newline="") as f:
        if comment:
            f.write(f"# {comment}\n")
        w = csv.writer(f)
        w.writerow(["theta_rad", "gain", "gain_starred"])
        for row in zip(theta, g, gs):
            w.writerow([f"{row[0]:.12g}", f"{row[1]:.12g}", f"{row[2]:.12g}"])


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
    """Build a pattern of a named family.  Parameters the family does not take
    are ignored; a missing or None parameter takes the family's default."""
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
