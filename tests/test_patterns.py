import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.signal import windows

from beamnet import patterns
from beamnet.cli import main
from beamnet.patterns import (
    binomial_array,
    chebyshev_array,
    esnla,
    from_coefficients,
    omni,
    sector,
)
import ebw_reference
import patterns_reference
from patterns_reference import threshold_widths

TWO_PI = 2.0 * math.pi

FAMILY_FIXTURES = [
    omni(),
    sector(0.25),
    esnla(2, 0.5),
    esnla(4, 0.5),
    binomial_array(4, 0.5),
    chebyshev_array(4, 0.5, 30.0),
]


def raw_esnla_product(theta, n, d_ratio):
    """Independent oracle: evaluate the null-product array factor directly."""
    nulls = TWO_PI * np.arange(1, n + 1) / (n + 1)
    z = np.exp(-2j * np.pi * d_ratio * np.sin(np.asarray(theta, dtype=float)))
    out = np.ones_like(z)
    for t in nulls:
        out = out * (z - np.exp(-2j * np.pi * d_ratio * np.sin(t)))
    return np.abs(out)


def array_factor(p, theta):
    """Raw |AF| of an array built from its nulls: 4 |u - u_k| per null pair and
    2 |cos(psi/2)| per lone null, u = sin^2(psi/2)."""
    half = np.pi * p.d_ratio * np.sin(np.asarray(theta, dtype=float))
    u = np.sin(half)[..., None] ** 2
    lone = np.abs(2.0 * np.cos(half)) ** p.lone_nulls
    return np.prod(4.0 * np.abs(u - p.null_u), axis=-1) * lone


def array_polynomial(p):
    """The monic polynomial whose roots are an array's nulls exp(+-i psi_k) and -1."""
    e = np.exp(2j * np.arcsin(np.sqrt(p.null_u)))  # exp(i psi_k)
    return npoly.polyfromroots(np.concatenate([e, e.conj(), -np.ones(p.lone_nulls)]))


def degree(p):
    return 2 * len(p.null_u) + p.lone_nulls


def test_omni_is_unity():
    p = omni()
    for theta in (1.234, 0.0, math.pi):
        assert p.gain(theta) == 1.0


def test_sector_indicator():
    p = sector(0.25)
    assert p.gain(0.0) == 1.0
    assert p.gain(math.pi) == 0.0
    assert p.gain(math.pi / 4 - 1e-9) == 1.0
    assert p.gain(math.pi / 4 + 1e-6) == 0.0


def test_sector_full_circle_matches_omni():
    theta = np.linspace(-10, 10, 4001)
    assert np.array_equal(sector(1.0).gain(theta), omni().gain(theta))


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
def test_sector_rejects_bad_fraction(bad):
    with pytest.raises(ValueError):
        sector(bad)


def test_esnla_placed_null():
    p = esnla(4, 0.5)
    assert array_factor(p, 2 * math.pi / 5) < 1e-9
    assert p.gain(0.0) == 1.0


def test_esnla_full_null_set_n2():
    p = esnla(2, 0.5)
    # the full null set {s*pi/(N+1), |s| = 1..N}
    for t in np.array([-2, -1, 1, 2]) * math.pi / 3:
        assert array_factor(p, t) < 1e-9
        assert raw_esnla_product(t, 2, 0.5) < 1e-9


@pytest.mark.parametrize("n,d", [(2, 0.5), (4, 0.5), (6, 0.25), (10, 0.4)])
def test_esnla_coefficients_match_product_form(n, d):
    # the Vieta expansion of the stored nulls, their product and the gain agree pointwise
    p = esnla(n, d)
    theta = np.random.default_rng(0).uniform(0, TWO_PI, 200)
    z = np.exp(-2j * np.pi * d * np.sin(theta))
    from_coeffs = np.abs(npoly.polyval(z, array_polynomial(p)))
    want = raw_esnla_product(theta, n, d)
    assert np.allclose(array_factor(p, theta), want, rtol=1e-10, atol=1e-10)
    assert np.allclose(from_coeffs, want, rtol=1e-8, atol=1e-8)
    assert np.allclose(p.gain(theta), (want / raw_esnla_product(0.0, n, d)) ** 2,
                       rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("bad_n", [1, 3, 0, -2])
def test_esnla_requires_even_degree(bad_n):
    with pytest.raises(ValueError):
        esnla(bad_n, 0.5)


@pytest.mark.parametrize("bad_d", [0.0, -0.1, 0.6])
def test_array_rejects_bad_spacing(bad_d):
    with pytest.raises(ValueError):
        esnla(4, bad_d)


def test_binomial_coefficients():
    p = binomial_array(2, 0.5)
    assert np.allclose(array_polynomial(p).real, [1, 2, 1])
    assert p.gain(0.0) == 1.0


def _grid_peaks(gain_values, theta):
    g = gain_values
    up = g > np.roll(g, 1)
    down = g > np.roll(g, -1)
    idx = np.flatnonzero(up & down)
    return theta[idx], g[idx]


def test_binomial_has_no_sidelobes():
    # grid-scan oracle: every local maximum sits on a main beam (theta = 0 or pi)
    p = binomial_array(4, 0.5)
    theta = np.linspace(0, TWO_PI, 10**5, endpoint=False)
    locs, vals = _grid_peaks(p.gain(theta), theta)
    off_beam = [v for t, v in zip(locs, vals) if min(t, TWO_PI - t) > 0.05 and abs(t - math.pi) > 0.05]
    assert all(v < 1e-6 for v in off_beam)


def test_chebyshev_equal_sidelobes():
    p = chebyshev_array(8, 0.5, 30.0)
    theta = np.linspace(0, TWO_PI, 2 * 10**5, endpoint=False)
    locs, vals = _grid_peaks(p.gain(theta), theta)
    side = np.array(
        [v for t, v in zip(locs, vals) if min(t, TWO_PI - t) > 0.3 and abs(t - math.pi) > 0.3]
    )
    assert len(side) >= 6
    assert side.max() / side.min() <= 1.01
    # equal ripple sits at power 1/R_MS^2
    assert side.max() == pytest.approx(1.0 / 30.0**2, rel=0.01)


def test_chebyshev_limit_is_binomial():
    for n in (4, 6):
        cheb = array_polynomial(chebyshev_array(n, 0.5, 1e6)).real
        bino = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
        diff = np.max(np.abs(cheb / cheb.max() - bino / bino.max()))
        assert diff < 0.02


def test_chebyshev_validation():
    for n, r_ms in [(0, 30.0), (4, 1.0), (4, 0.5), (4, math.inf), (4, math.nan)]:
        with pytest.raises(ValueError):
            chebyshev_array(n, 0.5, r_ms)


@pytest.mark.parametrize("d", [1 / 16, 1 / 8, 1 / 4, 1 / 2])
def test_chebyshev_nulls_match_chebwin_taper(d):
    # Independent oracle: scipy's Dolph-Chebyshev window as the taper of a coefficient array.
    theta = np.arange(1 << 14) * (TWO_PI / (1 << 14))
    for n in range(1, 41):
        for r_ms in (1.5, 30.0, 1e4):
            with warnings.catch_warnings():
                # chebwin warns below 45 dB attenuation.
                warnings.simplefilter("ignore", UserWarning)
                taper = windows.chebwin(n + 1, at=20.0 * math.log10(r_ms))
            want = from_coefficients(taper, d, "chebwin").gain(theta)
            p = chebyshev_array(n, d, r_ms)
            assert np.max(np.abs(p.gain(theta) - want)) <= 1e-12, (n, r_ms)
            assert p.gain(0.0) == 1.0


def test_starred_power_rule():
    # binomial N=2 at sin(theta) = 2/3: G = cos^4(pi/3) = 1/16, G* at alpha=4 is 1/2
    p = binomial_array(2, 0.5)
    theta = math.asin(2.0 / 3.0)
    assert p.gain(theta) == pytest.approx(0.0625, abs=1e-12)
    assert p.gain_starred(theta, 4.0) == pytest.approx(0.5, abs=1e-12)
    assert omni().gain_starred(0.77, 4.0) == 1.0


def test_gain_starred_rejects_small_alpha():
    for alpha in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            omni().gain_starred(0.0, alpha)


def test_threshold_widths_sector():
    tw = threshold_widths(sector(0.25), 0.5, 4.0, grid=1 << 16)
    assert tw.null_width == pytest.approx(0.75, abs=2e-4)
    assert tw.beam_width == pytest.approx(0.25, abs=2e-4)
    assert tw.null_width + tw.beam_width == 1.0


def test_threshold_widths_beta_one():
    for p in (omni(), esnla(4, 0.5)):
        assert threshold_widths(p, 1.0, 4.0, grid=1 << 14).null_width == 1.0


def test_null_width_monotone_in_beta():
    p = esnla(4, 0.5)
    widths = [
        threshold_widths(p, b, 4.0, grid=1 << 16).null_width for b in np.linspace(0, 1, 20)
    ]
    assert all(w2 >= w1 for w1, w2 in zip(widths, widths[1:]))
    lo = threshold_widths(p, 0.4, 4.0, grid=1 << 16).null_width
    hi = threshold_widths(p, 0.8, 4.0, grid=1 << 16).null_width
    assert lo <= hi


@pytest.mark.parametrize("p", FAMILY_FIXTURES, ids=lambda p: p.label)
def test_gain_bounds_and_boresight(p):
    theta = np.random.default_rng(1).uniform(-10, 10, 10**5)
    g = p.gain(theta)
    assert np.all(g >= 0.0) and np.all(g <= 1.0)
    assert p.gain(0.0) == 1.0


@pytest.mark.parametrize("p", FAMILY_FIXTURES, ids=lambda p: p.label)
def test_periodicity(p):
    theta = np.linspace(-2.0, 2.0, 101)
    assert np.allclose(p.gain(theta), p.gain(theta + TWO_PI), atol=1e-12)


def test_starred_monotone_in_alpha():
    p = esnla(4, 0.5)
    theta = np.linspace(0, TWO_PI, 2001)
    assert np.all(p.gain_starred(theta, 6.0) >= p.gain_starred(theta, 3.0) - 1e-15)


GRID_DEGREES = range(2, 41, 2)
GRID_SPACINGS = [0.0625, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45, 0.5]


@pytest.mark.parametrize("d", GRID_SPACINGS)
@pytest.mark.parametrize("n", GRID_DEGREES)
def test_boresight_is_grid_argmax(n, d):
    # The ESNLA taper takes both signs, so its main beam at theta = 0 is checked against
    # a scan of the null-product oracle; the factor depends on theta only through sin.
    theta = np.arcsin(np.linspace(-1.0, 1.0, 1 << 15))
    assert array_factor(esnla(n, d), 0.0) >= raw_esnla_product(theta, n, d).max() * (1 - 1e-12)


def test_gain_is_exactly_one_at_boresight():
    builders = (esnla, binomial_array, lambda n, d: chebyshev_array(n, d, 30.0))
    grid = (build(n, d) for build in builders for n in GRID_DEGREES for d in GRID_SPACINGS)
    assert [p.label for p in grid if p.gain(0.0) != 1.0] == []


def mp_gains(family, n, d, theta, r_ms=30.0):
    """Independent oracle at 40 digits: G(theta) from each family's definition,
    the ESNLA root product over all N nulls, cos^(2N)(psi/2) for the binomial
    array and (T_N(x0 cos(psi/2))/R_MS)^2 for the Dolph-Chebyshev array."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        dm = mp.mpf(d)
        nulls = (mp.sin(2 * mp.pi * s / (n + 1)) for s in range(1, n + 1))
        roots = [mp.expj(-2 * mp.pi * dm * x) for x in nulls]
        peak = abs(mp.fprod(1 - r for r in roots))  # |AF(0)|
        x0 = mp.cosh(mp.acosh(r_ms) / n)
        out = []
        for t in theta:
            half = mp.pi * dm * mp.sin(mp.mpf(float(t)))  # psi/2
            if family == "esnla":
                z = mp.expj(-2 * half)
                g = (abs(mp.fprod(z - r for r in roots)) / peak) ** 2
            elif family == "binomial":
                g = mp.cos(half) ** (2 * n)
            else:
                g = (mp.chebyt(n, x0 * mp.cos(half)) / r_ms) ** 2
            out.append(float(g))
    return np.array(out)


ORACLE_PATTERNS = (
    [("esnla", n, d) for n in (2, 4, 20, 200) for d in (1 / 16, 1 / 2)]
    + [("binomial", n, 0.5) for n in (3, 20)]
    + [("chebyshev", n, 0.5) for n in (7, 8, 20)]
)


@pytest.mark.parametrize("family,n,d", ORACLE_PATTERNS)
def test_gain_matches_mpmath_oracle(family, n, d):
    p = patterns.build_pattern(family, n=n, d_ratio=d, r_ms=30.0)
    theta = np.random.default_rng(n).uniform(0.0, TWO_PI, 2000)
    want = mp_gains(family, n, d, theta)
    g = p.gain(theta)
    assert np.max(np.abs(g - want)) <= 5e-15
    big = want >= 1e-12
    assert np.max(np.abs(g[big] / want[big] - 1.0)) <= 2e-10


@pytest.mark.parametrize("family,n", [("esnla", 20), ("esnla", 200), ("chebyshev", 7),
                                      ("chebyshev", 20)])
def test_gain_next_to_null_near_pi_matches_mpmath(family, n):
    # Between the visible null nearest the horizon and theta = pi/2, u = sin^2(psi/2) lies
    # within 1 - u_k of 1.  The pair factors there come from cos^2(psi/2), which keeps
    # their relative accuracy: from u, ESNLA(200) erred by 1e-6 relative.
    p = patterns.build_pattern(family, n=n, d_ratio=0.5, r_ms=30.0)
    s_k = np.max(np.arcsin(np.sqrt(p.null_u))) / (math.pi / 2)
    theta = np.arcsin(s_k + (1.0 - s_k) * np.linspace(0.05, 0.95, 19))
    want = mp_gains(family, n, 0.5, theta)
    assert np.max(np.abs(p.gain(theta) / want - 1.0)) <= 5e-10


LARGE_DEGREE_PATTERNS = [
    build(n, d) for d in (1 / 16, 1 / 2) for n in (1000, 4000, 10**4)
    for build in (esnla, binomial_array, lambda n, d: chebyshev_array(n, d, 30.0),
                  lambda n, d: chebyshev_array(n, d, 1e4))
]
# The largest degrees whose plain null product is not rescaled (_rescaled), per
# family and spacing; the next degree rescales.
LAST_PLAIN = [esnla(1206, 1 / 16), esnla(1854, 0.5), chebyshev_array(6361, 1 / 16, 30.0),
              chebyshev_array(1195, 0.5, 30.0)]


@pytest.mark.parametrize("p", LARGE_DEGREE_PATTERNS + LAST_PLAIN, ids=lambda p: p.label)
def test_gain_stays_finite_at_large_degree(p):
    # The plain null product overflows from ESNLA N = 2474 (D/lambda = 1/16) and
    # Chebyshev N = 1226 (D/lambda = 1/2) on; the rescaled one never does, nor
    # does the plain one up to the bound (LAST_PLAIN).
    theta = np.random.default_rng(7).uniform(0.0, TWO_PI, 4096)
    with np.errstate(over="raise"):
        g = p.gain(np.append(theta, 0.0))
    assert np.all((g >= 0.0) & (g <= 1.0)) and g[-1] == 1.0
    assert np.max(g[:-1]) < 1.0  # an overflow would read as G = 1


@pytest.mark.parametrize("family,n", [("esnla", 4000), ("chebyshev", 1300)])
def test_rescaled_gain_matches_mpmath(family, n):
    p = patterns.build_pattern(family, n=n, d_ratio=0.5, r_ms=30.0)
    assert p._rescaled
    rng = np.random.default_rng(n)
    theta = np.concatenate([rng.uniform(0.0, 0.02, 8), rng.uniform(0.0, TWO_PI, 8)])
    want, g = mp_gains(family, n, 0.5, theta), p.gain(theta)
    assert np.max(np.abs(g - want)) <= 5e-15
    big = want >= 1e-290  # far from boresight, ESNLA's sidelobes fall below 1e-300
    assert np.count_nonzero(big) >= 8
    assert np.max(np.abs(g[big] / want[big] - 1.0)) <= 1e-9


@pytest.mark.parametrize("p", [esnla(4), esnla(1000, 1 / 16), esnla(1000), esnla(3000),
                               chebyshev_array(1000, 0.5, 30.0), chebyshev_array(7, 0.125, 1e4)],
                         ids=lambda p: p.label)
def test_rescaling_keeps_the_bits(p):
    # Scaling by 2^k is exact: wherever the plain product neither overflows nor
    # underflows, the rescaled one gives the same gains bit for bit, so only the
    # patterns past the bound rescale, and they change only where G overflowed.
    s = np.sin(np.linspace(-math.pi, math.pi, 1 << 14, endpoint=False)).reshape(1, -1)
    d, lone, _, r, b = p._null_args
    plain = patterns._null_gains(s, d, lone, False, r, b)
    rescaled = patterns._null_gains(s, d, lone, True, r, b)
    kept = plain > 0.0  # the gain stays above NULL_CLAMP
    assert np.array_equal(plain[kept], rescaled[kept])
    assert np.all(rescaled[~kept] < 1e-280)


# Rows with gains below NULL_CLAMP: a rescaled product (ESNLA 2000), and plain ones
# whose f = sqrt(G) itself underflows (ESNLA 1854, the last plain degree, and
# binomial 100, lone nulls only), alone and two of a kind in a block of rows.
BELOW_CLAMP_ROWS = [[esnla(2000)], [esnla(1854)], [binomial_array(100)],
                    [esnla(1852), esnla(1854)], [binomial_array(100, 0.49), binomial_array(100)]]


@pytest.mark.parametrize("e", [0.0025, 0.05, 0.9, 1.0, 2.0])
@pytest.mark.parametrize("rows", BELOW_CLAMP_ROWS, ids=lambda rows: "+".join(p.label for p in rows))
def test_order_keeps_the_bits_above_the_clamp(rows, e):
    """With an order e the kernel gives G^e: the bits of G ** e wherever G is at
    least NULL_CLAMP.  Below it, for e < 1, exp(e ln G), ln G from a rescaled f
    and its binary exponent, or summed in logs, with e ln G within 1e-9 relative
    of the log-sum oracle's (ebw_reference.log_gains_midpoint): about 4e-7
    absolute at ln G = -4200, next to endfire, where the sines' rounding alone
    moves ln G by that much.  For e >= 1, G^e stays below the clamp, and 0."""
    width = 5000
    sines = np.sin((np.arange(width) + 0.5) * (0.5 * math.pi / width))
    sines = np.repeat(sines[None], len(rows), axis=0)
    args = patterns._null_batch(rows).rows(range(len(rows)))
    g = patterns._null_gains(sines, *args)
    got = patterns._null_gains(sines, *args, order=e)
    kept = g > 0.0
    assert np.array_equal(got[kept], g[kept] ** e)
    for i, p in enumerate(rows):
        log_g = ebw_reference.log_gains_midpoint(p, width)
        below = ~kept[i]
        assert np.array_equal(below, log_g < math.log(patterns.NULL_CLAMP))
        if e >= 1.0:
            assert not got[i, below].any()
            continue
        want, normal = e * log_g[below], e * log_g[below] > -700.0  # G^e a normal float
        with np.errstate(divide="ignore"):
            assert np.allclose(np.log(got[i, below][normal]), want[normal], rtol=1e-9, atol=0.0)
        assert np.all(got[i, below][~normal] < 1e-300)
    assert not kept.all()


# Rows for the kernel's bit oracle, cycled: pair counts 1 to 10 (unit-padded to
# the most of any row), none at all (a binomial), and D/lambda from 1/16 to 1/2.
KERNEL_ROWS = [esnla(2, 0.5), chebyshev_array(20, 0.25, 1e4), binomial_array(3, 0.5),
               chebyshev_array(7, 0.5, 30.0), esnla(8, 1 / 16), esnla(12, 0.125)]
BLOCK = patterns._BLOCK


def kernel_args(rows, count):
    """_null_gains' arguments after the sines for `count` rows cycling through
    `rows`: D/lambda, and the pair factors as unit-padded columns."""
    cycle = [rows[i % len(rows)] for i in range(count)]
    r = np.zeros((max(len(p.null_u) for p in cycle), count))
    b = np.ones_like(r)
    for i, p in enumerate(cycle):
        r[: len(p.null_u), i], b[: len(p.null_u), i] = -1.0 / p.null_u, p.null_c / p.null_u
    return np.array([p.d_ratio for p in cycle]), r, b


def kernel_sines(count, width, seed):
    """Sines in [-1, 1] with the ends and boresight among them."""
    s = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, width))
    s.flat[:3] = (-1.0, 0.0, 1.0)[: s.size]
    return s


# (width, rows): the widths about the block size, and row counts that leave a
# partial last block of rows (_BLOCK // width rows per block where width < _BLOCK).
KERNEL_SHAPES = [(1, BLOCK + 3), (5000, 7), (BLOCK - 1, 3), (BLOCK + 1, 2), (3 * BLOCK + 5, 2)]


@pytest.mark.parametrize("rescale", [False, True], ids=["plain", "rescale"])
@pytest.mark.parametrize("lone", [0, 1, 9], ids=lambda m: f"lone{m}")
@pytest.mark.parametrize("width,count", KERNEL_SHAPES, ids=str)
def test_kernel_has_the_bits_of_the_per_block_kernel(width, count, lone, rescale):
    """The kernel computes every block in views of one scratch, and a row of one
    block only over its own pairs: the gains of the kernel that allocates each
    block's temporaries afresh and multiplies in every unit pair, bit for bit."""
    sines = kernel_sines(count, width, width + count)
    d, r, b = kernel_args(KERNEL_ROWS, count)
    got = patterns._null_gains(sines, d, lone, rescale, r, b)
    assert np.array_equal(got, patterns_reference.null_gains(sines, d, lone, rescale, r, b))
    # Without pairs at all, only the lone nulls.
    none = np.zeros((0, count))
    got = patterns._null_gains(sines, d, lone, rescale, none, none)
    assert np.array_equal(got, patterns_reference.null_gains(sines, d, lone, rescale, none, none))


@pytest.mark.parametrize("rescale", [False, True], ids=["plain", "rescale"])
@pytest.mark.parametrize("lone", [0, 1, 9], ids=lambda m: f"lone{m}")
@pytest.mark.parametrize("width", [1, BLOCK - 1, 3 * BLOCK + 5], ids=str)
def test_kernel_rows_sharing_their_sines_have_the_bits_of_their_own(width, lone, rescale):
    """One row of sines for every pattern: a pattern at the D/lambda of the one
    before it reuses that one's terms of the angles, also after a pattern
    without pairs, and each gets the gains of its own copy of the row."""
    rows = [esnla(2, 0.5), esnla(20, 0.5), esnla(8, 1 / 16), binomial_array(3, 0.5),
            chebyshev_array(7, 0.5, 30.0), esnla(4, 1 / 16), esnla(12, 1 / 16)]
    sines = kernel_sines(1, width, width)
    d, r, b = kernel_args(rows, len(rows))
    own = np.repeat(sines, len(rows), axis=0)
    want = patterns_reference.null_gains(own, d, lone, rescale, r, b)
    assert np.array_equal(patterns._null_gains(sines, d, lone, rescale, r, b), want)


@pytest.mark.parametrize("width,count", [(5000, 3), (BLOCK + 1, 2)], ids=str)
def test_kernel_keeps_the_bits_where_rows_rescale(width, count):
    """Rows that overflow without rescaling (Chebyshev N = 1196, ESNLA N = 1856),
    unit-padded beside a short one."""
    rows = [chebyshev_array(1196, 0.5, 30.0), esnla(4, 0.5), esnla(1856, 0.5)]
    assert rows[0]._rescaled and rows[2]._rescaled
    sines = kernel_sines(count, width, 5)
    d, r, b = kernel_args(rows, count)
    got = patterns._null_gains(sines, d, 0, True, r, b)
    assert np.array_equal(got, patterns_reference.null_gains(sines, d, 0, True, r, b))


def test_rescaling_starts_past_the_bound():
    assert not any(p._rescaled for p in (esnla(4), esnla(1000, 1 / 16), binomial_array(10**4),
                                         *LAST_PLAIN))
    assert all(p._rescaled for p in (esnla(1208, 1 / 16), esnla(1856, 0.5),
                                     chebyshev_array(6362, 1 / 16, 30.0),
                                     chebyshev_array(1196, 0.5, 30.0), esnla(3000)))


# The builder's kinds of row: pairs only (ESNLA), lone nulls only (binomial), both
# (odd-N Chebyshev), the first rescaled degrees, and a large degree at D/lambda = 1/16.
BUILDER_PATTERNS = [esnla(4), binomial_array(6), chebyshev_array(7, 0.5, 30.0),
                    chebyshev_array(8, 0.5, 30.0), chebyshev_array(1196, 0.5, 30.0),
                    esnla(1856), esnla(1000, 1 / 16)]


def assert_same_args(got, want):
    assert len(got) == len(want) == 5
    for x, y in zip(got, want):
        if isinstance(y, np.ndarray):
            assert x.shape == y.shape and np.array_equal(x, y)
        else:
            assert type(x) is type(y) and x == y


@pytest.mark.parametrize("i", range(len(BUILDER_PATTERNS)),
                         ids=[p.label for p in BUILDER_PATTERNS])
def test_null_args_are_the_builders_batch_of_one_and_column_of_many(i):
    """A pattern's own kernel arguments are the builder's batch of one, and its
    column in a mixed batch trimmed to its pairs, array for array and flag for
    flag; the column's padding is the exact unit factor (r = 0, b = 1)."""
    p = BUILDER_PATTERNS[i]
    args = p._null_args
    pairs = len(p.null_u)
    assert np.array_equal(args[3][:, 0], -1.0 / p.null_u)
    assert np.array_equal(args[4][:, 0], p.null_c / p.null_u)
    assert (args[1], args[2]) == (p.lone_nulls, p._rescaled)
    assert_same_args(args, patterns._null_batch([p]).rows([0]))
    mixed = patterns._null_batch(BUILDER_PATTERNS[::-1] + BUILDER_PATTERNS)
    for at in (len(BUILDER_PATTERNS) - 1 - i, len(BUILDER_PATTERNS) + i):
        column = (mixed.d_ratio[at : at + 1], *mixed.kind[at], mixed.r[:pairs, at : at + 1],
                  mixed.b[:pairs, at : at + 1])
        assert_same_args(args, column)
        assert_same_args(args, mixed.rows([at]))
        assert not mixed.r[pairs:, at].any() and np.all(mixed.b[pairs:, at] == 1.0)
        assert mixed.count[at] == pairs
        assert np.array_equal(mixed.u[mixed.owner == at], p.null_u)
        assert np.array_equal(mixed.c[mixed.owner == at], p.null_c)


@pytest.mark.parametrize(
    "taper", [np.exp(0.7j * np.arange(7)), [1.0, -0.5, 1.0], [1.0, 2.0 + 1e-9j], [0.0, 0.0]]
)
def test_from_coefficients_rejects_tapers_not_real_nonnegative(taper):
    with pytest.raises(ValueError, match="real and nonnegative"):
        from_coefficients(taper, 0.5, "bad")


@given(st.floats(-50.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_gain_always_in_unit_interval(theta):
    p = esnla(4, 0.5)
    g = p.gain(theta)
    assert 0.0 <= g <= 1.0


def test_pattern_csv_export(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["pattern", "--pattern", "esnla:4", "--rows", "256", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "theta_rad,gain,gain_starred"
    assert len(lines) == 258
    gains = [float(l.split(",")[1]) for l in lines[2:]]
    assert max(gains) == 1.0


def test_parse_pattern_spec():
    assert patterns.parse_pattern_spec("omni").kind == "omni"
    assert patterns.parse_pattern_spec("sector:0.3").beam_fraction == 0.3
    p = patterns.parse_pattern_spec("esnla:4:0.5")
    assert degree(p) == 4 and p.d_ratio == 0.5
    assert degree(patterns.parse_pattern_spec("binomial:6")) == 6
    assert degree(patterns.parse_pattern_spec("chebyshev:8:0.5:50")) == 8
    with pytest.raises(ValueError):
        patterns.parse_pattern_spec("yagi:3")
    with pytest.raises(ValueError):
        patterns.parse_pattern_spec("esnla:odd")
    for spec in ("omni:3", "sector:0.25:7", "esnla:4:0.5:99", "chebyshev:8:0.5:30:1"):
        with pytest.raises(ValueError, match=re.escape(spec)):
            patterns.parse_pattern_spec(spec)
