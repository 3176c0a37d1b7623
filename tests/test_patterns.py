import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamnet import patterns
from beamnet.patterns import (
    binomial_array,
    chebyshev_array,
    esnla,
    esnla_null_set,
    from_coefficients,
    omni,
    sector,
    threshold_widths,
)

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
    assert p.array_factor(2 * math.pi / 5) < 1e-9
    assert p.gain(0.0) == 1.0


def test_esnla_full_null_set_n2():
    p = esnla(2, 0.5)
    expected = np.array([-2, -1, 1, 2]) * math.pi / 3
    assert np.allclose(np.sort(esnla_null_set(2)), np.sort(expected))
    for t in expected:
        assert p.array_factor(t) < 1e-9
        assert raw_esnla_product(t, 2, 0.5) < 1e-9


@pytest.mark.parametrize("n,d", [(2, 0.5), (4, 0.5), (6, 0.25), (10, 0.4)])
def test_esnla_coefficients_match_product_form(n, d):
    # the stored Vieta expansion and the null-product factor agree pointwise
    from numpy.polynomial import polynomial as npoly

    p = esnla(n, d)
    theta = np.random.default_rng(0).uniform(0, TWO_PI, 200)
    z = np.exp(-2j * np.pi * d * np.sin(theta))
    from_coeffs = np.abs(npoly.polyval(z, p.coeffs))
    want = raw_esnla_product(theta, n, d)
    assert np.allclose(p.array_factor(theta), want, rtol=1e-10, atol=1e-10)
    assert np.allclose(from_coeffs, want, rtol=1e-8, atol=1e-8)


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
    assert np.allclose(p.coeffs.real, [1, 2, 1])
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
        cheb = chebyshev_array(n, 0.5, 1e6).coeffs.real
        bino = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
        diff = np.max(np.abs(cheb / cheb.max() - bino / bino.max()))
        assert diff < 0.02


def test_chebyshev_validation():
    with pytest.raises(ValueError):
        chebyshev_array(0, 0.5, 30.0)
    with pytest.raises(ValueError):
        chebyshev_array(4, 0.5, 1.0)


def test_starred_power_rule():
    # binomial N=2 at sin(theta) = 2/3: G = cos^4(pi/3) = 1/16, G* at alpha=4 is 1/2
    p = binomial_array(2, 0.5)
    theta = math.asin(2.0 / 3.0)
    assert p.gain(theta) == pytest.approx(0.0625, abs=1e-12)
    assert p.gain_starred(theta, 4.0) == pytest.approx(0.5, abs=1e-12)
    assert omni().gain_starred(0.77, 4.0) == 1.0


def test_gain_starred_rejects_small_alpha():
    with pytest.raises(ValueError):
        omni().gain_starred(0.0, 0.5)


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
    assert p.gain(0.0) >= 1.0 - 1e-9


@pytest.mark.parametrize("p", FAMILY_FIXTURES, ids=lambda p: p.label)
def test_periodicity(p):
    theta = np.linspace(-2.0, 2.0, 101)
    assert np.allclose(p.gain(theta), p.gain(theta + TWO_PI), atol=1e-12)


def test_starred_monotone_in_alpha():
    p = esnla(4, 0.5)
    theta = np.linspace(0, TWO_PI, 2001)
    assert np.all(p.gain_starred(theta, 6.0) >= p.gain_starred(theta, 3.0) - 1e-15)


@pytest.mark.parametrize("n,d", [(6, 0.3), (20, 0.0625)])
def test_boresight_is_grid_argmax(n, d):
    p = esnla(n, d)
    theta = np.linspace(0, TWO_PI, 1 << 18, endpoint=False)
    assert p.array_factor(p.boresight) >= p.array_factor(theta).max() * (1 - 1e-12)


@pytest.mark.parametrize("d", [0.5, 0.3])
@pytest.mark.parametrize("beta", [-1.3, -0.4, 0.7, 1.5])
def test_steered_boresight_is_smallest_nonnegative_root(beta, d):
    # a_k = e^{i beta k} peaks where 2 pi (D/lambda) sin(theta) = beta.  theta and
    # pi - theta tie; the boresight is the smallest nonnegative root.
    s = beta / (TWO_PI * d)
    want = math.asin(s) if s >= 0.0 else math.pi - math.asin(s)
    p = from_coefficients(np.exp(1j * beta * np.arange(7)), d, "steered")
    assert p.boresight == pytest.approx(want, abs=1e-7)
    assert p.gain(0.0) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(-50.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_gain_always_in_unit_interval(theta):
    p = esnla(4, 0.5)
    g = p.gain(theta)
    assert 0.0 <= g <= 1.0


def test_pattern_csv_export(tmp_path):
    out = tmp_path / "p.csv"
    patterns.write_pattern_csv(esnla(4, 0.5), 4.0, out, rows=256, comment="test")
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
    assert p.degree == 4 and p.d_ratio == 0.5
    assert patterns.parse_pattern_spec("binomial:6").degree == 6
    assert patterns.parse_pattern_spec("chebyshev:8:0.5:50").degree == 8
    with pytest.raises(ValueError):
        patterns.parse_pattern_spec("yagi:3")
    with pytest.raises(ValueError):
        patterns.parse_pattern_spec("esnla:odd")
