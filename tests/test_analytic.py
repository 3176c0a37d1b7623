import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import bisect

from beamnet import analytic
from beamnet.analytic import (
    analytic_total_throughput,
    f_alpha,
    guard_zone,
    optimal_params,
    transport_root,
)
from analytic_reference import f_alpha_monte_carlo

C1_REF = guard_zone(10.0, 4.0)[1]


def test_guard_zone_reference_values():
    delta, c1 = guard_zone(10.0, 4.0)
    assert delta == pytest.approx(0.778, abs=5e-4)
    assert c1 == pytest.approx(9.935, abs=5e-4)


def test_guard_zone_closed_forms():
    delta, c1 = guard_zone(16.0, 4.0)
    assert delta == pytest.approx(1.0, abs=1e-12)
    assert c1 == pytest.approx(4 * math.pi, abs=1e-12)
    delta, c1 = guard_zone(10.0, 2.0)
    assert delta == pytest.approx(math.sqrt(10) - 1, abs=1e-12)
    assert c1 == pytest.approx(10 * math.pi, abs=1e-9)


def test_guard_zone_validation():
    with pytest.raises(ValueError):
        guard_zone(1.0, 4.0)
    with pytest.raises(ValueError):
        guard_zone(10.0, 0.5)
    for sir0 in (math.inf, math.nan):
        with pytest.raises(ValueError, match="SIR0"):
            guard_zone(sir0, 4.0)


def test_f_alpha_reference_points():
    assert f_alpha(4.0) == math.pi / 2
    assert math.isinf(f_alpha(2.0))
    assert math.isinf(f_alpha(1.5))
    assert f_alpha(8.0) == pytest.approx((math.pi / 4) / math.sin(math.pi / 4), abs=1e-12)
    assert f_alpha(8.0) == pytest.approx(1.1107, abs=1e-4)


def test_f_alpha_decreasing_toward_one():
    alphas = np.linspace(2.1, 64.0, 200)
    vals = [f_alpha(a) for a in alphas]
    assert all(v > 1.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_f_alpha_monte_carlo_agrees():
    assert f_alpha_monte_carlo(4.0, 10**6, seed=1) == pytest.approx(math.pi / 2, rel=0.01)
    assert f_alpha_monte_carlo(8.0, 10**6, seed=2) == pytest.approx(f_alpha(8.0), rel=0.01)


def test_ratio_distribution_check():
    # KS test at the 1% level: V = F1/F2 for Exp(1) pairs has CDF v/(1+v)
    rng = np.random.default_rng(np.random.SeedSequence([3, 0xFB]))
    v = rng.standard_exponential(2 * 10**5) / rng.standard_exponential(2 * 10**5)
    assert stats.kstest(v, lambda t: t / (1.0 + t)).pvalue >= 0.01
    assert np.median(v) == pytest.approx(1.0, abs=0.02)


def test_ratio_distribution_quantiles():
    rng = np.random.default_rng(5)
    v = rng.standard_exponential(10**6) / rng.standard_exponential(10**6)
    assert np.mean(v <= 1.0) == pytest.approx(0.5, abs=0.005)
    assert np.mean(v <= 3.0) == pytest.approx(0.75, abs=0.005)


def test_total_throughput_zero_at_pt_zero():
    assert analytic_total_throughput(1000, 0.0, 0.05, 0.5, C1_REF) == 0.0


def test_total_throughput_small_wb_limit():
    n, p_t, r = 1000, 0.3, 0.05
    got = analytic_total_throughput(n, p_t, r, 1e-12, C1_REF)
    assert got == pytest.approx(n * p_t * (1 - p_t), rel=1e-6)


def test_total_throughput_rejects_saturated_argument():
    with pytest.raises(ValueError):
        analytic_total_throughput(1000, 0.5, 0.5, 1.0, C1_REF)


@given(st.floats(0.01, 0.99), st.floats(0.02, 0.1), st.integers(100, 5000))
@settings(max_examples=40, deadline=None)
def test_total_throughput_decreasing_in_wb(w_hi, r, n):
    w_lo = w_hi * 0.5
    hi = analytic_total_throughput(n, 0.3, r, w_lo, C1_REF)
    lo = analytic_total_throughput(n, 0.3, r, w_hi, C1_REF)
    assert hi >= lo


def test_transport_root_matches_asymptote():
    for n in (10**3, 10**4, 10**5):
        w = transport_root(n)
        assert w == pytest.approx(1.256 / n, rel=0.02)


def test_transport_root_matches_scipy_bisect():
    # Oracle: scipy.optimize.bisect on the same function, bracket and tolerances
    # returns the same root, bit for bit.
    for n in list(range(3, 200)) + [10**4, 10**9, 10**18]:
        def g(w):
            return (2.0 * (n - 1) * w * math.exp((n - 2) * math.log1p(-w))
                    - analytic._bracket_power(n, w))

        want = bisect(g, min(1e-12, 0.5 / n), 1.0 - 1e-12, xtol=1e-300, maxiter=200)
        assert transport_root(n) == want, n


def test_bisection_rejects_a_bracket_without_a_sign_change_and_non_convergence():
    with pytest.raises(ValueError, match="different signs"):
        analytic._bisect(lambda x: x, 1.0, 2.0, xtol=1e-15, maxiter=200)
    with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
        analytic._bisect(lambda x: x - 0.3, 0.0, 1.0, xtol=1e-15, maxiter=3)


# The root x of e^x = 1 + 2x, the limit of n * transport_root(n).
TRANSPORT_ROOT_LIMIT = 1.2564312086261697


@pytest.mark.parametrize("n", [10**12, 10**15, 10**18])
def test_transport_root_tends_to_its_limit(n):
    assert math.exp(TRANSPORT_ROOT_LIMIT) == pytest.approx(1 + 2 * TRANSPORT_ROOT_LIMIT, rel=1e-15)
    assert abs(n * transport_root(n) - TRANSPORT_ROOT_LIMIT) <= 1e-9


def test_transport_radius_is_continuous_in_n():
    # One bisection at every n: r * sqrt(n) moves by about 6e-5 per unit step of n
    # near n = 100, where an asymptotic root switched in with a 0.6% jump.
    scaled = [optimal_params(n, 0.01, "transport", C1_REF).r * math.sqrt(n) for n in (99, 100, 101)]
    steps = [b / a - 1.0 for a, b in zip(scaled, scaled[1:])]
    assert all(-1e-4 < s < 0.0 for s in steps)


def test_transport_root_is_a_root():
    n = 2000
    w = transport_root(n)
    lhs = 2 * (n - 1) * w * (1 - w) ** (n - 2)
    rhs = 1 - (1 - w) ** (n - 1)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_optimal_params_total_omni():
    reg = optimal_params(10**4, 1.0, "total", C1_REF)
    assert reg.p_t == 0.5
    assert reg.r == pytest.approx(math.sqrt(math.log(10**4) / 10**4), abs=1e-12)
    assert "W_B" in reg.regime and "log" in reg.regime


@pytest.mark.parametrize("n", [3, 50, 10**4, 10**6])
@pytest.mark.parametrize("w_b", [1.0, 0.01, 1e-9])
def test_optimal_params_total_is_the_total_throughput_rule(n, w_b):
    # One rule for the total objective, shared with netsim.capacity_curve.
    reg = optimal_params(n, w_b, "total", C1_REF)
    assert (reg.p_t, reg.r) == analytic.total_throughput_rule(n)


def test_optimal_params_tiny_wb_transport_is_linear_regime():
    reg = optimal_params(10**4, 1e-5, "transport", C1_REF)
    assert reg.regime == "Theta(n)"


def test_optimal_params_transport_radius_value():
    reg = optimal_params(10**4, 0.01, "transport", C1_REF)
    assert reg.p_t == 0.5
    assert reg.r == pytest.approx(0.05028, abs=5e-5)
    assert not reg.r_clamped


def test_optimal_transport_radius_maximizes_bracket():
    # oracle: direct grid maximization of the transport bracket in r
    n, w_b = 10**4, 0.01
    reg = optimal_params(n, w_b, "transport", C1_REF)
    r_grid = np.linspace(1e-4, 0.2, 10**4)
    f2 = (1 - (1 - C1_REF * 0.5 * r_grid**2 * w_b) ** (n - 1)) / (w_b * r_grid)
    r_star = r_grid[np.argmax(f2)]
    assert abs(reg.r - r_star) <= 2 * (r_grid[1] - r_grid[0])
    assert reg.r == pytest.approx(r_star, rel=0.01)


@pytest.mark.parametrize("n", [100, 1000, 10**4])
@pytest.mark.parametrize("fraction", [0.999, 1e-3])
def test_transport_radius_is_capped_at_the_longest_torus_link(n, fraction):
    """Below W_B = 4 transport_root(n) / c1 the bracket's optimum r0 lies past
    sqrt(2)/2, the longest link on the torus: the radius is capped there and
    flagged, the bracket is finite, and over [floor, sqrt(2)/2] it peaks at the cap."""
    w_b = fraction * 4.0 * transport_root(n) / C1_REF
    reg = optimal_params(n, w_b, "transport", C1_REF)
    assert reg.r == analytic.MAX_LINK_LENGTH and reg.r_clamped
    assert math.isfinite(analytic_total_throughput(n, reg.p_t, reg.r, w_b, C1_REF))
    r_grid = np.linspace(math.sqrt(math.log(n) / n), analytic.MAX_LINK_LENGTH, 10**4)
    f2 = (1 - (1 - C1_REF * 0.5 * r_grid**2 * w_b) ** (n - 1)) / (w_b * r_grid)
    assert r_grid[np.argmax(f2)] == reg.r


def test_optimal_params_pt_clamp_flag():
    # W_B log n < 2 makes the large-W_B transport branch ask for p_t > 1/2
    reg = optimal_params(10**4, 0.15, "transport", C1_REF)
    assert reg.p_t == 0.5
    assert reg.pt_clamped


def test_regime_label_consistency():
    for n in (10**3, 10**4):
        thresh = 1.0 / math.log(n)
        assert optimal_params(n, thresh * 0.999, "total", C1_REF).regime == "Theta(n)"
        assert optimal_params(n, thresh * 1.001, "total", C1_REF).regime != "Theta(n)"


def test_optimal_params_validation():
    with pytest.raises(ValueError):
        optimal_params(2, 0.5, "total", C1_REF)
    with pytest.raises(ValueError):
        optimal_params(100, 0.0, "total", C1_REF)
    with pytest.raises(ValueError):
        optimal_params(100, 0.5, "both", C1_REF)
