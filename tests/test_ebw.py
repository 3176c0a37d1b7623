import math
import tracemalloc
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy import stats
from scipy.special import roots_jacobi

import ebw_reference
from beamnet import ebw
from beamnet.ebw import (
    BasisDistribution,
    MixtureDistribution,
    effective_beam_width,
    effective_beam_widths,
    exact_beam_width,
    exact_beam_widths,
    interference_probability,
)
from beamnet.patterns import (
    _BLOCK,
    TWO_PI,
    _null_batch,
    binomial_array,
    build_pattern,
    chebyshev_array,
    esnla,
    from_coefficients,
    omni,
    sector,
)
from beamnet.scaling import optimize_chebyshev_rms

SAMPLES = 2 * 10**5

ORACLE_PATTERNS = [
    esnla(4, 0.5), esnla(12, 0.5), esnla(20, 0.25), binomial_array(8, 0.5),
    chebyshev_array(4, 0.5, 30.0), chebyshev_array(20, 0.5, 107.36),
]


def sorted_quadrature_beam_width(pattern, dist, alpha, x_points=1 << 16, phi_grid=1 << 20):
    """Independent oracle for W_B: integrate the beam-width-vs-threshold curve
    b(x) = |{phi: G*(phi) > x}|/2pi against dF_X.

    Uses the substitution t = F_X(x) per mixture component, so each term is the
    trapezoid of b(t**(1/h)) over a uniform t grid, with no endpoint singularity.
    """
    theta = np.linspace(0.0, TWO_PI, phi_grid, endpoint=False)
    gs = np.sort(np.asarray(pattern.gain_starred(theta, alpha)))

    def beam_curve(x):
        return (phi_grid - np.searchsorted(gs, x, side="right")) / phi_grid

    t = np.linspace(0.0, 1.0, x_points)
    return sum(w * float(np.trapezoid(beam_curve(t ** (1.0 / h)), t))
               for w, h in dist.components)


# Exponents e = h/alpha of the quadrature oracles: 2e even, odd and fractional.
EXPONENTS = (2.0, 1.0, 0.5, 0.25, 0.125)


def _powers(g):
    """g**e for each of EXPONENTS, by squaring and square roots."""
    r = mp.sqrt(g)
    return g * g, g, r, mp.sqrt(r), mp.sqrt(mp.sqrt(r))


def _tanh_sinh(h):
    """Tanh-sinh rule on [-1, 1] (Takahasi & Mori, Publ. RIMS 9, 1974) as pairs
    (1 - |x|, weight) for x >= 0, 1 - |x| kept exact near the ends; weights below
    1e-20 are dropped."""
    rule, j = [], 0
    while True:
        u = mp.pi / 2 * mp.sinh(j * h)
        w = h * mp.pi / 2 * mp.cosh(j * h) / mp.cosh(u) ** 2
        if w < 1e-20:
            return rule
        rule.append((1 / (mp.exp(u) * mp.cosh(u)), w))
        j += 1


def mp_beam_widths(family, n, d, r_ms=30.0):
    """Independent oracle at 40 digits: W_B = (2/pi) int_0^{pi/2} G^e for each e of
    EXPONENTS, by tanh-sinh quadrature (step 1/8) split at the visible nulls and
    into parts of at most 0.1 rad.  G comes from each family's definition: the
    ESNLA's N/2 null pairs at theta = pi m/(N+1), m = 1..N/2, whatever D/lambda;
    cos^(2N)(psi/2) for the binomial array; (T_N(x0 cos(psi/2))/R_MS)^2 for the
    Dolph-Chebyshev array.  The ESNLA's product over its null pairs runs in
    40-digit decimal arithmetic, which is faster than mpmath's."""
    with mp.workdps(40):
        dm = mpf(d)
        if family == "esnla":
            nulls = [mp.pi * m / (n + 1) for m in range(1, n // 2 + 1)]
            digits = Context(prec=40)
            null_u = [Decimal(str(mp.sin(mp.pi * dm * mp.sin(t)) ** 2)) for t in nulls]
            with localcontext(digits):
                norm = mpf(str(1 / math.prod(null_u)))

            def gain(t):  # prod_m ((u_m - u)/u_m)^2, u = sin^2(psi/2)
                u = Decimal(str(mp.sin(mp.pi * dm * mp.sin(t)) ** 2))
                with localcontext(digits):
                    f = math.prod(u_m - u for u_m in null_u)
                return (mpf(str(f)) * norm) ** 2
        elif family == "binomial":
            nulls = []

            def gain(t):
                return mp.cos(mp.pi * dm * mp.sin(t)) ** (2 * n)
        else:
            x0 = mp.cosh(mp.acosh(r_ms) / n)
            sines = [mp.acos(mp.cos((2 * k - 1) * mp.pi / (2 * n)) / x0) / (mp.pi * dm)
                     for k in range(1, n // 2 + 1)]
            nulls = sorted(mp.asin(s) for s in sines if s < 1)

            def gain(t):
                x = x0 * mp.cos(mp.pi * dm * mp.sin(t))
                t_n = mp.cos(n * mp.acos(x)) if x <= 1 else mp.cosh(n * mp.acosh(x))
                return (t_n / r_ms) ** 2
        ends = [mpf(0), *nulls, mp.pi / 2]
        rule = _tanh_sinh(mpf(1) / 8)
        sums = [mpf(0)] * len(EXPONENTS)
        for a, b in zip(ends[:-1], ends[1:]):
            parts = int(mp.ceil((b - a) * 10))
            for i in range(parts):
                lo, hi = a + (b - a) * i / parts, a + (b - a) * (i + 1) / parts
                half = (hi - lo) / 2
                for j, (gap, w) in enumerate(rule):
                    for t in [lo + half * gap, hi - half * gap][: 1 if j == 0 else 2]:
                        for k, g_e in enumerate(_powers(gain(t))):
                            sums[k] += half * w * g_e
        return [float(s / (mp.pi / 2)) for s in sums]


def combined_se(*ests):
    return math.sqrt(sum(e.stderr**2 for e in ests))


def test_basis_distribution_validation():
    with pytest.raises(ValueError):
        BasisDistribution(0.0)
    with pytest.raises(ValueError):
        BasisDistribution(-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="order"):
            BasisDistribution(bad)


def test_basis_cdf_endpoints():
    # the law F_X(x) = x^h on [0, 1]: its one component, and a KS test of its sampler
    d = BasisDistribution(2.5)
    assert d.components == ((1.0, 2.5),)
    x = d.from_uniforms(np.random.default_rng(7).random(10**5))
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert stats.kstest(x, lambda t: np.clip(t, 0.0, 1.0) ** 2.5).pvalue >= 0.01


@given(st.floats(0.2, 8.0))
@settings(max_examples=25, deadline=None)
def test_basis_samples_in_unit_interval(h):
    x = BasisDistribution(h).from_uniforms(np.random.default_rng(0).random(2000))
    assert np.all((x >= 0.0) & (x <= 1.0))


def test_h3_matches_radial_ball_law():
    # the h = 3 basis is the 3-D radial law p(x) = 3x^2, so X^3 is uniform
    x = BasisDistribution(3.0).from_uniforms(np.random.default_rng(42).random(10**5))
    assert stats.kstest(x**3, "uniform").pvalue >= 0.01


@pytest.mark.parametrize(
    "weights,orders",
    [((), ()), ((0.5, 0.6), (1.0, 2.0)), ((-0.1, 1.1), (1.0, 2.0)), ((0.5, 0.5), (1.0, -2.0)),
     ((math.nan,), (2.0,)), ((0.5, math.nan), (1.0, 2.0)), ((1.0,), (math.inf,)),
     ((0.5, 0.5), (1.0, math.nan))],
)
def test_mixture_validation(weights, orders):
    with pytest.raises(ValueError):
        MixtureDistribution(weights, orders)


def test_mixture_cdf_is_weighted_sum():
    m = MixtureDistribution((0.25, 0.75), (1.0, 3.0))
    assert m.components == ((0.25, 1.0), (0.75, 3.0))
    rng = np.random.default_rng(8)
    x = m.from_uniforms(rng.random(10**5), rng.random(10**5))
    assert stats.kstest(x, lambda t: 0.25 * t + 0.75 * t**3).pvalue >= 0.01


def test_omni_beam_width_is_one():
    est = effective_beam_width(omni(), BasisDistribution(2.0), 4.0, 10**4, seed=0)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_sector_beam_width_matches_fraction():
    est = effective_beam_width(sector(0.25), BasisDistribution(2.0), 4.0, SAMPLES, seed=1)
    assert abs(est.value - 0.25) <= 3 * est.stderr


def test_estimator_matches_quadrature_oracle():
    p = esnla(4, 0.5)
    est = effective_beam_width(p, BasisDistribution(2.0), 4.0, 10**6, seed=2)
    q = sorted_quadrature_beam_width(p, BasisDistribution(2.0), 4.0)
    assert abs(est.value - q) <= 3 * est.stderr


def test_exact_closed_forms():
    mix = MixtureDistribution((0.6, 0.3, 0.1), (1.0, 2.0, 4.0))  # weights sum to 1 - 2^-53
    for dist in (BasisDistribution(2.0), mix):
        assert exact_beam_width(omni(), dist, 4.0) == 1.0
        assert exact_beam_width(sector(0.3), dist, 4.0) == 0.3
    with pytest.raises(ValueError):
        exact_beam_width(omni(), BasisDistribution(2.0), 0.5)


@pytest.mark.parametrize("p", ORACLE_PATTERNS, ids=lambda p: p.label)
def test_exact_mixture_is_weighted_sum(p):
    mix = MixtureDistribution((0.2, 0.5, 0.3), (1.0, 2.0, 4.0))
    want = sum(w * exact_beam_width(p, BasisDistribution(h), 4.0) for w, h in mix.components)
    assert abs(exact_beam_width(p, mix, 4.0) - want) <= 1e-15


@pytest.mark.parametrize("p", ORACLE_PATTERNS, ids=lambda p: p.label)
@pytest.mark.parametrize("h", [1.0, 2.0, 4.0])
def test_exact_matches_sorted_quadrature_oracle(p, h):
    want = sorted_quadrature_beam_width(p, BasisDistribution(h), 4.0)
    assert abs(exact_beam_width(p, BasisDistribution(h), 4.0) - want) <= 1e-5


@pytest.mark.parametrize("p", ORACLE_PATTERNS, ids=lambda p: p.label)
def test_exact_matches_fine_trapezoid(p):
    # The periodic trapezoid rule on 2**22 angles, T, taken on [0, pi/2] by symmetry.
    # G is smooth, so for e = 1 T is exact to rounding.  For fractional e, G**e has a
    # cusp at each null, and T errs by O(h**(1 + 2e)) with a constant that depends on
    # where the nulls fall on the grid; its gaps to the rule on every other angle and
    # to the midpoint rule M bound that error.
    m = 1 << 20
    g = p.gain_from_sine(np.sin(np.arange(2 * m + 1) * (math.pi / 4 / m)))
    for e in (1.0, 0.5, 0.25, 0.125):
        g_e = g**e
        ends = 0.5 * (g_e[0] + g_e[-1])
        fine = (g_e[::2].sum() - ends) / m
        coarse = (g_e[::4].sum() - ends) / (m // 2)
        mid = g_e[1::2].sum() / m
        own_error = 0.0 if e == 1.0 else max(abs(fine - coarse), abs(fine - mid))
        exact = exact_beam_width(p, BasisDistribution(e), 1.0)
        assert abs(exact - fine) <= own_error + 1e-14, e


@pytest.mark.parametrize(
    "family,n,d,r_ms",
    [(f, n, d, 30.0) for f in ("esnla", "binomial", "chebyshev") for n in (4, 20, 200)
     for d in (0.5, 1 / 16)]
    # a null just past the horizon (sin(theta) = 1.0003), and lone nulls at 1.02
    + [("chebyshev", 200, 1 / 16, 1.5), ("binomial", 7, 0.49, 30.0)],
)
def test_exact_matches_mpmath_quadrature(family, n, d, r_ms):
    p = build_pattern(family, n=n, d_ratio=d, r_ms=r_ms)
    want = mp_beam_widths(family, n, d, r_ms)
    got = [exact_beam_width(p, BasisDistribution(e), 1.0) for e in EXPONENTS]
    assert max(abs(g / w - 1.0) for g, w in zip(got, want)) <= 1e-12


@pytest.mark.parametrize(
    "family,n,m",
    [("esnla", n, m) for n in (*range(2, 21, 2), 200, 1854, 1856) for m in (1, 2)]
    + [("binomial", n, m) for n in (20, 200) for m in (1, 2)]
    + [("chebyshev", n, m) for n in (7, 40, 1195, 1196) for m in (1, 2)]
    + [("esnla", 10**4, 1)],
)
def test_exact_matches_bessel_sum(family, n, m):
    """At D/lambda = 1/2 and integer e = m the exact W_B is a Bessel sum
    (ebw_reference.bessel_beam_width), on both sides of each rescale threshold:
    ESNLA N = 1856 and Chebyshev (R_MS 30) N = 1196 are the first rescaled degrees.
    ESNLA N = 2..20 at e = 2 and 1 are the sweep cells at alpha* = 0.5 and 1."""
    p = build_pattern(family, n=n, d_ratio=0.5, r_ms=30.0)
    assert p._rescaled == (n >= {"esnla": 1856, "binomial": math.inf, "chebyshev": 1196}[family])
    want = ebw_reference.bessel_beam_width(p, m)
    assert abs(exact_beam_width(p, BasisDistribution(float(m)), 1.0) / want - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha_star", [0.5, 1.0])
def test_optimised_chebyshev_matches_the_bessel_sum(alpha_star):
    """At D/lambda = 1/2, alpha* = 0.5 and 1 (alpha = 2 alpha*, h = 2) are the
    integer orders e = 2 and 1, where W_B is a Bessel sum: the W_B that
    optimize_chebyshev_rms returns at its optimised R_MS for N = 2..20 holds to
    it within 1e-12 relative (1.6e-15 at worst)."""
    e, ns = round(1.0 / alpha_star), range(2, 21, 2)
    for n, (r_ms, w) in zip(ns, optimize_chebyshev_rms(ns, alpha_star)):
        want = ebw_reference.bessel_beam_width(chebyshev_array(n, 0.5, r_ms), e)
        assert abs(w / want - 1.0) <= 1e-12, n


# Patterns whose G falls below NULL_CLAMP on whole arcs of theta (ESNLA from about
# N = 400, binomial from about 100), and Chebyshev 200, whose equal ripple does not.
UNDERFLOW_PATTERNS = [esnla(400), esnla(500), esnla(2000), binomial_array(100),
                      binomial_array(200), chebyshev_array(200, 0.5, 30.0)]


@pytest.mark.parametrize("p", UNDERFLOW_PATTERNS, ids=lambda p: p.label)
def test_small_orders_count_the_gains_below_the_clamp(p):
    """At small e = h/alpha, G^e is far from 0 where G < NULL_CLAMP = 1e-300 (e = 0.0025
    lifts 1e-300 to 0.18): the exact W_B holds to the log-sum midpoint rule on
    4e5 angles (ebw_reference.beam_width_log_sum) within 1e-4 relative, where the
    clamp cost ESNLA 2000 7% at e = 0.0025.  The rule's own cusp error reaches
    1.5e-5 at e = 0.05."""
    orders = (0.0025, 0.01, 0.05)
    want = ebw_reference.beam_width_log_sum(p, orders, 4 * 10**5)
    got = [exact_beam_width(p, BasisDistribution(e), 1.0) for e in orders]
    assert max(abs(g / w - 1.0) for g, w in zip(got, want)) <= 1e-4


@pytest.mark.parametrize(
    "family,n,d",
    [("esnla", 1000, 0.5), ("esnla", 3600, 0.5), ("esnla", 2000, 1 / 16),
     ("chebyshev", 1000, 0.5), ("chebyshev", 3000, 1 / 16), ("binomial", 1000, 0.5)],
)
def test_fractional_orders_converge_at_large_n(family, n, d, monkeypatch):
    """The node counts, tuned on N <= 200, converge at N in the thousands for
    fractional e = 2/alpha in {1/4, 1/2, 2/3, 4/5}: doubling NODE_SCALE and
    NODES_PER_PIECE moves no W_B by more than 1e-13 relative.  (It does not check
    the null split; the Bessel sum does that at integer e.)"""
    p = build_pattern(family, n=n, d_ratio=d, r_ms=30.0)
    alphas = (8.0, 4.0, 3.0, 2.5)
    want = [exact_beam_width(p, BasisDistribution(2.0), a) for a in alphas]
    monkeypatch.setattr(ebw, "NODE_SCALE", 2 * ebw.NODE_SCALE)
    monkeypatch.setattr(ebw, "NODES_PER_PIECE", 2 * ebw.NODES_PER_PIECE)
    for a, w in zip(alphas, want):
        assert abs(exact_beam_width(p, BasisDistribution(2.0), a) / w - 1.0) <= 1e-13, a


JACOBI_ORDERS = (0.0, 0.25, 0.5, 0.75, 0.99)
JACOBI_PAIRS = [(a, b) for a in JACOBI_ORDERS for b in JACOBI_ORDERS]
JACOBI_SPREAD = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 300)


@pytest.mark.parametrize("i", range(len(JACOBI_PAIRS)),
                         ids=[f"a{a:g}-b{b:g}" for a, b in JACOBI_PAIRS])
def test_gauss_jacobi_rule_nodes_and_moments(i):
    """Each weight (1 - x)^a (1 + x)^b at node counts spread over 1..300, and at
    every 25th count, so that the pairs together cover every count 1..300.  Nodes:
    within 1e-15 of scipy's roots_jacobi.  Weights: the moments
    sum w (1 + x)^k, k <= min(2n - 1, 20), which the rule integrates exactly, within
    1e-13 of 2^(k+a+b+1) B(a+1, k+b+1) (scipy's own weights miss them by up to
    3.4e-13)."""
    a, b = JACOBI_PAIRS[i]
    with mp.workdps(30):
        moments = [float(mpf(2) ** (k + a + b + 1) * mp.beta(a + 1, k + b + 1))
                   for k in range(21)]
    for n in sorted(set(JACOBI_SPREAD) | set(range(i + 1, 301, len(JACOBI_PAIRS)))):
        x, w = ebw._gauss_jacobi(n, a, b)
        assert np.max(np.abs(x - roots_jacobi(n, a, b)[0])) <= 1e-15, n
        for k in range(min(2 * n - 1, 20) + 1):
            assert abs(float(np.dot(w, (1.0 + x) ** k)) / moments[k] - 1.0) <= 1e-13, (n, k)


# The batch's families: every N in BATCH_NS at every spacing, Chebyshev at three
# R_MS, and the degrees on either side of where the null product starts to rescale.
BATCH_NS = (1, 2, 3, 4, 5, 6, 7, 8, 20, 40, 200)
BATCH_PATTERNS = [
    p for d in (1 / 16, 1 / 8, 1 / 4, 1 / 2) for n in BATCH_NS
    for p in ([esnla(n, d)] if n % 2 == 0 else []) + [binomial_array(n, d)]
    + [chebyshev_array(n, d, r) for r in (1.5, 30.0, 1e4)]
] + [chebyshev_array(1195, 0.5, 30.0), chebyshev_array(1196, 0.5, 30.0), esnla(1854), esnla(1856)]


@pytest.mark.parametrize("e", [1 / 8, 1 / 4, 1 / 2, 2 / 3, 1.0, 2.0])
def test_batch_members_equal_the_per_pattern_oracle(e):
    """Each W_B of one batch has the bits of the per-pattern route (ebw_reference)."""
    dist = BasisDistribution(e)
    got = exact_beam_widths(BATCH_PATTERNS, dist, 1.0)
    want = [ebw_reference.exact_beam_width(p, dist, 1.0) for p in BATCH_PATTERNS]
    assert [p.label for p, g, w in zip(BATCH_PATTERNS, got, want) if g != w] == []


def test_batch_member_does_not_depend_on_its_mates():
    """Alone, or among patterns of other families, spacings and null counts, before
    or after them, in one run of nodes with them or not: the same bits."""
    targets = [chebyshev_array(7, 0.5, 30.0), esnla(20, 0.25), binomial_array(5, 0.125),
               chebyshev_array(40, 1 / 16, 1e4)]
    mates = [omni(), sector(0.3), esnla(2, 0.5), esnla(200, 0.5), binomial_array(40, 0.25),
             chebyshev_array(1, 0.5, 2.0), chebyshev_array(8, 0.125, 1.5),
             chebyshev_array(7, 0.25, 30.0), chebyshev_array(1196, 0.5, 30.0)]
    for dist in (BasisDistribution(2.0), MixtureDistribution((0.3, 0.7), (1.0, 4.0))):
        alone = [exact_beam_widths([p], dist, 4.0)[0] for p in targets]
        assert alone == [ebw_reference.exact_beam_width(p, dist, 4.0) for p in targets]
        for batch in (targets + mates, mates + targets, mates[::2] + targets + mates[1::2],
                      [q for p in targets for q in (p, *mates[:3])], targets * 3):
            got = dict(zip(map(id, batch), exact_beam_widths(batch, dist, 4.0)))
            assert [got[id(p)] for p in targets] == alone


def test_null_split_equals_the_per_pattern_split():
    """One mixed batch's pieces (pattern, lo, hi, order at lo, order at hi) are the
    per-pattern depth-first split's, bit for bit.  The batch has horizon nulls
    (odd-N Chebyshev and binomial at D/lambda = 1/2) and nulls past the horizon
    (D/lambda <= 1/4), whose complex zeros bound the pieces next to pi/2."""
    pieces = ebw._null_split(_null_batch(BATCH_PATTERNS))
    got = list(zip(*(col.tolist() for col in pieces)))
    want = [(i, *piece) for i, p in enumerate(BATCH_PATTERNS)
            for piece in ebw_reference.null_split(p)]
    assert got == want


def test_large_degree_exact_memory_is_bounded():
    """ESNLA N = 10^4 (65 013 nodes at e = 1): only its node grid, weights and gains span
    all its nodes, and the gain kernel's temporaries stay within a _BLOCK."""
    p = esnla(10**4)
    tracemalloc.start()
    try:
        w = exact_beam_width(p, BasisDistribution(4.0), 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < w < 1e-3
    assert peak < 4 * 2**20, peak


def test_interference_probability_matches_the_per_pattern_oracle():
    for rx, tx in [(esnla(4), chebyshev_array(7, 0.25, 30.0)), (omni(), binomial_array(6)),
                   (sector(0.4), esnla(12, 0.125))]:
        for dist in (BasisDistribution(2.0), MIXED_ORDERS):
            want = ebw_reference.exact_interference_probability(rx, tx, dist, 4.0)
            assert interference_probability(rx, tx, dist, 4.0) == want


def test_exact_rejects_taper_patterns():
    # A taper has no null set for the null-split rule to split at.
    taper = from_coefficients([1.0, 2.0, 1.0], 0.5, "taper")
    with pytest.raises(ValueError, match=r"taper has no null set \(null_u\)"):
        exact_beam_width(taper, BasisDistribution(2.0), 4.0)


@pytest.mark.parametrize(
    "p",
    [omni(), sector(0.3), esnla(2, 0.5), esnla(4, 0.5), binomial_array(4, 0.5),
     chebyshev_array(4, 0.5, 30.0)],
    ids=lambda p: p.label,
)
@pytest.mark.parametrize("h", [1.0, 2.0, 4.0])
def test_quadrature_agreement_fixture_set(p, h):
    est = effective_beam_width(p, BasisDistribution(h), 4.0, SAMPLES, seed=3)
    exact = exact_beam_width(p, BasisDistribution(h), 4.0)
    assert abs(est.value - exact) <= 4 * max(est.stderr, 1e-12)


def test_interference_omni_pair_is_one():
    assert interference_probability(omni(), omni(), BasisDistribution(2.0), 4.0) == 1.0


def test_interference_sector_pair_is_product():
    assert interference_probability(sector(0.5), sector(0.25), BasisDistribution(2.0), 4.0) == 0.125


def test_product_form_single_order():
    # For one order the joint probability factors into the two beam widths.
    q = esnla(8, 0.5)
    for p in ORACLE_PATTERNS:
        for h in (1.0, 2.0, 4.0):
            dist = BasisDistribution(h)
            pr = interference_probability(p, q, dist, 4.0)
            product = exact_beam_width(p, dist, 4.0) * exact_beam_width(q, dist, 4.0)
            assert abs(pr / product - 1.0) <= 1e-15, (p.label, h)
    with pytest.raises(ValueError):
        interference_probability(q, q, BasisDistribution(2.0), 0.5)


def test_mixture_single_component_reduces_to_basis():
    p = esnla(4, 0.5)
    single = MixtureDistribution((1.0,), (2.0,))
    assert exact_beam_width(p, single, 4.0) == exact_beam_width(p, BasisDistribution(2.0), 4.0)
    m = effective_beam_width(p, single, 4.0, SAMPLES, seed=7)
    b = effective_beam_width(p, BasisDistribution(2.0), 4.0, SAMPLES, seed=8)
    assert abs(m.value - b.value) <= 3 * combined_se(m, b)


def test_mixture_on_sector_is_order_free():
    mix = MixtureDistribution((0.5, 0.5), (1.0, 3.0))
    assert exact_beam_width(sector(0.25), mix, 4.0) == 0.25
    m = effective_beam_width(sector(0.25), mix, 4.0, SAMPLES, seed=9)
    assert abs(m.value - 0.25) <= 3 * m.stderr


def test_mixture_matches_component_quadratures():
    # sampling the mixture directly agrees with the exact weighted sum of basis widths
    mix = MixtureDistribution((0.5, 0.5), (1.0, 4.0))
    for p in (esnla(4, 0.5), binomial_array(4, 0.5), chebyshev_array(8, 0.5, 41.11)):
        want = sum(w * exact_beam_width(p, BasisDistribution(h), 4.0) for w, h in mix.components)
        est = effective_beam_width(p, mix, 4.0, 10**6, seed=10)
        assert abs(est.value - want) <= 4 * est.stderr


JOINT_PAIRS = [
    (esnla(4, 0.5), esnla(4, 0.5)), (esnla(4, 0.5), esnla(8, 0.5)),
    (binomial_array(4, 0.5), chebyshev_array(7, 0.5, 30.0)), (esnla(12, 0.25), sector(0.3)),
]
MIXED_ORDERS = MixtureDistribution((0.5, 0.5), (1.0, 4.0))


def test_bounds_single_order_equality():
    # A one-component mixture gives the basis law's joint probability, the product.
    p, q = esnla(4, 0.5), esnla(8, 0.5)
    single = interference_probability(p, q, MixtureDistribution((1.0,), (2.0,)), 4.0)
    assert single == interference_probability(p, q, BasisDistribution(2.0), 4.0)
    assert single == exact_beam_width(p, BasisDistribution(2.0), 4.0) * exact_beam_width(
        q, BasisDistribution(2.0), 4.0)


def test_bounds_sector_equality_any_mixture():
    # An indicator's per-order means are all its beam fraction, so the lower bound
    # is attained, and omni on one side attains both bounds.
    mix = MixtureDistribution((0.6, 0.3, 0.1), (1.0, 2.0, 4.0))  # weights sum to 1 - 2^-53
    pr = interference_probability(sector(0.4), sector(0.25), mix, 4.0)
    assert pr == exact_beam_width(sector(0.4), mix, 4.0) * exact_beam_width(sector(0.25), mix, 4.0)
    assert pr == 0.4 * 0.25
    p = esnla(4, 0.5)
    assert interference_probability(omni(), p, mix, 4.0) == exact_beam_width(p, mix, 4.0)


def test_bounds_strict_excess_for_mixed_orders():
    # Distinct orders on arrays: strictly between the product and the smaller width.
    for rx, tx in JOINT_PAIRS[:3]:
        w_rx = exact_beam_width(rx, MIXED_ORDERS, 4.0)
        w_tx = exact_beam_width(tx, MIXED_ORDERS, 4.0)
        pr = interference_probability(rx, tx, MIXED_ORDERS, 4.0)
        assert w_rx * w_tx < pr < min(w_rx, w_tx), (rx.label, tx.label)


@pytest.mark.parametrize("dist", (BasisDistribution(2.0), MIXED_ORDERS), ids=lambda d: d.describe())
@pytest.mark.parametrize("i", range(len(JOINT_PAIRS)))
def test_sampler_matches_the_exact_joint_probability(i, dist):
    rx, tx = JOINT_PAIRS[i]
    est = ebw_reference.interference_probability(rx, tx, dist, 4.0, 10**6, 31 + i)
    assert abs(est.value - interference_probability(rx, tx, dist, 4.0)) <= 4 * est.stderr


ALPHA_STARS = (0.5, 1.0, 2.0, 4.0)
ORDERS = (1.0, 2.0, 4.0, 8.0)


def test_monotone_in_alpha_star():
    # alpha* is realized as alpha = 2*alpha*, h = 2: a larger alpha* raises G* = G**(1/alpha)
    basis = BasisDistribution(2.0)
    widths = [exact_beam_width(esnla(4, 0.5), basis, 2.0 * a) for a in ALPHA_STARS]
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_monotone_decreasing_in_h():
    # F_X(x) = x**h: a larger order h puts interferers farther out, so fewer are reached
    widths = [exact_beam_width(esnla(4, 0.5), BasisDistribution(h), 4.0) for h in ORDERS]
    assert all(b < a for a, b in zip(widths, widths[1:]))
    assert all(exact_beam_width(omni(), BasisDistribution(h), 4.0) == 1.0 for h in ORDERS)


def test_scan_omni_constant():
    # G* = 1 everywhere, so every interferer is reached whatever alpha*: W_B = 1 on both routes
    basis = BasisDistribution(2.0)
    for a in ALPHA_STARS:
        assert exact_beam_width(omni(), basis, 2.0 * a) == 1.0
        assert effective_beam_width(omni(), basis, 2.0 * a, 10**4, seed=0).value == 1.0


def test_fixed_seed_reproducible():
    p = esnla(4, 0.5)
    a = effective_beam_width(p, BasisDistribution(2.0), 4.0, SAMPLES, seed=16)
    b = effective_beam_width(p, BasisDistribution(2.0), 4.0, SAMPLES, seed=16)
    assert a.value == b.value


def test_thread_count_does_not_change_result():
    p = esnla(4, 0.5)
    args = (p, BasisDistribution(2.0), 4.0, 3 * 10**6)
    a = effective_beam_width(*args, seed=17, threads=1)
    b = effective_beam_width(*args, seed=17, threads=4)
    assert a.value == b.value


# Sample counts around the block (2^14) and shard (2^20) edges.
LAYOUT_SAMPLES = (1, 2**14 - 1, 2**14, 2**14 + 1, 2**20 + 3)
LAYOUT_LAWS = (BasisDistribution(2.0), MixtureDistribution((0.3, 0.7), (1.0, 4.0)))


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("dist", LAYOUT_LAWS, ids=lambda d: d.describe())
@pytest.mark.parametrize("samples", LAYOUT_SAMPLES)
def test_block_evaluation_matches_one_shot_stream(samples, dist, threads):
    """Read in blocks, each shard gives the value and stderr of one draw of each
    stretch whole (ebw_reference), exactly: a cursor per stretch, the law's
    included.  A single cursor for a mixture's two stretches would differ past
    one block."""
    p = esnla(4, 0.5)
    got = effective_beam_width(p, dist, 4.0, samples, seed=23, threads=threads)
    assert got == ebw_reference.effective_beam_width(p, dist, 4.0, samples, 23)


@pytest.mark.parametrize("dist", LAYOUT_LAWS, ids=lambda d: d.describe())
@pytest.mark.parametrize("samples", (1, 2**14 + 1, 10**5))
def test_omni_estimate_is_the_sampled_one_without_drawing(samples, dist, monkeypatch):
    # G* = 1 > X on every trial: the closed form is the one-shot sampler's estimate.
    want = ebw_reference.effective_beam_width(omni(), dist, 4.0, samples, 5)
    monkeypatch.setattr(ebw, "shard_cursors", None)  # nothing is drawn
    got = effective_beam_width(omni(), dist, 4.0, samples, seed=5)
    assert got == want == ebw.EbwEstimate(1.0, 0.0, samples)


@pytest.mark.parametrize("threads", (1, 2))
def test_estimator_memory_is_bounded(threads):
    """At 10^6 samples an estimate peaks below 8 MiB of traced allocations; one
    shard evaluated whole holds several float64 arrays of 8 MB each."""
    p = esnla(4, 0.5)
    for dist in (BasisDistribution(2.0), MixtureDistribution((0.3, 0.7), (1.0, 4.0))):
        tracemalloc.start()
        try:
            est = effective_beam_width(p, dist, 4.0, 10**6, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < est.value < 1.0
        assert peak < 8 * 2**20, peak


def test_stderr_shrinks_with_samples():
    p = esnla(4, 0.5)
    a = effective_beam_width(p, BasisDistribution(2.0), 4.0, SAMPLES, seed=18)
    b = effective_beam_width(p, BasisDistribution(2.0), 4.0, 2 * SAMPLES, seed=18)
    assert b.stderr < a.stderr
    assert b.stderr / a.stderr == pytest.approx(1 / math.sqrt(2), rel=0.1)


def test_estimator_validation():
    with pytest.raises(ValueError):
        effective_beam_width(omni(), BasisDistribution(2.0), 0.5, 100)
    with pytest.raises(ValueError):
        effective_beam_width(omni(), BasisDistribution(2.0), 4.0, 0)


@pytest.mark.parametrize("threads", (0, -1))
def test_threads_below_one_is_rejected_before_the_omni_closed_form(threads):
    for batch in ([omni()], [omni(), esnla(4, 0.5)]):
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            effective_beam_widths(batch, BasisDistribution(2.0), 4.0, 100, threads=threads)


# Every kind of pattern the estimator evaluates: omni (closed form), a sector
# (gain(theta)), ESNLA, binomial (lone nulls only), odd-N Chebyshev (pairs and a
# lone null), and Chebyshev N = 1196, the first degree whose null product rescales
# at R_MS = 30; its gains take about 1.6 s per 2^20 samples, so it runs at 2^14 + 17.
BATCH = [omni(), sector(0.25), esnla(4, 0.5), binomial_array(6, 0.5),
         chebyshev_array(7, 0.5, 30.0)]
RESCALED = chebyshev_array(1196, 0.5, 30.0)
# A sweep's batch: many arrays of one kind, unit-padded to ESNLA N = 20's ten
# pairs and sharing each block's sines and terms of the angles, Chebyshev arrays
# of both parities, two rescaled arrays of one kind, and the patterns evaluated
# one at a time, a taper and a sector.
SWEEP_BATCH = ([esnla(n, 0.5) for n in range(2, 21, 2)]
               + [chebyshev_array(6, 0.5, 30.0), chebyshev_array(9, 0.5, 30.0), RESCALED,
                  esnla(1856, 0.5), from_coefficients([1.0, 2.0, 1.0], 0.5, "taper"),
                  sector(0.25)])


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("dist", LAYOUT_LAWS, ids=lambda d: d.describe())
@pytest.mark.parametrize("samples,batch", [(2**20 + 17, BATCH), (2**14 + 17, BATCH + [RESCALED]),
                                           (2**14 + 17, SWEEP_BATCH)],
                         ids=["two-shards", "two-blocks-rescaled", "two-blocks-sweep"])
def test_batch_estimates_are_the_single_estimates(samples, batch, dist, threads):
    """Each pattern of a batch gets, bit for bit, the estimate it gets alone and
    the one-shot sampler's (ebw_reference): the batch shares its draws, and its
    patterns do not disturb one another, across shards, blocks and threads."""
    assert RESCALED._rescaled and esnla(1856, 0.5)._rescaled
    got = effective_beam_widths(batch, dist, 4.0, samples, seed=29, threads=threads)
    assert len(got) == len(batch)
    for p, est in zip(batch, got):
        assert est == effective_beam_width(p, dist, 4.0, samples, seed=29, threads=threads)
        assert est == ebw_reference.effective_beam_width(p, dist, 4.0, samples, 29)


def test_sweep_block_memory_is_bounded():
    """A block of a ten-pattern sweep (ESNLA N = 2..20, one kind) holds at most 16
    blocks of float64 at once (15.2 measured): its draws, the gain kernel's scratch
    and two rows of gains.  The ten rows' gains at once would add eight blocks."""
    batch = [esnla(n, 0.5) for n in range(2, 21, 2)]
    effective_beam_widths(batch, BasisDistribution(2.0), 4.0, _BLOCK, seed=3)  # warm caches
    tracemalloc.start()
    try:
        effective_beam_widths(batch, BasisDistribution(2.0), 4.0, _BLOCK, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * _BLOCK, peak / (8 * _BLOCK)


def test_batch_does_not_depend_on_order_or_company():
    dist = BasisDistribution(2.0)
    forward = effective_beam_widths(BATCH, dist, 4.0, 3 * 10**4, seed=31)
    backward = effective_beam_widths(BATCH[::-1], dist, 4.0, 3 * 10**4, seed=31)
    assert forward == backward[::-1]
    assert effective_beam_widths([], dist, 4.0, 3 * 10**4, seed=31) == []
