import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamnet import scaling
from beamnet._parallel import derive_seed
from beamnet.ebw import BasisDistribution, effective_beam_widths, exact_beam_width, exact_beam_widths
from beamnet.patterns import build_pattern, chebyshev_array, chebyshev_arrays
from beamnet.scaling import (
    PowerLawFit,
    SweepRow,
    SweepTable,
    family_ordering_check,
    fit_power_law,
    optimize_chebyshev_rms,
    parallel_lines_check,
    spacing_check,
    sweep,
)

SAMPLES = 2 * 10**5


def synthetic_table(b1, gamma, n_list=(2, 4, 8, 16), **kw):
    rows = tuple(SweepRow(n=n, w_b=b1 / n**gamma, stderr=0.0) for n in n_list)
    return SweepTable(family=kw.get("family", "esnla"), alpha_star=kw.get("alpha_star", 2.0),
                      d_ratio=kw.get("d_ratio", 0.5), rows=rows)


def test_fit_recovers_exact_power_law():
    fit = fit_power_law(synthetic_table(0.659, 0.810))
    assert fit.b1 == pytest.approx(0.659, abs=1e-12)
    assert fit.gamma == pytest.approx(0.810, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


@given(st.floats(0.05, 1.0), st.floats(0.05, 2.0))
@settings(max_examples=40, deadline=None)
def test_fit_exact_on_random_power_laws(b1, gamma):
    fit = fit_power_law(synthetic_table(b1, gamma))
    assert fit.b1 == pytest.approx(b1, rel=1e-9)
    assert fit.gamma == pytest.approx(gamma, abs=1e-9)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_power_law(synthetic_table(0.5, 0.5, n_list=(2, 4)))
    rows = (SweepRow(2, 0.5, 0.0), SweepRow(4, 0.4, 0.0), SweepRow(8, 0.3, 0.0))
    table = SweepTable("esnla", 2.0, 0.5, rows)
    fit_power_law(table)  # fine
    with pytest.raises(ValueError):
        SweepTable("esnla", 2.0, 0.5, rows + (SweepRow(16, 1.5, 0.0),))


def test_sweep_table_needs_increasing_n():
    with pytest.raises(ValueError):
        SweepTable("esnla", 2.0, 0.5, (SweepRow(4, 0.5, 0.0), SweepRow(2, 0.6, 0.0)))


def test_sweep_table_rejects_n_below_one():
    with pytest.raises(ValueError, match="N values must be strictly increasing integers >= 1"):
        SweepTable("omni", 2.0, 0.5, (SweepRow(0, 1.0, 0.0), SweepRow(2, 1.0, 0.0)))


@pytest.mark.parametrize("n_list", [[0, 2, 5], [-3, 2, 5], [2, 2, 4], [4, 2, 6], [2, 2.5, 4]])
def test_sweep_rejects_bad_n_list_before_any_cell(n_list, monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(scaling, "effective_beam_widths", no_cell)
    monkeypatch.setattr(scaling, "optimize_chebyshev_rms", no_cell)
    for family in ("omni", "chebyshev"):
        with pytest.raises(ValueError, match="N values must be strictly increasing integers >= 1"):
            sweep(family, n_list, samples=1000)


def test_fit_prediction_interpolates():
    t = synthetic_table(0.7, 0.6)
    fit = fit_power_law(t)
    for row in t.rows:
        assert fit.b1 / row.n**fit.gamma == pytest.approx(row.w_b, rel=1e-9)


def test_omni_sweep_is_constant_one():
    t = sweep("omni", [2, 4, 6], alpha_star=2.0, samples=10**4, seed=0)
    assert all(r.w_b == 1.0 for r in t.rows)


def test_omni_fit_gamma_is_positive_zero():
    """A flat sweep's slope is +0.0, so its gamma is +0.0, which CSVs write as 0,
    not -0."""
    fit = fit_power_law(sweep("omni", [1, 2, 3], samples=10))
    assert fit.gamma == 0.0 and math.copysign(1.0, fit.gamma) == 1.0
    assert f"{fit.gamma:.4f}" == "0.0000"


def test_esnla_sweep_decreases():
    t = sweep("esnla", [2, 4, 6], alpha_star=2.0, samples=SAMPLES, seed=1)
    vals = [r.w_b for r in t.rows]
    assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("family", ["esnla", "binomial"])
def test_fit_describes_sweep(family):
    # positive decay index and a tight log-log fit; pointwise residuals carry
    # a systematic few-percent curvature term, so they are bounded relatively
    t = sweep(family, [2, 4, 6, 8, 10, 12], alpha_star=2.0, samples=SAMPLES, seed=5)
    fit = fit_power_law(t)
    assert fit.gamma > 0
    assert fit.r2 >= 0.98
    for row in t.rows:
        assert abs(fit.b1 / row.n**fit.gamma - row.w_b) / row.w_b <= 0.10


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep("vivaldi", [2, 4])
    with pytest.raises(ValueError):
        sweep("esnla", [2, 3, 4], samples=100)
    with pytest.raises(ValueError):
        sweep("esnla", [2, 4], alpha_star=-1.0, samples=100)


@pytest.mark.parametrize("a_star", [0.3, 0.4999, -1.0, 0.0, math.nan, math.inf])
def test_alpha_star_below_one_half_is_rejected_up_front(a_star, monkeypatch):
    # alpha = 2 alpha* must be >= 1; the error names alpha_star, before any cell runs.
    def no_cell(*args, **kwargs):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(scaling, "effective_beam_widths", no_cell)
    monkeypatch.setattr(scaling, "exact_beam_widths", no_cell)
    for family in ("omni", "esnla", "chebyshev"):
        with pytest.raises(ValueError, match="alpha_star must be finite and >= 1/2"):
            sweep(family, [2, 4], alpha_star=a_star, samples=100)
    with pytest.raises(ValueError, match="alpha_star must be finite and >= 1/2"):
        optimize_chebyshev_rms([2, 4], a_star)


@pytest.mark.parametrize("threads", (1, 2))
def test_sweep_rows_are_the_batch_at_the_derived_seed(threads):
    """A sweep estimates every N in one effective_beam_widths call at the seed of
    (seed, alpha*, D/lambda) alone, so its cells share their draws, and so do the
    sweeps of every family at that seed."""
    ns, a_star, d, samples, seed = (2, 4, 6), 1.5, 0.25, 3 * 10**4, 9
    drawn = derive_seed(seed, round(a_star * 10**6), round(d * 10**6))
    for family in scaling.FAMILIES:
        t = sweep(family, ns, a_star, d, samples, seed, threads)
        cells = [build_pattern(family, n=row.n, d_ratio=d, r_ms=row.r_ms) for row in t.rows]
        want = effective_beam_widths(cells, BasisDistribution(2.0), 2.0 * a_star, samples, drawn)
        assert [(row.w_b, row.stderr) for row in t.rows] == [(e.value, e.stderr) for e in want]


def test_alpha_star_of_one_half_is_accepted():
    t = sweep("esnla", [2, 4], alpha_star=0.5, samples=1000)
    assert t.alpha_star == 0.5


def test_chebyshev_sweep_records_rms():
    t = sweep("chebyshev", [2, 4], alpha_star=2.0, samples=5 * 10**4, seed=2)
    assert all(r.r_ms is not None and r.r_ms > 1.0 for r in t.rows)
    assert all(0.0 < r.w_b <= 1.0 for r in t.rows)


def test_optimizer_beats_grid_neighbors():
    n, a_star = 4, 2.0
    r_best, w_best = optimize_chebyshev_rms([n], a_star, 0.5)[0]
    assert w_best == exact_beam_width(chebyshev_array(n, 0.5, r_best), BasisDistribution(2.0), 4.0)
    grid = np.logspace(math.log10(scaling.RMS_GRID_LO), math.log10(scaling.RMS_GRID_HI),
                       scaling.RMS_GRID_POINTS)
    i = int(np.argmin(np.abs(np.log10(grid) - math.log10(r_best))))
    for j in (max(i - 1, 0), min(i + 1, len(grid) - 1)):
        w = exact_beam_width(chebyshev_array(n, 0.5, grid[j]), BasisDistribution(2.0), 2 * a_star)
        assert w_best <= w


def test_optimizer_finds_the_global_minimum_among_several():
    """At N = 22, D/lambda = 1/8, alpha* = 4, W_B(R_MS) has a secondary minimum
    near R_MS = 48 (W_B 0.309775) next to the best point of the coarse grid, and
    its global minimum near R_MS = 20 (W_B 0.309169).  The search finds the
    global one, at least as low as on a 2000-point log grid and within its spacing."""
    r_best, w_best = optimize_chebyshev_rms([22], 4.0, 0.125)[0]
    fine = np.geomspace(scaling.RMS_GRID_LO, scaling.RMS_GRID_HI, 2000)
    w = exact_beam_widths(chebyshev_arrays(22, 0.125, fine), BasisDistribution(2.0), 8.0)
    k = int(np.argmin(w))
    assert w_best <= w[k]
    assert fine[k - 1] <= r_best <= fine[k + 1]


def test_optimizer_beats_huge_rms():
    r_best, w_best = optimize_chebyshev_rms([4], 2.0, 0.5)[0]
    assert exact_beam_width(chebyshev_array(4, 0.5, 1e6), BasisDistribution(2.0), 4.0) >= w_best


def rms_objective(n, a_star, d):
    """The R_MS search's objective: the exact W_B at each R_MS in r_values, in one batch."""
    return lambda r_values: exact_beam_widths(chebyshev_arrays(n, d, r_values),
                                              BasisDistribution(2.0), 2.0 * a_star)


TABLE_C_CELLS = [(n, 2.0, 0.5) for n in scaling.DEFAULT_N_LIST]


@pytest.mark.parametrize("n,a_star,d", TABLE_C_CELLS + [(1, 2.0, 0.5), (6, 0.5, 0.25),
                                                        (11, 1.0, 0.125), (22, 4.0, 0.125),
                                                        (40, 4.0, 0.5)])
def test_rms_search_meets_a_fine_grid(n, a_star, d):
    """Oracle: a 2000-point log grid over the search's range.  The search's W_B is
    at most the grid's minimum, and its R_MS lies within one spacing of the grid's
    argmin (the table C cells, and cells at other alpha* and D/lambda)."""
    r_best, w_best = optimize_chebyshev_rms([n], a_star, d)[0]
    fine = np.geomspace(scaling.RMS_GRID_LO, scaling.RMS_GRID_HI, 2000)
    w = rms_objective(n, a_star, d)(fine)
    k = int(np.argmin(w))
    assert w_best <= w[k]
    assert fine[max(k - 1, 0)] <= r_best <= fine[min(k + 1, len(fine) - 1)]


@pytest.mark.parametrize("f,lo,hi,argmin", [(lambda x: (x - math.sqrt(2.0)) ** 2, 0.0, 5.0,
                                             math.sqrt(2.0)),
                                            (math.cos, 0.0, 6.0, math.pi)],
                         ids=["parabola", "cosine"])
def test_golden_section_on_closed_forms(f, lo, hi, argmin):
    """On a unimodal f with an irrational argmin, golden-section search lands within
    xatol of it after a fixed 2 + ceil(ln((hi - lo)/xatol)/ln phi) evaluations."""
    xs = []
    xatol = 1e-5
    search = scaling._golden_section(lo, hi, xatol)
    x = next(search)
    while True:
        xs.append(x)
        try:
            x = search.send(f(x))
        except StopIteration as stop:
            fx, x = stop.value
            break
    phi = 0.5 * (1.0 + math.sqrt(5.0))
    assert len(xs) == 2 + math.ceil(math.log((hi - lo) / xatol) / math.log(phi))
    assert len(set(xs)) == len(xs)  # no point is evaluated twice
    assert abs(x - argmin) <= xatol
    assert (fx, x) == min((f(v), v) for v in xs)


# optimize_chebyshev_rms at alpha* = 2, D/lambda = 1/2 in version 0.12.0, which
# searched one N at a time.
RMS_0_12_0 = {
    2: (23.14082538290576, 0.3423271547193877),
    3: (11.906610291327379, 0.2600503442178942),
    4: (23.278921996136855, 0.22045199359589387),
    5: (19.674844421185888, 0.18239688090549347),
    6: (31.5720569149954, 0.16297734254690693),
    7: (28.307597738703745, 0.14122586372307608),
    8: (41.144212748968364, 0.12967864835851128),
    9: (37.57456451510002, 0.11557900559063698),
    10: (51.38128902702431, 0.10792366034544226),
    11: (47.27469305087785, 0.09801877719577737),
    12: (62.02912013802595, 0.09257286606056299),
    13: (57.35639677081895, 0.08521742920412624),
    14: (73.02720211780127, 0.08114646239988366),
    15: (67.73839661052476, 0.07545802272711111),
    16: (84.29050157146749, 0.0723008261158585),
    17: (78.43192963276549, 0.06776339373854325),
    18: (95.73584208578458, 0.06524428940168445),
    19: (89.25485087938287, 0.06153579166955361),
    20: (107.35578258206738, 0.05947983651037886),
}


def test_lockstep_search_equals_each_n_alone_and_0_12_0():
    ns = list(RMS_0_12_0)
    together = optimize_chebyshev_rms(ns, 2.0, 0.5)
    assert together == [optimize_chebyshev_rms([n], 2.0, 0.5)[0] for n in ns]
    assert [(repr(r), repr(w)) for r, w in together] == [
        (repr(r), repr(w)) for r, w in RMS_0_12_0.values()
    ]


def test_chebyshev_sweep_batches_its_rms_search(monkeypatch):
    """A Chebyshev sweep over N = 2..20 searches R_MS in one call: one batch for
    every N's grid, then one per golden-section step of the brackets in lockstep."""
    batches = []

    def counted(arrays, dist, alpha):
        batches.append(len(arrays))
        return exact_beam_widths(arrays, dist, alpha)

    monkeypatch.setattr(scaling, "exact_beam_widths", counted)
    t = sweep("chebyshev", list(range(2, 21)), alpha_star=2.0, samples=1000)
    assert len(batches) <= 16
    assert batches[0] == 19 * scaling.RMS_GRID_POINTS
    assert [r.r_ms for r in t.rows] == [r for r, _ in RMS_0_12_0.values()]


def test_grid_batch_memory_stays_small():
    """The 640 patterns of a ten-N grid batch: per-node temporaries stay within a
    _BLOCK, plus the batch's node and piece arrays."""
    grid = np.logspace(math.log10(scaling.RMS_GRID_LO), math.log10(scaling.RMS_GRID_HI),
                       scaling.RMS_GRID_POINTS)
    arrays = [p for n in range(2, 21, 2) for p in chebyshev_arrays(n, 0.5, grid)]
    tracemalloc.start()
    try:
        exact_beam_widths(arrays, BasisDistribution(2.0), 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_chebyshev_sweep_ignores_optimizer_samples():
    a = sweep("chebyshev", [2, 6], alpha_star=2.0, samples=10**4, seed=3, optimizer_samples=10)
    b = sweep("chebyshev", [2, 6], alpha_star=2.0, samples=10**4, seed=3, optimizer_samples=10**6)
    assert a == b


def test_parallel_lines_single_table():
    rep = parallel_lines_check([synthetic_table(0.6, 0.8)])
    assert rep.gamma_spread == 0.0
    assert rep.intercepts_increasing


def test_parallel_lines_orders_by_alpha_star():
    tables = [
        synthetic_table(0.4, 0.75, alpha_star=0.5),
        synthetic_table(0.6, 0.80, alpha_star=2.0),
        synthetic_table(0.5, 0.78, alpha_star=1.0),
    ]
    rep = parallel_lines_check(tables)
    assert rep.keys == (0.5, 1.0, 2.0)
    assert rep.gamma_spread == pytest.approx(0.05, abs=1e-9)
    assert rep.intercepts_increasing


def test_bundle_rejects_mismatched_tables():
    with pytest.raises(ValueError):
        parallel_lines_check([
            synthetic_table(0.5, 0.5),
            synthetic_table(0.5, 0.5, n_list=(2, 4, 8)),
        ])
    with pytest.raises(ValueError):
        parallel_lines_check([])


def test_spacing_check_zero_spread_on_identical():
    tables = [synthetic_table(0.5, 0.7, d_ratio=d) for d in (0.125, 0.25, 0.5)]
    rep = spacing_check(tables)
    assert rep.gamma_spread == pytest.approx(0.0, abs=1e-12)
    assert rep.keys == (0.125, 0.25, 0.5)


def test_spacing_check_reports_intercept_direction():
    tables = [
        synthetic_table(0.9, 0.7, d_ratio=0.125),
        synthetic_table(0.7, 0.7, d_ratio=0.25),
        synthetic_table(0.5, 0.7, d_ratio=0.5),
    ]
    assert not spacing_check(tables).intercepts_increasing


def test_family_ordering_check():
    bino = synthetic_table(0.6, 0.4, family="binomial")
    esn = synthetic_table(0.55, 0.81, family="esnla")
    cheb = synthetic_table(0.52, 0.81, family="chebyshev")
    assert all(family_ordering_check(bino, esn, cheb))
    # a chebyshev table sitting above esnla beyond the noise allowance flips the check
    high_cheb = synthetic_table(0.58, 0.81, family="chebyshev")
    assert not all(family_ordering_check(bino, esn, high_cheb))
    with pytest.raises(ValueError):
        family_ordering_check(bino, esn, synthetic_table(0.6, 0.8, n_list=(2, 4, 8)))
