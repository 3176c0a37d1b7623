import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamnet import netsim
from beamnet.analytic import guard_zone, total_throughput_rule
from beamnet.ebw import BasisDistribution, effective_beam_width, exact_beam_width
from beamnet.netsim import (
    NetworkConfig,
    NetworkState,
    capacity_curve,
    estimate_throughput,
    generate_network,
    interference_free_activity_bound,
    link_success_probability,
    multi_rayleigh_prediction,
    run_slot,
)
from beamnet.patterns import AntennaPattern, esnla, omni, parse_pattern_spec, sector
from netsim_reference import (
    dense_evaluate_slots,
    multi_rayleigh_success,
    pairwise_link_prediction,
    pairwise_success,
    torus_distance,
)


def make_config(**kw):
    base = dict(
        n=100, r=0.15, p_t=0.2, alpha=4.0, sir0=10.0,
        tx_pattern=omni(), rx_pattern=omni(),
        model="pairwise", fading="none", slots=50, seed=0,
    )
    base.update(kw)
    return NetworkConfig(**base)


def make_state(positions, r=0.3):
    """Bare state for scalar-operation tests; adjacency left empty."""
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    return NetworkState(
        positions=pos, r=r, k_pr=np.zeros(n, np.int64),
        neighbor_offsets=np.zeros(n + 1, np.int64), neighbors=np.zeros(0, np.int64),
        neighbor_dist=np.zeros(0),
    )


def slot_seed(cfg, t):
    return np.random.SeedSequence([cfg.seed, 1, t])


MODEL_FADINGS = [(m, f) for m in netsim.MODELS for f in netsim.FADINGS]


# --- configuration and geometry ---------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(sir0=0.9),
        dict(r=0.0),
        dict(r=0.8),
        dict(p_t=0.7),
        dict(p_t=-0.1),
        dict(alpha=0.5),
        dict(model="protocol"),
        dict(fading="rician"),
        dict(n=1),
        dict(sir0=math.inf),
        dict(sir0=math.nan),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        make_config(**kw)


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_torus_metric_symmetry_and_bound(ax, ay, bx, by):
    """netsim._displacement, the library's one torus routine: b - a and a - b are
    negatives, bit for bit, of one length within the torus's half diagonal."""
    a = np.array([ax]), np.array([ay])
    b = np.array([bx]), np.array([by])
    x1, y1, d1 = netsim._displacement(*a, *b)
    x2, y2, d2 = netsim._displacement(*b, *a)
    assert (x1[0], y1[0], d1[0]) == (-x2[0], -y2[0], d2[0])
    assert max(abs(x1[0]), abs(y1[0])) <= 0.5
    assert d1[0] <= math.sqrt(2) / 2 + 1e-12


def test_torus_wraparound_value():
    x, y, d = netsim._displacement(np.array([0.05]), np.array([0.05]),
                                   np.array([0.95]), np.array([0.95]))
    assert (x[0], y[0]) == pytest.approx((-0.1, -0.1), abs=1e-12)
    assert d[0] == pytest.approx(math.sqrt(2) * 0.1, abs=1e-12)


def test_generate_network_counts_neighbors():
    cfg = make_config(n=200, r=0.12, seed=7)
    state = generate_network(cfg)
    # brute-force oracle recount
    pos = state.positions
    for j in (0, 17, 99, 199):
        d = torus_distance(pos[j], pos)
        want = int(np.count_nonzero(d <= cfg.r)) - 1
        assert state.k_pr[j] == want


def test_generate_network_mean_degree():
    cfg = make_config(n=1000, r=0.06, seed=11)
    state = generate_network(cfg)
    assert state.k_pr.mean() == pytest.approx(1000 * math.pi * 0.06**2, abs=0.6)


def test_generate_network_reads_only_n_r_and_seed():
    """A placement is a function of (n, r, seed): configs that differ in anything
    else give equal arrays."""
    base = make_config(n=300, r=0.1, seed=5)
    want = generate_network(base)
    for kw in (dict(p_t=0.5), dict(alpha=3.0), dict(sir0=100.0), dict(tx_pattern=esnla(4, 0.5)),
               dict(rx_pattern=sector(0.25)), dict(model="multi"), dict(fading="rayleigh"),
               dict(slots=7)):
        got = generate_network(replace(base, **kw))
        assert got.r == want.r, kw
        for field in ("positions", "k_pr", "neighbor_offsets", "neighbors", "neighbor_dist"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (kw, field)


def test_large_radius_pair_search_matches_brute_force():
    """generate_network's CSR adjacency is the brute-force set torus_distance <= r
    (self left out), neighbours by id with their distances, bit for bit: on
    one-cell grids (r > 1/3), on grids of 3 and 4 cells a side (r = 0.3, 0.2), and
    where the isqrt(n) cap on g binds (r = 0.05 and n <= 117, so g <= 10 < 20)."""
    for seed in range(6):
        n = 2 + 23 * seed
        for r in (0.05, 0.2, 0.3, 0.45, 0.5, 0.6, math.sqrt(2.0) / 2.0):
            state = generate_network(make_config(n=n, r=r, seed=seed))
            pos = state.positions
            dist = torus_distance(pos[:, None, :], pos[None, :, :])
            near = (dist <= r) & ~np.eye(n, dtype=bool)
            src, dst = np.nonzero(near)  # by node, then neighbour id
            assert np.array_equal(state.k_pr, near.sum(axis=1)), (seed, r)
            assert np.array_equal(state.neighbor_offsets[1:], np.cumsum(state.k_pr)), (seed, r)
            assert np.array_equal(state.neighbors, dst), (seed, r)
            assert np.array_equal(state.neighbor_dist, dist[src, dst]), (seed, r)


def test_network_neighbours_across_the_seam():
    """Two nodes across the x seam of the torus exactly r apart are neighbours, and
    not when r is one ulp shorter than their distance.  At r ~ 0.06 the grid has
    g >= 16 cells a side, and the two nodes sit in its first and last columns."""
    n, seed = 400, 3
    pos = np.random.default_rng(np.random.SeedSequence([seed, 0])).random((n, 2))
    dist = torus_distance(pos[:, None, :], pos[None, :, :])
    across = (pos[:, None, 0] > 0.95) & (pos[None, :, 0] < 0.05) & (np.abs(dist - 0.06) < 0.005)
    a, b = np.argwhere(across)[0]
    r = float(dist[a, b])
    g = min(int(1.0 / (r + netsim._REACH_PAD)), math.isqrt(n))
    assert g >= 16 and int(pos[a, 0] * g) == g - 1 and int(pos[b, 0] * g) == 0
    for radius, linked in ((r, True), (np.nextafter(r, 0.0), False)):
        state = generate_network(make_config(n=n, r=radius, seed=seed))
        assert np.array_equal(state.positions, pos)
        for u, v in ((a, b), (b, a)):
            nb = state.neighbors[state.neighbor_offsets[u] : state.neighbor_offsets[u + 1]]
            assert (v in nb) == linked, (u, v, linked)


# --- slot mechanics ----------------------------------------------------------


def test_run_slot_empty_at_zero_pt():
    cfg = make_config(p_t=0.0)
    state = generate_network(cfg)
    out = run_slot(state, cfg, slot_seed(cfg, 0))
    assert len(out.tx) == 0 and len(out.success) == 0


def test_half_duplex_and_success_cap():
    cfg = make_config(n=120, r=0.2, p_t=0.5, seed=5)
    state = generate_network(cfg)
    for t in range(30):
        out = run_slot(state, cfg, slot_seed(cfg, t))
        assert out.success.sum() <= cfg.n // 2
        transmitters = set(out.tx.tolist())
        for rx in out.rx[out.success]:
            assert int(rx) not in transmitters


def test_directional_rx_conflict_rule():
    cfg = make_config(n=120, r=0.25, p_t=0.5, rx_pattern=esnla(2, 0.5), seed=9)
    state = generate_network(cfg)
    for t in range(20):
        out = run_slot(state, cfg, slot_seed(cfg, t))
        counts = np.bincount(out.rx, minlength=cfg.n) if len(out.rx) else np.zeros(cfg.n)
        assert not np.any(out.success & (counts[out.rx] >= 2))


def test_two_node_link_succeeds_when_receiver_silent():
    # place both nodes in range; the only failure mode is the receiver transmitting
    cfg = make_config(n=2, r=0.7, p_t=0.25, seed=2)
    state = generate_network(cfg)
    assert state.k_pr[0] == 1
    attempts = successes = 0
    for t in range(4000):
        out = run_slot(state, cfg, slot_seed(cfg, t))
        for i, tx in enumerate(out.tx):
            if tx == 0:
                attempts += 1
                successes += bool(out.success[i])
    p = successes / attempts
    se = math.sqrt(p * (1 - p) / attempts)
    assert abs(p - (1 - cfg.p_t)) <= 3 * se


# --- slot engine vs the dense reference -------------------------------------

SPECS = ("omni", "sector:0.25", "esnla:4:0.5")
# (n, r); at SIR0 = 10, alpha = 4 the guard reach (1 + Delta) r passes 1/2 from r = 0.282.
ORACLE_NETWORKS = ((2, math.sqrt(2) / 2), (3, 0.5), (40, 0.12), (40, 0.3),
                   (300, 0.08), (300, math.sqrt(2) / 2))


@pytest.mark.parametrize("model,fading", MODEL_FADINGS)
@pytest.mark.parametrize("rx_spec", SPECS)
@pytest.mark.parametrize("tx_spec", SPECS)
def test_slot_engine_matches_dense_reference(tx_spec, rx_spec, model, fading, monkeypatch):
    """run_slot's flags equal the dense L x L evaluator's bit for bit, slot by slot:
    even slots at the default pair budget, odd ones at 3 links per block; slots 2
    and 3 take each cutoff-free group in runs of about 3 pairs (one row)."""
    for (n, r), p_t in itertools.product(ORACLE_NETWORKS, (0.05, 0.5)):
        cfg = make_config(
            n=n, r=r, p_t=p_t, tx_pattern=parse_pattern_spec(tx_spec),
            rx_pattern=parse_pattern_spec(rx_spec), model=model, fading=fading, seed=n,
        )
        state = generate_network(cfg)
        for t in range(4):
            with monkeypatch.context() as m:
                m.setattr(netsim, "_PAIR_BUDGET", netsim._PAIR_BUDGET if t % 2 == 0 else 3 * n)
                m.setattr(netsim, "_BLOCK", netsim._BLOCK if t < 2 else 3)
                got = run_slot(state, cfg, slot_seed(cfg, t))
                m.setattr(netsim, "_evaluate_slots", dense_evaluate_slots)
                want = run_slot(state, cfg, slot_seed(cfg, t))
            assert np.array_equal(got.tx, want.tx), (n, r, p_t, t)
            assert np.array_equal(got.success, want.success), (n, r, p_t, t)


@pytest.mark.parametrize("model,fading", MODEL_FADINGS)
def test_array_patterns_evaluate_without_warnings(model, fading):
    """The engine takes sin(theta) as cross / (|v| |w|); the excluded self and
    receiver entries (where |w| = 0) must not divide by zero, in slots or in
    the fixed-link tables."""
    cfg = make_config(
        n=300, r=0.3, p_t=0.5, tx_pattern=parse_pattern_spec("esnla:4:0.5"),
        rx_pattern=parse_pattern_spec("chebyshev:7:0.5:30"), model=model, fading=fading,
    )
    state = generate_network(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        links = sum(len(run_slot(state, cfg, slot_seed(cfg, t)).tx) for t in range(3))
        a, b = nearest_neighbor_link(state)
        p_hat, _ = link_success_probability(state, cfg, a, b, 200, seed=3)
    assert links > 0 and 0.0 <= p_hat <= 1.0


def test_slot_guard_boundary_is_inclusive():
    # SIR0 = 16, alpha = 4 make (1 + Delta) exactly 2: link 0 -> 1 has d = 0.25, so
    # its guard radius is 0.5, and transmitter 2 (of link 2 -> 3) sits at distance y - 0.25.
    cfg = make_config(n=4, sir0=16.0)
    tx, rx = np.array([0, 2]), np.array([1, 3])
    for y, harmless in ((0.75, True), (np.nextafter(0.75, 0.0), False)):
        state = make_state([(0.5, 0.25), (0.25, 0.25), (0.25, y), (0.25, 0.95)])
        d = torus_distance(state.positions[tx], state.positions[rx])
        assert (1.0 + guard_zone(cfg.sir0, cfg.alpha)[0]) * d[0] == 0.5
        for evaluate in (netsim._evaluate_slots, dense_evaluate_slots):
            slot = netsim._SlotDraw(tx=tx, rx=rx, d=d, live=np.ones(2, dtype=bool),
                                    rng=np.random.default_rng(0))
            (ok,) = evaluate(state, cfg, [slot])
            assert ok[0] == harmless, (y, evaluate.__name__)


def guard_grid(state, cfg, slots):
    """Cells per side of the torus grid the pairwise/none engine uses for a block."""
    longest = max(s.d.max() for s in slots if len(s.d))
    reach = (1.0 + guard_zone(cfg.sir0, cfg.alpha)[0]) * longest + netsim._REACH_PAD
    g = min(int(1.0 / reach), math.isqrt(state.n))
    return g if g >= 3 else 1


@pytest.mark.parametrize("n,r,g", [(300, 0.18, 3), (400, 0.025, 20)])
def test_guard_grid_matches_dense_reference(n, r, g):
    """Pairwise/none flags of a block of slots equal the dense evaluator's on a grid
    of exactly 3 x 3 cells, and where the sqrt(n) cap on g binds (1 / reach > 22)."""
    cfg = make_config(n=n, r=r, p_t=0.5, tx_pattern=esnla(4, 0.5), rx_pattern=esnla(2, 0.5),
                      seed=n)
    state = generate_network(cfg)
    drawn = netsim._draw_slots(state, cfg, [slot_seed(cfg, t) for t in range(6)])
    assert guard_grid(state, cfg, drawn) == g
    want = dense_evaluate_slots(state, cfg, drawn)
    got = netsim._evaluate_slots(state, cfg, drawn)
    for t, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), t
    live = np.concatenate([s.live for s in drawn])
    assert 0 < np.count_nonzero(np.concatenate(got)) < np.count_nonzero(live)


def test_guard_receive_gain_bounds_the_transmit_gains_computed(monkeypatch):
    """Pairwise/none computes G*_tx only for the pairs nearer than reach_i G*_rx
    (since G*_tx <= 1 no other pair can break a link): ESNLA(4) at the transmitters
    is evaluated at fewer angles than ESNLA(2) at the receivers, and the flags stay
    the dense evaluator's."""
    cfg = make_config(n=300, r=0.18, p_t=0.5, tx_pattern=esnla(4, 0.5), rx_pattern=esnla(2, 0.5),
                      seed=300)
    state = generate_network(cfg)
    drawn = netsim._draw_slots(state, cfg, [slot_seed(cfg, t) for t in range(6)])
    want = dense_evaluate_slots(state, cfg, drawn)
    angles = {"tx": 0, "rx": 0}
    gain_from_sine = AntennaPattern.gain_from_sine

    def counted(self, sin_theta):
        side = "tx" if self is cfg.tx_pattern else "rx"
        angles[side] += np.size(sin_theta)
        return gain_from_sine(self, sin_theta)

    monkeypatch.setattr(AntennaPattern, "gain_from_sine", counted)
    got = netsim._evaluate_slots(state, cfg, drawn)
    for t, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), t
    assert 0 < angles["tx"] < angles["rx"], angles


def test_guard_grid_block_of_slots_with_different_reaches():
    """Slots of one block, each holding only the links up to its own length cutoff
    (0, r/4, ..., r), get the dense evaluator's flags on the grid of the longest."""
    cfg = make_config(n=300, r=0.1, p_t=0.5, tx_pattern=esnla(4, 0.5), seed=8)
    state = generate_network(cfg)
    (full,) = netsim._draw_slots(state, cfg, [slot_seed(cfg, 0)])
    slots = []
    for k in range(5):
        keep = full.d <= cfg.r * k / 4
        slots.append(netsim._SlotDraw(tx=full.tx[keep], rx=full.rx[keep], d=full.d[keep],
                                      live=full.live[keep], rng=full.rng))
    assert len(slots[0].tx) == 0 and guard_grid(state, cfg, slots) == 5
    assert len({round(float(s.d.max()), 3) for s in slots[1:]}) == 4
    for k, (a, b) in enumerate(zip(netsim._evaluate_slots(state, cfg, slots),
                                   dense_evaluate_slots(state, cfg, slots))):
        assert np.array_equal(a, b), k


@pytest.mark.parametrize("shift", [(0.0, -0.15625), (-0.09375, -0.125)], ids=["seam", "corner"])
def test_guard_grid_boundary_across_the_seam(shift):
    """An interferer in a neighbour cell across the torus seam (or corner) at exactly
    the guard radius is harmless, one ulp closer it breaks the link.  SIR0 = 16,
    alpha = 4 make (1 + Delta) exactly 2: link 0 -> 1 has d = 5/64, so its guard
    radius is 5/32 and the grid has 6 x 6 cells; R_1 sits in cell (0, 0) and
    transmitter 2 at R_1 + shift (|shift| = 5/32), wrapped into cell (0, 5) or (5, 5).
    The other 32 nodes only pad n up to 36, so that g is not capped below 6."""
    cfg = make_config(n=36, sir0=16.0)
    tx, rx = np.array([0, 2]), np.array([1, 3])
    r1 = np.array([0.03125, 0.0625])
    t2 = (r1 + shift) % 1.0
    filler = [(0.5, 0.1 + k / 40) for k in range(32)]
    # One ulp up in both coordinates brings T_2 closer to R_1 across the seam.
    for t, harmless in ((t2, True), (np.nextafter(t2, 1.0), False)):
        state = make_state([r1 + (0.078125, 0.0), r1, t, (t + (0.03, 0.0)) % 1.0] + filler)
        d = torus_distance(state.positions[tx], state.positions[rx])
        assert (1.0 + guard_zone(cfg.sir0, cfg.alpha)[0]) * d[0] == 0.15625
        assert torus_distance(state.positions[1], state.positions[2]) <= 0.15625
        slot = netsim._SlotDraw(tx=tx, rx=rx, d=d, live=np.ones(2, dtype=bool),
                                rng=np.random.default_rng(0))
        assert guard_grid(state, cfg, [slot]) == 6
        for evaluate in (netsim._evaluate_slots, dense_evaluate_slots):
            (ok,) = evaluate(state, cfg, [slot])
            assert ok[0] == harmless, (shift, harmless, evaluate.__name__)


@pytest.mark.parametrize("model,fading", MODEL_FADINGS)
def test_batched_slots_match_run_slot(model, fading, monkeypatch):
    """Slots evaluated together in blocks get run_slot's flags, slot by slot, and
    estimate_throughput's totals and bins are the sums of those slots, at 1 and 3
    threads.  At 4 links per block, some blocks hold several slots (one of them
    with no link) and the larger slots split into runs of whole receivers."""
    n = 60
    cfg = make_config(n=n, r=0.25, p_t=0.05, tx_pattern=esnla(4, 0.5), rx_pattern=esnla(2, 0.5),
                      model=model, fading=fading, slots=60, seed=3)
    state = generate_network(cfg)
    monkeypatch.setattr(netsim, "_PAIR_BUDGET", 4 * n)
    singles = [run_slot(state, cfg, slot_seed(cfg, t)) for t in range(cfg.slots)]
    sizes = np.array([len(out.tx) for out in singles])
    blocks = netsim._blocks(sizes, 4)
    assert any(len(b) > 1 and sizes[b].min() == 0 and sizes[b].max() > 0 for b in blocks)
    assert any(np.count_nonzero(sizes[b]) > 1 for b in blocks)
    assert sizes.max() > 4
    for t, (want, got) in enumerate(zip(singles, netsim._run_slots(state, cfg, range(cfg.slots)))):
        assert np.array_equal(got.tx, want.tx) and np.array_equal(got.rx, want.rx), t
        assert np.array_equal(got.success, want.success), t

    bins = 16
    links, wins = np.zeros(bins, np.int64), np.zeros(bins, np.int64)
    for out in singles:
        b = np.minimum((out.d / state.r * bins).astype(np.int64), bins - 1)
        links += np.bincount(b, minlength=bins)
        wins += np.bincount(b[out.success], minlength=bins)
    for threads in (1, 3):
        stats = estimate_throughput(state, cfg, w_b_effective=1.0, bins=bins, threads=threads)
        assert stats.eta_tt == np.mean([out.success.sum() for out in singles])
        assert stats.eta_tr == np.mean([out.d[out.success].sum() for out in singles])
        assert [b.links for b in stats.bins] == links.tolist()
        assert [b.successes for b in stats.bins] == wins.tolist()


def test_throughput_memory_is_bounded_with_many_small_slots():
    """500 Rayleigh slots at n = 10^4, p_t = 0.01 (L ~ 100 links each) stay under
    4 MiB: fades are drawn block by block and draws held a window at a time.  All
    the slots' fade matrices would take about 40 MB, their activity flags 5 MB."""
    n = 10_000
    _, r = total_throughput_rule(n)
    cfg = make_config(n=n, r=r, p_t=0.01, model="multi", fading="rayleigh", slots=500, seed=45)
    state = generate_network(cfg)
    tracemalloc.start()
    try:
        stats = estimate_throughput(state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.eta_tt > 0.0
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("model,fading", MODEL_FADINGS)
def test_slot_memory_is_bounded_at_large_n(model, fading):
    """One slot at n = 10^4, p_t = 1/2 (L ~ 5000 links) stays under 100 MB of traced
    allocations; an L x L float64 array alone takes 200 MB.  Omni for the multi
    models keeps it quick."""
    n = 10_000
    p_t, r = total_throughput_rule(n)
    pattern = esnla(4, 0.5) if model == "pairwise" else omni()
    cfg = make_config(n=n, r=r, p_t=p_t, tx_pattern=pattern, rx_pattern=pattern,
                      model=model, fading=fading, seed=43)
    state = generate_network(cfg)
    tracemalloc.start()
    try:
        out = run_slot(state, cfg, slot_seed(cfg, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.tx) > 4000
    assert peak < 100 * 2**20, peak


def test_guard_slot_memory_is_bounded_in_one_cell():
    """A pairwise/none slot whose guard reach passes 1/3 (n = 2000, r = 0.4,
    p_t = 1/2, about 1000 links) has a one-cell grid, so each run of receivers
    meets every transmitter of the slot; it stays under 100 MB of traced
    allocations, all of the engine's memory."""
    cfg = make_config(n=2000, r=0.4, p_t=0.5, tx_pattern=esnla(4, 0.5), rx_pattern=esnla(4, 0.5),
                      seed=47)
    state = generate_network(cfg)
    tracemalloc.start()
    try:
        out = run_slot(state, cfg, slot_seed(cfg, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (1.0 + guard_zone(cfg.sir0, cfg.alpha)[0]) * out.d.max() > 1 / 3 and len(out.tx) > 900
    assert peak < 100 * 2**20, peak


# --- scalar interference operations on crafted geometry -----------------------


def test_pairwise_inclusive_guard_boundary():
    # SIR0 = 16, alpha = 4 makes (1 + Delta) exactly 2; d_i = 0.25, guard = 0.5
    positions = [(0.5, 0.25), (0.25, 0.25), (0.25, 0.75), (0.25, 0.95)]
    state = make_state(positions)
    cfg = make_config(n=4, sir0=16.0)
    link, active = (0, 1), [(0, 1), (2, 3)]
    assert torus_distance(state.positions[1], state.positions[2]) == 0.5
    assert pairwise_success(link, active, state, cfg)  # exactly on the boundary
    inside = make_state([(0.5, 0.25), (0.25, 0.25), (0.25, 0.75 - 1e-6), (0.25, 0.95)])
    assert not pairwise_success(link, active, inside, cfg)


def test_pairwise_single_link_always_clear():
    state = make_state([(0.2, 0.2), (0.4, 0.2)])
    assert pairwise_success((0, 1), [(0, 1)], state, make_config(n=2))


def test_pairwise_null_shields_interferer():
    # interferer well inside the guard zone but sitting in a receive-pattern null
    d = 0.05
    rho = 0.02
    ri = np.array([0.5, 0.5])
    ti = ri + np.array([d, 0.0])
    tj = ri + rho * np.array([math.cos(math.pi / 3), math.sin(math.pi / 3)])
    rj = tj + np.array([0.0, 0.1])
    state = make_state([ti, ri, tj, rj])
    cfg_omni = make_config(n=4)
    cfg_null = make_config(n=4, rx_pattern=esnla(2, 0.5))
    link, active = (0, 1), [(0, 1), (2, 3)]
    assert not pairwise_success(link, active, state, cfg_omni)
    assert pairwise_success(link, active, state, cfg_null)


def test_multi_success_with_no_interferers():
    state = make_state([(0.2, 0.2), (0.4, 0.2)])
    cfg = make_config(n=2, model="multi", fading="rayleigh")
    fades = np.full(2, 1e-6)  # even a deep signal fade survives zero interference
    assert multi_rayleigh_success((0, 1), [(0, 1)], state, cfg, fades)


def test_multi_interferers_in_nulls_is_interference_free():
    d, rho = 0.05, 0.02
    ri = np.array([0.5, 0.5])
    ti = ri + np.array([d, 0.0])
    tj = ri + rho * np.array([math.cos(math.pi / 3), math.sin(math.pi / 3)])
    state = make_state([ti, ri, tj, tj + 0.1])
    cfg = make_config(n=4, model="multi", fading="rayleigh", rx_pattern=esnla(2, 0.5))
    fades = np.full(4, 1.0)
    fades[0] = 1e-9  # survives only because the interferer contributes ~nothing
    assert multi_rayleigh_success((0, 1), [(0, 1), (2, 3)], state, cfg, fades)


# --- vectorized slot evaluation vs scalar oracles ------------------------------


@pytest.mark.parametrize("model", ["pairwise", "multi"])
def test_slot_evaluator_matches_scalar_ops(model):
    cfg = make_config(
        n=40, r=0.2, p_t=0.3, tx_pattern=esnla(4, 0.5),
        rx_pattern=esnla(2, 0.5) if model == "pairwise" else omni(),
        model=model, seed=13,
    )
    state = generate_network(cfg)
    ones = np.ones(cfg.n)
    for t in range(25):
        out = run_slot(state, cfg, slot_seed(cfg, t))
        links = list(zip(out.tx.tolist(), out.rx.tolist()))
        transmitters = set(out.tx.tolist())
        for i, link in enumerate(links):
            if model == "pairwise":
                want = pairwise_success(link, links, state, cfg)
            else:
                want = multi_rayleigh_success(link, links, state, cfg, ones)
            want = want and link[1] not in transmitters
            if cfg.rx_pattern.kind != "omni":
                want = want and sum(1 for l in links if l[1] == link[1]) < 2
            assert bool(out.success[i]) == want


def test_pairwise_relaxation_dominates_multi():
    cfg = make_config(n=150, r=0.12, p_t=0.3, tx_pattern=esnla(4, 0.5), seed=77)
    state = generate_network(cfg)
    cfg_multi = replace(cfg, model="multi")
    for t in range(40):
        a = run_slot(state, cfg, slot_seed(cfg, t))
        b = run_slot(state, cfg_multi, slot_seed(cfg, t))
        assert not np.any(b.success & ~a.success)


# --- fixed-link estimation -----------------------------------------------------


def nearest_neighbor_link(state):
    lo, hi = state.neighbor_offsets[0], state.neighbor_offsets[1]
    assert hi > lo, "node 0 is isolated for this seed"
    nbrs = state.neighbors[lo:hi]
    return 0, int(nbrs[np.argmin(state.neighbor_dist[lo:hi])])


def test_forced_link_two_nodes_gives_receiver_silence():
    cfg = make_config(n=2, r=0.7, p_t=0.25, seed=5)
    state = generate_network(cfg)
    p, se = link_success_probability(state, cfg, 0, 1, 10**5, seed=4)
    assert abs(p - 0.75) <= 3 * se


@pytest.mark.parametrize("p", [0.05, 0.4, 0.5])
def test_bernoulli_cells_match_one_gap_at_a_time(p):
    """The batched draw takes the same cells as geometric gaps drawn one at a time
    until one passes the last cell, and leaves the generator where they do."""
    scale = -1.0 / math.log1p(-p)
    for size, seed in itertools.product((0, 1, 7, 500), range(10)):
        batched = np.random.default_rng(seed)
        got = netsim._bernoulli_cells(batched, size, p)
        rng = np.random.default_rng(seed)
        want, pos = [], -1
        while size:
            pos += math.floor(rng.standard_exponential() * scale) + 1
            if pos >= size:
                break
            want.append(pos)
        assert got.tolist() == want, (size, seed)
        assert batched.random() == rng.random(), (size, seed)


@pytest.mark.parametrize("fn", [link_success_probability, multi_rayleigh_prediction])
@pytest.mark.parametrize("pair", ["self", "rx-negative", "rx-past-end", "unreachable",
                                  "tx-negative", "tx-past-end"])
def test_fixed_link_rejects_a_pair_that_is_not_a_link(fn, pair):
    """(tx_node, rx_node) must be a link: tx_node one of the n nodes and rx_node one
    of its in-range neighbours.  Negative ids would otherwise index from the end."""
    cfg = make_config(n=50, r=0.2, p_t=0.3, model="multi", fading="rayleigh", seed=7)
    state = generate_network(cfg)
    lo, hi = state.neighbor_offsets[0], state.neighbor_offsets[1]
    unreachable = min(set(range(1, cfg.n)) - set(state.neighbors[lo:hi].tolist()))
    last_neighbour = int(state.neighbors[state.neighbor_offsets[-2]])  # of node n - 1
    tx, rx = {"self": (0, 0), "rx-negative": (0, -1), "rx-past-end": (0, cfg.n),
              "unreachable": (0, unreachable), "tx-negative": (-1, last_neighbour),
              "tx-past-end": (cfg.n, 0)}[pair]
    args = (100, 1) if fn is link_success_probability else ()
    with pytest.raises(ValueError, match=rf"\({tx}, {rx}\) is not a link"):
        fn(state, cfg, tx, rx, *args)


def test_forced_link_zero_activity_always_succeeds():
    cfg = make_config(p_t=0.0, model="multi", fading="rayleigh", seed=3)
    state = generate_network(cfg)
    a, b = nearest_neighbor_link(state)
    assert link_success_probability(state, cfg, a, b, 1000, seed=1) == (1.0, 0.0)


def test_forced_link_matches_scalar_replay():
    cfg = make_config(
        n=12, r=0.35, p_t=0.4, tx_pattern=esnla(4, 0.5),
        model="multi", fading="rayleigh", seed=21,
    )
    state = generate_network(cfg)
    a, b = nearest_neighbor_link(state)
    slots = 64
    p_hat, _ = link_success_probability(state, cfg, a, b, slots, seed=9)

    # One chunk: busy uniforms, geometric gaps one at a time over the slots x m
    # grid of (trial, eligible node) cells, one pick per active cell, one fade per
    # active cell, then the signal fades.
    nodes = netsim._forced_link_tables(state, cfg, a, b)[0]
    m = len(nodes)
    rng = np.random.default_rng(np.random.SeedSequence([9, 5]))
    rx_busy = (rng.random(slots) < cfg.p_t) & (state.k_pr[b] > 0)
    scale = -1.0 / math.log1p(-cfg.p_t)
    cells, pos = [], -1
    while True:
        pos += math.floor(rng.standard_exponential() * scale) + 1
        if pos >= slots * m:
            break
        cells.append(divmod(pos, m))
    picks = [min(int(rng.random() * state.k_pr[nodes[k]]), state.k_pr[nodes[k]] - 1)
             for _, k in cells]
    f_int = [rng.standard_exponential() for _ in cells]
    f_sig = [rng.standard_exponential() for _ in range(slots)]

    hits = 0
    for s in range(slots):
        active = [(int(a), int(b))]
        fades = np.ones(cfg.n)
        fades[a] = f_sig[s]
        for (t, k), pick, fade in zip(cells, picks, f_int):
            if t == s:
                node = nodes[k]
                active.append((int(node), int(state.neighbors[state.neighbor_offsets[node] + pick])))
                fades[node] = fade
        ok = multi_rayleigh_success((a, b), active, state, cfg, fades)
        hits += int(ok and not rx_busy[s])
    assert len(cells) > 0
    assert hits / slots == p_hat


def test_rayleigh_product_identity_small():
    cfg = make_config(
        n=10, r=0.35, p_t=0.3, tx_pattern=esnla(4, 0.5),
        model="multi", fading="rayleigh", seed=7,
    )
    state = generate_network(cfg)
    a, b = nearest_neighbor_link(state)
    pred = multi_rayleigh_prediction(state, cfg, a, b)
    p_hat, se = link_success_probability(state, cfg, a, b, 2 * 10**5, seed=99)
    assert abs(p_hat - pred) <= 3 * se


@pytest.mark.parametrize("fading", netsim.FADINGS)
def test_pairwise_fixed_link_matches_exact_product(fading):
    cfg = make_config(
        n=10, r=0.35, p_t=0.3, tx_pattern=esnla(4, 0.5),
        model="pairwise", fading=fading, seed=3,
    )
    state = generate_network(cfg)
    a, b = nearest_neighbor_link(state)
    pred = pairwise_link_prediction(state, cfg, a, b)
    assert abs(pred - pairwise_link_prediction(state, cfg, a, b, step=0.05)) < 1e-12
    assert pred < (1.0 - cfg.p_t) - 0.1  # interferers matter, not only the busy receiver
    p_hat, se = link_success_probability(state, cfg, a, b, 2 * 10**5, seed=99)
    assert abs(p_hat - pred) <= 3 * se


def test_forced_link_memory_is_bounded_at_large_n():
    """2000 trials at n = 10^4, p_t = 1/2 stay under 128 MiB: trials run in chunks
    of about _PAIR_BUDGET cells, and only the active ones are drawn."""
    n = 10_000
    p_t, r = total_throughput_rule(n)
    cfg = make_config(n=n, r=r, p_t=p_t, model="multi", fading="rayleigh", seed=44)
    state = generate_network(cfg)
    a, b = nearest_neighbor_link(state)
    tracemalloc.start()
    try:
        p_hat, _ = link_success_probability(state, cfg, a, b, 2000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < p_hat < 1.0
    assert peak < 128 * 2**20, peak


def test_prediction_requires_rayleigh_multi():
    cfg = make_config(n=10, r=0.35, seed=7)
    state = generate_network(cfg)
    with pytest.raises(ValueError):
        multi_rayleigh_prediction(state, cfg, 0, 1)


# --- throughput statistics -----------------------------------------------------


def test_throughput_zero_activity():
    cfg = make_config(p_t=0.0, slots=20)
    state = generate_network(cfg)
    stats = estimate_throughput(state, cfg)
    assert stats.eta_tt == 0.0 and stats.eta_tr == 0.0


@pytest.mark.parametrize("bins", [0, -2])
def test_throughput_rejects_nonpositive_bins(bins):
    cfg = make_config(slots=5)
    with pytest.raises(ValueError, match="bins"):
        estimate_throughput(generate_network(cfg), cfg, bins=bins)


def test_transport_below_range_times_total():
    cfg = make_config(n=200, r=0.12, p_t=0.3, slots=100, seed=3)
    state = generate_network(cfg)
    stats = estimate_throughput(state, cfg)
    assert stats.eta_tr <= cfg.r * stats.eta_tt + 1e-12
    assert stats.eta_tr <= (math.sqrt(2) / 2) * stats.eta_tt


def test_throughput_deterministic_and_thread_invariant():
    base = make_config(n=120, r=0.15, p_t=0.3, rx_pattern=esnla(2, 0.5), slots=60, seed=19)
    state = generate_network(base)

    def summary(stats):
        bins = [(b.links, b.successes) for b in stats.bins]
        return stats.eta_tt, stats.eta_tr, bins

    for model, fading in MODEL_FADINGS:
        cfg = replace(base, model=model, fading=fading)
        runs = [summary(estimate_throughput(state, cfg, w_b_effective=1.0, threads=k))
                for k in (1, 1, 3)]
        assert runs[0] == runs[1] == runs[2], (model, fading)
        assert sum(links for links, _ in runs[0][2]) > 0


def test_bin_table_structure():
    cfg = make_config(n=300, r=0.1, p_t=0.1, slots=120, seed=23)
    state = generate_network(cfg)
    w_eff = 1.0
    stats = estimate_throughput(state, cfg, w_b_effective=w_eff, bins=16)
    assert len(stats.bins) == 16
    for b in stats.bins:
        assert 0 <= b.successes <= b.links
        assert b.bound_lo <= b.bound_hi + 1e-12
        assert b.bin_lo < b.bin_hi <= cfg.r + 1e-12


@pytest.mark.parametrize("model,fading", MODEL_FADINGS)
@pytest.mark.parametrize("change", [dict(sir0=100.0), dict(alpha=3.0)], ids=["sir0", "alpha"])
def test_placement_reused_under_another_config(change, model, fading):
    """One placement evaluated under config B gives the same bits whether it was
    built from B or from A, whose guard zone differs (SIR0 10 against 100, or
    alpha 4 against 3): every call takes Delta and c1 from its own config."""
    a = make_config(n=1000, r=0.06, p_t=0.05, tx_pattern=esnla(4, 0.5), model=model,
                    fading=fading, slots=40, seed=42)
    b = replace(a, **change)
    w_eff = exact_beam_width(b.tx_pattern, BasisDistribution(2.0), b.alpha)
    runs = []
    for state in (generate_network(a), generate_network(b)):
        link = nearest_neighbor_link(state)
        stats = estimate_throughput(state, b, w_b_effective=w_eff)
        flags = [run_slot(state, b, slot_seed(b, t)).success.tolist() for t in range(3)]
        p_hat = link_success_probability(state, b, *link, 500, seed=1)
        pred = (multi_rayleigh_prediction(state, b, *link)
                if (model, fading) == ("multi", "rayleigh") else None)
        runs.append((repr(stats), flags, p_hat, pred))
    assert runs[0] == runs[1]
    assert any(map(any, runs[0][1]))  # some link of the three slots succeeds


def test_pairwise_rayleigh_combo_runs():
    cfg = make_config(n=80, r=0.15, p_t=0.3, model="pairwise", fading="rayleigh", slots=30, seed=2)
    state = generate_network(cfg)
    stats = estimate_throughput(state, cfg)
    assert stats.eta_tt >= 0.0


def test_activity_product_bound():
    cfg = make_config(n=300, r=0.1, seed=29)
    state = generate_network(cfg)
    product, floor, c4 = interference_free_activity_bound(state, p_t=0.05)
    assert c4 > 0
    assert product >= floor


def test_capacity_curve_shapes():
    cfg = make_config(n=100, r=0.15, p_t=0.5, slots=40, seed=31)
    pts = capacity_curve(cfg, [150])
    assert len(pts) == 1
    assert pts[0].n == 150
    assert pts[0].p_t == 0.5
    for n_list in ([300, 200], [150, 150]):  # both points of [150, 150] would be one network
        with pytest.raises(ValueError, match="strictly increasing"):
            capacity_curve(cfg, n_list)


def test_total_throughput_rule():
    p_t, r = total_throughput_rule(1000)
    assert p_t == 0.5
    assert r == pytest.approx(math.sqrt(math.log(1000) / 1000), abs=1e-12)


def test_sector_patterns_in_network():
    cfg = make_config(n=150, r=0.12, p_t=0.3, tx_pattern=sector(0.1), slots=40, seed=37)
    state = generate_network(cfg)
    stats_dir = estimate_throughput(state, cfg)
    cfg_omni = replace(cfg, tx_pattern=omni())
    stats_omni = estimate_throughput(state, cfg_omni)
    assert stats_dir.eta_tt > stats_omni.eta_tt
