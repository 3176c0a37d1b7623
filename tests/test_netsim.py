import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamnet import netsim
from beamnet.analytic import guard_zone
from beamnet.ebw import BasisDistribution, effective_beam_width
from beamnet.netsim import (
    NetworkConfig,
    NetworkState,
    capacity_curve,
    estimate_throughput,
    generate_network,
    interference_free_activity_bound,
    link_success_probability,
    multi_rayleigh_prediction,
    multi_rayleigh_success,
    pairwise_success,
    run_slot,
    torus_distance,
    total_throughput_rule,
)
from beamnet.patterns import esnla, omni, sector


def make_config(**kw):
    base = dict(
        n=100, r=0.15, p_t=0.2, alpha=4.0, sir0=10.0,
        tx_pattern=omni(), rx_pattern=omni(),
        model="pairwise", fading="none", slots=50, seed=0,
    )
    base.update(kw)
    return NetworkConfig(**base)


def make_state(positions, r=0.3, sir0=10.0, alpha=4.0):
    """Bare state for scalar-operation tests; adjacency left empty."""
    pos = np.asarray(positions, dtype=float)
    delta, c1 = guard_zone(sir0, alpha)
    n = len(pos)
    return NetworkState(
        positions=pos, r=r, k_pr=np.zeros(n, np.int64),
        neighbor_offsets=np.zeros(n + 1, np.int64), neighbors=np.zeros(0, np.int64),
        neighbor_dist=np.zeros(0), delta=delta, c1=c1,
    )


def slot_seed(cfg, t):
    return np.random.SeedSequence([cfg.seed, 1, t])


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
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        make_config(**kw)


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_torus_metric_symmetry_and_bound(ax, ay, bx, by):
    a = np.array([ax, ay])
    b = np.array([bx, by])
    d1 = float(torus_distance(a, b))
    d2 = float(torus_distance(b, a))
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert d1 <= math.sqrt(2) / 2 + 1e-12


def test_torus_wraparound_value():
    d = torus_distance(np.array([0.05, 0.05]), np.array([0.95, 0.95]))
    assert float(d) == pytest.approx(math.sqrt(2) * 0.1, abs=1e-12)


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


def test_generate_network_guard_constants():
    state = generate_network(make_config(sir0=10.0, alpha=4.0))
    assert state.delta == pytest.approx(0.778, abs=5e-4)
    assert state.c1 == pytest.approx(9.935, abs=5e-4)
    state = generate_network(make_config(sir0=16.0, alpha=4.0))
    assert state.delta == pytest.approx(1.0, abs=1e-12)
    assert state.c1 == pytest.approx(4 * math.pi, abs=1e-9)


def test_large_radius_pair_search_matches_brute_force():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 2 + 23 * seed
        pos = rng.random((n, 2))
        dist = torus_distance(pos[:, None, :], pos[None, :, :])
        for r in (0.45, 0.5, 0.6, math.sqrt(2.0) / 2.0):
            want = {(i, j) for i, j in zip(*np.nonzero(dist <= r)) if i < j}
            got = {tuple(sorted(pair)) for pair in netsim._range_pairs(pos, r).tolist()}
            assert got == want, (seed, r)


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


# --- scalar interference operations on crafted geometry -----------------------


def test_pairwise_inclusive_guard_boundary():
    # SIR0 = 16, alpha = 4 makes (1 + Delta) exactly 2; d_i = 0.25, guard = 0.5
    positions = [(0.5, 0.25), (0.25, 0.25), (0.25, 0.75), (0.25, 0.95)]
    state = make_state(positions, sir0=16.0)
    cfg = make_config(n=4, sir0=16.0)
    link, active = (0, 1), [(0, 1), (2, 3)]
    assert torus_distance(state.positions[1], state.positions[2]) == 0.5
    assert pairwise_success(link, active, state, cfg)  # exactly on the boundary
    inside = make_state([(0.5, 0.25), (0.25, 0.25), (0.25, 0.75 - 1e-6), (0.25, 0.95)], sir0=16.0)
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


def test_forced_link_matches_scalar_replay():
    cfg = make_config(
        n=12, r=0.35, p_t=0.4, tx_pattern=esnla(4, 0.5),
        model="multi", fading="rayleigh", seed=21,
    )
    state = generate_network(cfg)
    a, b = nearest_neighbor_link(state)
    slots = 64
    p_hat, _ = link_success_probability(state, cfg, a, b, slots, seed=9)

    nodes, offsets, plain, starred, d_i = netsim._forced_link_tables(state, cfg, a, b)
    counts = state.k_pr[nodes]
    rng = np.random.default_rng(np.random.SeedSequence([9, 5]))
    rx_busy = (rng.random(slots) < cfg.p_t) & (state.k_pr[b] > 0)
    zeta = rng.random((slots, len(nodes))) < cfg.p_t
    pick = np.minimum((rng.random((slots, len(nodes))) * counts).astype(np.int64), counts - 1)
    f_int = rng.standard_exponential((slots, len(nodes)))
    f_sig = rng.standard_exponential(slots)

    hits = 0
    for s in range(slots):
        active = [(int(a), int(b))]
        fades = np.ones(cfg.n)
        fades[a] = f_sig[s]
        for j, k in enumerate(nodes):
            if zeta[s, j]:
                m = state.neighbors[state.neighbor_offsets[k] + pick[s, j]]
                active.append((int(k), int(m)))
                fades[k] = f_int[s, j]
        ok = multi_rayleigh_success((a, b), active, state, cfg, fades)
        hits += int(ok and not rx_busy[s])
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


def test_transport_below_range_times_total():
    cfg = make_config(n=200, r=0.12, p_t=0.3, slots=100, seed=3)
    state = generate_network(cfg)
    stats = estimate_throughput(state, cfg)
    assert stats.eta_tr <= cfg.r * stats.eta_tt + 1e-12
    assert stats.eta_tr <= (math.sqrt(2) / 2) * stats.eta_tt


def test_throughput_deterministic_and_thread_invariant():
    cfg = make_config(n=120, r=0.15, p_t=0.3, slots=60, seed=19)
    state = generate_network(cfg)
    s1 = estimate_throughput(state, cfg)
    s2 = estimate_throughput(state, cfg)
    s3 = estimate_throughput(state, cfg, threads=3)
    assert (s1.eta_tt, s1.eta_tr) == (s2.eta_tt, s2.eta_tr) == (s3.eta_tt, s3.eta_tr)


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
    with pytest.raises(ValueError):
        capacity_curve(cfg, [300, 200])


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
