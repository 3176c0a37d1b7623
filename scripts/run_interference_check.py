#!/usr/bin/env python3
"""Empirical-versus-analytic checks on one network realization.

1. Binned per-link success probability against its guard-zone bracket, for
   directional transmission with omni and with directional reception.
2. Cumulative-interference Rayleigh success rate of a designated link against
   the exact fade-ratio product form.
"""

import numpy as np

from beamnet import netsim
from beamnet.ebw import BasisDistribution, exact_beam_width
from beamnet.patterns import esnla, omni

if __name__ == "__main__":
    p4 = esnla(4, 0.5)
    w_b = exact_beam_width(p4, BasisDistribution(2.0), 4.0)
    print(f"W_B(esnla(4), alpha=4, h=2) = {w_b:.4f}")

    for rx, w_eff, tag in ((omni(), w_b, "omni rx"), (p4, w_b**2, "directional rx")):
        cfg = netsim.NetworkConfig(
            n=1000, r=0.06, p_t=0.05, alpha=4.0, sir0=10.0,
            tx_pattern=p4, rx_pattern=rx, model="pairwise", fading="none",
            slots=2500, seed=42,
        )
        state = netsim.generate_network(cfg)
        stats = netsim.estimate_throughput(state, cfg, w_b_effective=w_eff)
        inside = sum(
            1 for b in stats.bins
            if b.links and b.bound_lo - 3 * np.sqrt(b.p_emp * (1 - b.p_emp) / b.links)
            <= b.p_emp
            <= b.bound_hi + 3 * np.sqrt(b.p_emp * (1 - b.p_emp) / b.links)
        )
        print(f"{tag}: {inside}/16 bins inside the bracket, eta_tt = {stats.eta_tt:.2f}")

    cfg = netsim.NetworkConfig(
        n=20, r=0.3, p_t=0.3, alpha=4.0, sir0=10.0,
        tx_pattern=p4, rx_pattern=omni(), model="multi", fading="rayleigh",
        slots=1, seed=7,
    )
    state = netsim.generate_network(cfg)
    lo, hi = state.neighbor_offsets[0], state.neighbor_offsets[1]
    rx_node = int(state.neighbors[lo:hi][np.argmin(state.neighbor_dist[lo:hi])])
    pred = netsim.multi_rayleigh_prediction(state, cfg, 0, rx_node)
    p_hat, se = netsim.link_success_probability(state, cfg, 0, rx_node, 10**6, seed=99)
    print(f"rayleigh product form: empirical {p_hat:.5f} vs exact {pred:.5f} "
          f"(3 sigma = {3 * se:.5f})")
