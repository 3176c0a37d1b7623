"""The benchmark's workloads: set-up, one round of fixed work, and its checks.

Each workload drives the library calls that the matching `beamnet` command
makes, through the public API and with threads=1.  It does not go through
`beamnet.cli.main`, whose exit codes and output paths are due to change.
Calls go through module attributes (`scaling.sweep`, `netsim.run_slot`, ...)
so that the traced run's wrappers see them.

Every input derives from the benchmark seed; the same seed gives the same
inputs, so the rounds of one run repeat the same computation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import beamnet  # noqa: E402

if not Path(beamnet.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"beamnet was imported from {beamnet.__file__}, not from {ROOT / 'src'}")

from beamnet import ebw, netsim, patterns, scaling  # noqa: E402

import oracles  # noqa: E402

# The paper's Table C constants (b1, gamma) at alpha* = 2, D/lambda = 1/2, and
# the tolerance the reproduce report applies.  Misses are reported, not failed.
REFERENCE_FITS = {
    "esnla": (0.659, 0.810),
    "binomial": (0.496, 0.496),
    "chebyshev": (0.716, 0.874),
}
FIT_TOLERANCE = 0.08


def sub_seed(seed: int, *tags: int) -> int:
    """An independent 32-bit seed for one input of the workload."""
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


def sample_links(success: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Up to k link indices, half from the successes and half from the failures."""
    wins, losses = np.flatnonzero(success), np.flatnonzero(~success)
    take_losses = min(len(losses), k - min(len(wins), k // 2))
    take_wins = min(len(wins), k - take_losses)
    return np.concatenate([
        rng.choice(wins, take_wins, replace=False),
        rng.choice(losses, take_losses, replace=False),
    ])


def check_slot(state, config, out, links, checks: oracles.Checks, label: str) -> None:
    """One entry for the slot's protocol invariants, one per listed link against
    the per-link reference (no-fading models only)."""
    problems = oracles.slot_invariants(
        state.positions, config.r, config.rx_pattern.kind != "omni",
        out.tx, out.rx, out.d, out.success,
    )
    checks.record(not problems, f"{label}: {'; '.join(problems)}")
    if config.fading != "none":
        return
    for i in links:
        want = oracles.link_success(state.positions, config, out.tx, out.rx, int(i))
        if want is None:
            checks.ties += 1
        checks.record(
            want is None or want == bool(out.success[i]),
            f"{label}: link {out.tx[i]}->{out.rx[i]} reports success={bool(out.success[i])}",
        )


def check_throughput(state, config, stats, sample_slots, links_per_slot, rng, checks,
                     label) -> None:
    """Re-run every slot of a timed estimate_throughput with `netsim.run_slot`.

    The slots' totals must give the timed eta_tt and eta_tr, and their links,
    in equal-width length bins over [0, r], the timed per-bin link and success
    counts.  Each slot in `sample_slots` is also checked by check_slot.
    """
    bins = len(stats.bins)
    succ, dsum = np.zeros(config.slots), np.zeros(config.slots)
    links, wins = np.zeros(bins, np.int64), np.zeros(bins, np.int64)
    for t in range(config.slots):
        out = netsim.run_slot(state, config, np.random.SeedSequence([config.seed, 1, t]))
        b = np.minimum((out.d / state.r * bins).astype(np.int64), bins - 1)
        succ[t], dsum[t] = out.success.sum(), out.d[out.success].sum()
        links += np.bincount(b, minlength=bins)
        wins += np.bincount(b[out.success], minlength=bins)
        if t in sample_slots:
            check_slot(state, config, out, sample_links(out.success, links_per_slot, rng),
                       checks, f"{label} slot {t}")
    eta_tt, eta_tr = float(np.mean(succ)), float(np.mean(dsum))
    checks.record(
        stats.slots == config.slots
        and math.isclose(stats.eta_tt, eta_tt, rel_tol=1e-12, abs_tol=1e-12)
        and math.isclose(stats.eta_tr, eta_tr, rel_tol=1e-12, abs_tol=1e-12),
        f"{label}: eta_tt={stats.eta_tt:.6g}, eta_tr={stats.eta_tr:.6g} over {stats.slots} slots; "
        f"re-run slots give {eta_tt:.6g}, {eta_tr:.6g} over {config.slots}",
    )
    checks.record(
        [bs.links for bs in stats.bins] == links.tolist()
        and [bs.successes for bs in stats.bins] == wins.tolist(),
        f"{label}: per-bin links/successes differ from the re-run slots",
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableCOutput:
    tables: tuple  # scaling.SweepTable per family
    fits: tuple  # scaling.PowerLawFit per family


class ReproduceTableC:
    """`beamnet reproduce tableC`: sweep W_B over N for three families, fit each.

    Why: almost all of its time goes to ebw Monte Carlo inside
    scaling.optimize_chebyshev_rms, about 750 W_B estimates; the rest to pattern
    construction (the ESNLA 2^20-point boresight scan and ~750 chebwin builds).
    netsim is idle.
    """

    name = "reproduce_tableC"
    FAMILIES = ("esnla", "binomial", "chebyshev")
    ALPHA_STAR = 2.0
    D_RATIO = 0.5
    MAX_STDERR = 2e-3
    SIZES = {
        "full": {"n_list": tuple(range(2, 21, 2)), "samples": 10**5, "optimizer_samples": 10**5},
        "tiny": {"n_list": (2, 4, 6), "samples": 10**5, "optimizer_samples": 10**4},
    }

    def __init__(self, size: str, seed: int):
        self.p = self.SIZES[size]
        self.seed = seed

    def setup(self) -> None:
        """Nothing beyond the imports: pattern construction is part of the sweep."""

    def run(self) -> TableCOutput:
        tables = tuple(
            scaling.sweep(
                family, self.p["n_list"], self.ALPHA_STAR, self.D_RATIO, self.p["samples"],
                sub_seed(self.seed, 2), threads=1,
                optimizer_samples=self.p["optimizer_samples"],
            )
            for family in self.FAMILIES
        )
        return TableCOutput(tables=tables, fits=tuple(scaling.fit_power_law(t) for t in tables))

    def fingerprint(self, out: TableCOutput) -> tuple:
        return tuple((r.w_b, r.stderr, r.r_ms) for t in out.tables for r in t.rows)

    def _pattern(self, family: str, row):
        if family == "esnla":
            return patterns.esnla(row.n, self.D_RATIO)
        if family == "binomial":
            return patterns.binomial_array(row.n, self.D_RATIO)
        return patterns.chebyshev_array(row.n, self.D_RATIO, row.r_ms)

    def check(self, out: TableCOutput, checks: oracles.Checks) -> None:
        """Each (family, N) cell: SE <= 2e-3 and within max(4 SE, 1e-6) of the exact
        W_B, at the cell's own R_MS for Chebyshev."""
        for table in out.tables:
            for row in table.rows:
                exact = oracles.exact_beam_width(
                    self._pattern(table.family, row), h=2.0, alpha=2.0 * self.ALPHA_STAR
                )
                checks.record(
                    oracles.beam_width_ok(row.w_b, row.stderr, exact, self.MAX_STDERR),
                    f"{table.family} N={row.n}: W_B={row.w_b:.6f} +- {row.stderr:.2e}, "
                    f"exact {exact:.6f}",
                )

    def counts(self, out: TableCOutput) -> dict:
        cells = sum(len(t.rows) for t in out.tables)
        return {"cells": cells, "sweep_wb_samples": cells * self.p["samples"]}

    def notes(self, out: TableCOutput) -> dict:
        """Known departures from the paper, reported as values (not failures)."""
        by_family = {t.family: t for t in out.tables}
        fits = {}
        for table, fit in zip(out.tables, out.fits):
            b1_ref, gamma_ref = REFERENCE_FITS[table.family]
            fits[table.family] = {
                "b1": fit.b1, "gamma": fit.gamma, "r2": fit.r2,
                "reference": [b1_ref, gamma_ref],
                "within_tolerance": bool(abs(fit.b1 - b1_ref) <= FIT_TOLERANCE
                                         and abs(fit.gamma - gamma_ref) <= FIT_TOLERANCE),
            }
        # Binomial > ESNLA >= Chebyshev - 3 SE at every N (acceptance criterion 4);
        # at 10^5 samples the slack can hide the known reversal at N = 4, so the
        # raw ESNLA - Chebyshev gap is reported per N too.
        rows = zip(*(by_family[f].rows for f in ("binomial", "esnla", "chebyshev")))
        ordering_fails, gap = [], {}
        for rb, re, rc in rows:
            gap[rb.n] = re.w_b - rc.w_b
            if not (rb.w_b > re.w_b and re.w_b >= rc.w_b - 3.0 * math.hypot(re.stderr, rc.stderr)):
                ordering_fails.append(rb.n)
        return {"fits": fits, "ordering_fails_at_n": ordering_fails,
                "esnla_minus_chebyshev_wb": gap}


# ---------------------------------------------------------------------------


class NetsimDense:
    """`beamnet netsim` at n=4000, p_t=1/2, r=sqrt(ln n / n), pairwise guard
    zone without fading, ESNLA(4) at both ends: L ~ 2000 links per slot.

    Why: all of the time goes to netsim.run_slot over the L x L interferer
    matrix, most of it patterns gain evaluation; ebw and scaling are idle.
    (1 + Delta) r ~ 0.08 < 1/2, so an exact interference cutoff applies here.

    The per-bin bracket takes the benchmark's exact W_B, computed in set-up, so
    that ebw stays idle while estimate_throughput still reports links per bin.
    """

    name = "netsim_dense"
    SPEC = "esnla:4:0.5"
    SIZES = {
        "full": {"n": 4000, "slots": 4, "check_slots": 2, "check_links": 16},
        "tiny": {"n": 300, "slots": 2, "check_slots": 1, "check_links": 8},
    }

    def __init__(self, size: str, seed: int):
        self.p = self.SIZES[size]
        self.seed = seed

    def setup(self) -> None:
        n = self.p["n"]
        self.config = netsim.NetworkConfig(
            n=n, r=math.sqrt(math.log(n) / n), p_t=0.5, alpha=4.0, sir0=10.0,
            tx_pattern=patterns.parse_pattern_spec(self.SPEC),
            rx_pattern=patterns.parse_pattern_spec(self.SPEC),
            model="pairwise", fading="none", slots=self.p["slots"], seed=sub_seed(self.seed, 1),
        )
        self.state = netsim.generate_network(self.config)
        w_b = oracles.exact_beam_width(self.config.tx_pattern, h=2.0, alpha=self.config.alpha)
        self.w_b_effective = w_b * w_b

    def run(self):
        return netsim.estimate_throughput(self.state, self.config,
                                          w_b_effective=self.w_b_effective, threads=1)

    def fingerprint(self, out) -> tuple:
        return (out.eta_tt, out.eta_tt_stderr, out.eta_tr, out.eta_tr_stderr)

    def check(self, out, checks: oracles.Checks) -> None:
        """Re-run every slot against the timed totals; check a seeded sample of the
        slots' invariants and a fixed number of their links against the per-link
        reference."""
        rng = np.random.default_rng(sub_seed(self.seed, 7))
        slot_ids = set(rng.choice(self.config.slots, self.p["check_slots"],
                                  replace=False).tolist())
        check_throughput(self.state, self.config, out, slot_ids, self.p["check_links"], rng,
                         checks, "pairwise/none")

    def counts(self, out) -> dict:
        return {"nodes": self.state.n, "slots": out.slots, "links": sum(b.links for b in out.bins)}

    def notes(self, out) -> dict:
        return {"eta_tt": out.eta_tt, "eta_tr": out.eta_tr}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseOutput:
    w_tx: object  # ebw.EbwEstimate
    w_rx: object
    stats: tuple  # netsim.ThroughputStats per (model, fading)
    link: tuple  # (p_hat, stderr) of the fixed link under multi + rayleigh
    prediction: float


class NetsimSparse:
    """The README's `beamnet netsim` point: n=1000, r=0.06, p_t=0.05, ESNLA(4)
    transmitters, omni receivers.  One round is the bracket W_B at 10^6
    samples, estimate_throughput under all four (model, fading) pairs, then the
    fixed-link estimate (10^5 trials) and its exact prediction under
    multi + Rayleigh.

    Why: it uses netsim the other way from netsim_dense.  L ~ 50, so per-slot
    overhead and the (unique rx) x n fade draw dominate, not the L^2 matrix;
    three of the four models have no exact cutoff; the chunked fixed-link path
    sets peak RSS (2^14 trials x ~1000 nodes).  An optimisation that wins on
    netsim_dense but adds per-slot cost shows up here as a loss.
    """

    name = "netsim_sparse"
    MODELS = (("pairwise", "none"), ("pairwise", "rayleigh"), ("multi", "none"), ("multi", "rayleigh"))
    SIZES = {
        "full": {"n": 1000, "r": 0.06, "slots": 1000, "wb_samples": 10**6,
                 "link_trials": 10**5, "check_slots": 16, "check_links": 8},
        "tiny": {"n": 200, "r": 0.12, "slots": 40, "wb_samples": 10**4,
                 "link_trials": 2000, "check_slots": 4, "check_links": 4},
    }

    def __init__(self, size: str, seed: int):
        self.p = self.SIZES[size]
        self.seed = seed

    def setup(self) -> None:
        self.config = netsim.NetworkConfig(
            n=self.p["n"], r=self.p["r"], p_t=0.05, alpha=4.0, sir0=10.0,
            tx_pattern=patterns.parse_pattern_spec("esnla:4:0.5"),
            rx_pattern=patterns.parse_pattern_spec("omni"),
            slots=self.p["slots"], seed=sub_seed(self.seed, 1),
        )
        self.state = netsim.generate_network(self.config)
        rng = np.random.default_rng(sub_seed(self.seed, 5))
        self.tx_node = int(rng.choice(np.flatnonzero(self.state.k_pr > 0)))
        lo = self.state.neighbor_offsets[self.tx_node]
        self.rx_node = int(self.state.neighbors[lo + rng.integers(self.state.k_pr[self.tx_node])])

    def _config(self, model: str, fading: str):
        return replace(self.config, model=model, fading=fading)

    def run(self) -> SparseOutput:
        basis = ebw.BasisDistribution(2.0)
        alpha = self.config.alpha
        w_tx = ebw.effective_beam_width(self.config.tx_pattern, basis, alpha,
                                        self.p["wb_samples"], sub_seed(self.seed, 3), threads=1)
        w_rx = ebw.effective_beam_width(self.config.rx_pattern, basis, alpha,
                                        self.p["wb_samples"], sub_seed(self.seed, 4), threads=1)
        stats = tuple(
            netsim.estimate_throughput(self.state, self._config(m, f),
                                       w_b_effective=w_tx.value * w_rx.value, threads=1)
            for m, f in self.MODELS
        )
        fixed = self._config("multi", "rayleigh")
        link = netsim.link_success_probability(self.state, fixed, self.tx_node, self.rx_node,
                                               self.p["link_trials"], sub_seed(self.seed, 6))
        prediction = netsim.multi_rayleigh_prediction(self.state, fixed, self.tx_node, self.rx_node)
        return SparseOutput(w_tx=w_tx, w_rx=w_rx, stats=stats, link=link, prediction=prediction)

    def fingerprint(self, out: SparseOutput) -> tuple:
        return (out.w_tx.value, out.w_rx.value, *((s.eta_tt, s.eta_tr) for s in out.stats),
                out.link, out.prediction)

    def check(self, out: SparseOutput, checks: oracles.Checks) -> None:
        """Bracket W_B against the exact value; per model, every slot re-run
        against the timed totals and a seeded sample of slots checked (per-link
        reference without fading, invariants under Rayleigh); the fixed link
        against its exact product-form prediction."""
        h, alpha = 2.0, self.config.alpha
        for side, est, pattern in (("tx", out.w_tx, self.config.tx_pattern),
                                   ("rx", out.w_rx, self.config.rx_pattern)):
            exact = oracles.exact_beam_width(pattern, h, alpha)
            checks.record(oracles.beam_width_ok(est.value, est.stderr, exact),
                          f"bracket W_B {side}: {est.value:.6f} +- {est.stderr:.2e}, exact {exact:.6f}")
        rng = np.random.default_rng(sub_seed(self.seed, 7))
        for (model, fading), stats in zip(self.MODELS, out.stats):
            slot_ids = set(rng.choice(self.config.slots, self.p["check_slots"],
                                      replace=False).tolist())
            check_throughput(self.state, self._config(model, fading), stats, slot_ids,
                             self.p["check_links"], rng, checks, f"{model}/{fading}")
        p_hat, _ = out.link
        checks.record(
            oracles.fixed_link_ok(p_hat, out.prediction, self.p["link_trials"]),
            f"fixed link {self.tx_node}->{self.rx_node}: p_hat={p_hat:.5f}, "
            f"prediction {out.prediction:.5f}",
        )

    def counts(self, out: SparseOutput) -> dict:
        return {
            "nodes": self.state.n,
            "wb_samples": out.w_tx.samples + out.w_rx.samples,
            "slots": sum(s.slots for s in out.stats),
            "links": sum(b.links for s in out.stats for b in s.bins),
            "fixed_link_trials": self.p["link_trials"],
        }

    def notes(self, out: SparseOutput) -> dict:
        return {
            "w_b_effective": out.w_tx.value * out.w_rx.value,
            "eta_tt": {f"{m}/{f}": s.eta_tt for (m, f), s in zip(self.MODELS, out.stats)},
            "fixed_link": {"p_hat": out.link[0], "stderr": out.link[1],
                           "prediction": out.prediction},
        }


WORKLOADS = {w.name: w for w in (ReproduceTableC, NetsimDense, NetsimSparse)}
