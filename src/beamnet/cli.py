"""Command-line front end: patterns -> beam widths -> scaling fits -> network sims.

Subcommands: pattern, ebw, scan, fit, reproduce, netsim, analytic.
Common flags: --seed, --out, --threads, --emit-plot, --config.
Exit codes: 0 success, 1 a reproduce check failed (its outputs are still
written), 2 usage/precondition violation, 3 numerical failure.

Every output CSV starts with a comment line recording the tool version, the
resolved configuration, and the seed; identical configurations produce
bit-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__, analytic, ebw, netsim, patterns, scaling

REPRODUCE_SEED = 1
FIT_TOLERANCE = 0.08

_FIG4_ALPHA_STARS = (0.5, 1.0, 2.0, 4.0)
_FIG5_SPACINGS = (0.5, 0.25, 0.125, 0.0625)


def _comment(cmd: str, args: argparse.Namespace) -> str:
    # threads and output paths are execution details, not experiment parameters;
    # the same experiment writes byte-identical files wherever it lands.
    skip = {"func", "config", "emit_plot", "threads", "out"}
    parts = " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    )
    return f"beamnet {__version__} | {cmd} | {parts}"


def _write_csv(path, fieldnames, rows, comment: str) -> None:
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(f"# {comment}\n")
        w = csv.writer(f)
        w.writerow(fieldnames)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _read_csv(path):
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


_PLOT_TEMPLATES = {
    "pattern": """\
#!/usr/bin/env python3
\"\"\"Plot a pattern CSV (auto-generated).\"\"\"
import csv
from pathlib import Path
import matplotlib.pyplot as plt

CSV = Path(__file__).with_name({csv_name!r})
rows = [r for r in csv.reader(open(CSV)) if r and not r[0].startswith("#")]
head, data = rows[0], rows[1:]
cols = {{name: [float(r[i]) for r in data] for i, name in enumerate(head)}}
fig, ax = plt.subplots(subplot_kw={{"projection": "polar"}})
ax.plot(cols["theta_rad"], cols["gain_starred"], lw=0.8)
ax.set_title("normalized pattern (starred gain)")
fig.savefig(Path(__file__).with_suffix(".png"), dpi=150)
print("wrote", Path(__file__).with_suffix(".png"))
""",
    "sweep": """\
#!/usr/bin/env python3
\"\"\"Plot lg W_B versus lg N from a sweep CSV (auto-generated).\"\"\"
import csv
import math
from pathlib import Path
import matplotlib.pyplot as plt

CSV = Path(__file__).with_name({csv_name!r})
rows = [r for r in csv.reader(open(CSV)) if r and not r[0].startswith("#")]
head, data = rows[0], rows[1:]
groups = {{}}
for r in data:
    rec = dict(zip(head, r))
    key = (rec["family"], rec["alpha_star"], rec["d_ratio"])
    groups.setdefault(key, []).append((float(rec["N"]), float(rec["W_B"])))
fig, ax = plt.subplots()
for key, pts in sorted(groups.items()):
    pts.sort()
    ax.plot([math.log10(n) for n, _ in pts], [math.log10(w) for _, w in pts],
            marker="o", label="/".join(key))
ax.set_xlabel("lg N")
ax.set_ylabel("lg W_B")
ax.legend(fontsize=7)
fig.savefig(Path(__file__).with_suffix(".png"), dpi=150)
print("wrote", Path(__file__).with_suffix(".png"))
""",
    "bins": """\
#!/usr/bin/env python3
\"\"\"Plot binned success probability against its analytic bracket (auto-generated).\"\"\"
import csv
from pathlib import Path
import matplotlib.pyplot as plt

CSV = Path(__file__).with_name({csv_name!r})
rows = [r for r in csv.reader(open(CSV)) if r and not r[0].startswith("#")]
head, data = rows[0], rows[1:]
cols = {{name: [float(r[i]) for r in data] for i, name in enumerate(head)}}
mid = [0.5 * (lo + hi) for lo, hi in zip(cols["bin_lo"], cols["bin_hi"])]
fig, ax = plt.subplots()
ax.plot(mid, cols["p_emp"], "o", label="empirical")
ax.plot(mid, cols["bound_lo"], "--", label="lower bound")
ax.plot(mid, cols["bound_hi"], "--", label="upper bound")
ax.set_xlabel("link length")
ax.set_ylabel("success probability")
ax.legend()
fig.savefig(Path(__file__).with_suffix(".png"), dpi=150)
print("wrote", Path(__file__).with_suffix(".png"))
""",
}


def _emit_plot(kind: str, csv_path) -> Path:
    csv_path = Path(csv_path)
    script = csv_path.with_name(csv_path.stem + "_plot.py")
    script.write_text(_PLOT_TEMPLATES[kind].format(csv_name=csv_path.name))
    return script


def _parse_mixture(spec: str) -> ebw.MixtureDistribution:
    weights, orders = [], []
    for part in spec.split(","):
        w, h = part.split(":")
        weights.append(float(w))
        orders.append(float(h))
    return ebw.MixtureDistribution(weights=tuple(weights), orders=tuple(orders))


def _parse_n_list(spec: str) -> list[int]:
    return [int(v) for v in spec.split(",")]


def cmd_pattern(args) -> int:
    p = patterns.build_pattern(args.family, n=args.n, d_ratio=args.d,
                               beam_fraction=args.beam_fraction, r_ms=args.rms)
    out = args.out or "pattern.csv"
    patterns.write_pattern_csv(p, args.alpha, out, rows=args.rows,
                               comment=_comment("pattern", args))
    print(f"wrote {out} ({args.rows} rows, pattern {p.label})")
    if args.emit_plot:
        print(f"wrote {_emit_plot('pattern', out)}")
    return 0


def cmd_ebw(args) -> int:
    p = patterns.build_pattern(args.family, n=args.n, d_ratio=args.d,
                               beam_fraction=args.beam_fraction, r_ms=args.rms)
    if args.mixture:
        dist = _parse_mixture(args.mixture)
    else:
        dist = ebw.BasisDistribution(args.h)
    est = ebw.effective_beam_width(p, dist, args.alpha, args.samples, args.seed, args.threads)
    out = args.out or "ebw.csv"
    _write_csv(
        out,
        ["pattern_id", "alpha", "h_or_mixture", "W_B", "stderr", "samples", "seed"],
        [[p.label, args.alpha, dist.describe(), est.value, est.stderr, est.samples, est.seed]],
        _comment("ebw", args),
    )
    print(f"{p.label}: W_B = {est.value:.6f} +- {est.stderr:.2g} ({est.samples} samples)")
    print(f"wrote {out}")
    return 0


def _sweep_rows(table: scaling.SweepTable):
    return [
        [table.family, table.alpha_star, table.d_ratio, row.n, row.w_b, row.stderr]
        for row in table.rows
    ]


def cmd_scan(args) -> int:
    table = scaling.sweep(
        args.family,
        _parse_n_list(args.n_list),
        args.alpha_star,
        args.d,
        args.samples,
        args.seed,
        args.threads,
    )
    out = args.out or "sweep.csv"
    _write_csv(
        out,
        ["family", "alpha_star", "d_ratio", "N", "W_B", "stderr"],
        _sweep_rows(table),
        _comment("scan", args),
    )
    print(f"wrote {out}")
    if args.emit_plot:
        print(f"wrote {_emit_plot('sweep', out)}")
    return 0


def cmd_fit(args) -> int:
    records = _read_csv(args.infile)
    groups: dict[tuple, list] = {}
    for rec in records:
        key = (rec["family"], float(rec["alpha_star"]), float(rec["d_ratio"]))
        groups.setdefault(key, []).append(
            scaling.SweepRow(n=int(rec["N"]), w_b=float(rec["W_B"]), stderr=float(rec["stderr"]))
        )
    rows = []
    for (family, a_star, d_ratio), sweep_rows in sorted(groups.items()):
        table = scaling.SweepTable(
            family=family, alpha_star=a_star, d_ratio=d_ratio,
            rows=tuple(sorted(sweep_rows, key=lambda r: r.n)),
        )
        fit = scaling.fit_power_law(table)
        rows.append([family, a_star, d_ratio, fit.b1, fit.gamma, fit.r2])
        print(f"{family} alpha*={a_star:g} D/lambda={d_ratio:g}: "
              f"b1={fit.b1:.4f} gamma={fit.gamma:.4f} R2={fit.r2:.5f}")
    out = args.out or "fit.csv"
    _write_csv(out, ["family", "alpha_star", "d_ratio", "b1", "gamma", "r2"], rows,
               _comment("fit", args))
    print(f"wrote {out}")
    return 0


def _reproduce_bundle(args, curves, out_dir):
    """Run sweeps for (family, alpha*, d_ratio) curves; returns tables and fits."""
    n_list = _parse_n_list(args.n_list)
    tables = []
    for family, a_star, d_ratio in curves:
        tables.append(
            scaling.sweep(family, n_list, a_star, d_ratio, args.samples, args.seed,
                          args.threads)
        )
    rows = [row for t in tables for row in _sweep_rows(t)]
    sweep_csv = out_dir / f"{args.figure}_sweep.csv"
    _write_csv(sweep_csv, ["family", "alpha_star", "d_ratio", "N", "W_B", "stderr"], rows,
               _comment(f"reproduce {args.figure}", args))
    fits = [scaling.fit_power_law(t) for t in tables]
    fit_rows = [
        [t.family, t.alpha_star, t.d_ratio, f.b1, f.gamma, f.r2]
        for t, f in zip(tables, fits)
    ]
    _write_csv(out_dir / f"{args.figure}_fit.csv",
               ["family", "alpha_star", "d_ratio", "b1", "gamma", "r2"], fit_rows,
               _comment(f"reproduce {args.figure}", args))
    for t, f in zip(tables, fits):
        print(f"{t.family} alpha*={t.alpha_star:g} D/lambda={t.d_ratio:g}: "
              f"b1={f.b1:.4f} gamma={f.gamma:.4f} R2={f.r2:.5f}")
    if args.emit_plot:
        print(f"wrote {_emit_plot('sweep', sweep_csv)}")
    return tables, fits


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out or "reproduce_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    if args.figure == "fig4":
        tables, _ = _reproduce_bundle(
            args, [("esnla", a, 0.5) for a in _FIG4_ALPHA_STARS], out_dir
        )
        rep = scaling.parallel_lines_check(tables)
        ok = rep.gamma_spread <= 0.1 and rep.intercepts_increasing
        print(f"gamma spread = {rep.gamma_spread:.4f} (<= 0.1: "
              f"{'PASS' if rep.gamma_spread <= 0.1 else 'FAIL'})")
        print(f"intercepts increasing with alpha*: "
              f"{'PASS' if rep.intercepts_increasing else 'FAIL'}")
    elif args.figure == "fig5":
        tables, _ = _reproduce_bundle(
            args, [("esnla", 2.0, d) for d in _FIG5_SPACINGS], out_dir
        )
        rep = scaling.spacing_check(tables)
        ok = rep.gamma_spread <= 0.1
        print(f"gamma spread = {rep.gamma_spread:.4f} (<= 0.1: "
              f"{'PASS' if ok else 'FAIL'})")
        print(f"intercept b largest at D=lambda/2: {rep.intercepts_increasing} "
              "(reported, not asserted)")
    elif args.figure in ("fig6", "tableC"):
        tables, fits = _reproduce_bundle(
            args, [(f, 2.0, 0.5) for f in ("esnla", "binomial", "chebyshev")], out_dir
        )
        by_family = dict(zip(("esnla", "binomial", "chebyshev"), zip(tables, fits)))
        order_ok = scaling.family_ordering_check(
            by_family["binomial"][0], by_family["esnla"][0], by_family["chebyshev"][0]
        )
        print(f"ordering Binomial > ESNLA >= Chebyshev - 3SE at every N: "
              f"{'PASS' if all(order_ok) else 'FAIL'}")
        ok = all(order_ok)
        if args.figure == "tableC":
            for family, (b1_ref, gamma_ref) in scaling.REFERENCE_FITS.items():
                fit = by_family[family][1]
                good = (abs(fit.b1 - b1_ref) <= FIT_TOLERANCE
                        and abs(fit.gamma - gamma_ref) <= FIT_TOLERANCE)
                ok = ok and good
                print(f"{family}: (b1, gamma) = ({fit.b1:.3f}, {fit.gamma:.3f}) "
                      f"vs reference ({b1_ref}, {gamma_ref}) +- {FIT_TOLERANCE}: "
                      f"{'PASS' if good else 'FAIL'}")
    else:
        raise ValueError(f"unknown figure {args.figure!r}")
    print(f"reproduce {args.figure}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_netsim(args) -> int:
    config = netsim.NetworkConfig(
        n=args.n,
        r=args.r,
        p_t=args.pt,
        alpha=args.alpha,
        sir0=args.sir0,
        tx_pattern=patterns.parse_pattern_spec(args.tx_pattern),
        rx_pattern=patterns.parse_pattern_spec(args.rx_pattern),
        model=args.model,
        fading=args.fading,
        slots=args.slots,
        seed=args.seed,
    )
    state = netsim.generate_network(config)
    w_tx = ebw.effective_beam_width(
        config.tx_pattern, ebw.BasisDistribution(2.0), config.alpha,
        args.wb_samples, args.seed, args.threads,
    ).value
    w_rx = ebw.effective_beam_width(
        config.rx_pattern, ebw.BasisDistribution(2.0), config.alpha,
        args.wb_samples, args.seed + 1, args.threads,
    ).value
    stats = netsim.estimate_throughput(
        state, config, w_b_effective=w_tx * w_rx, bins=args.bins, threads=args.threads
    )
    out = Path(args.out or "netsim.csv")
    _write_csv(
        out,
        ["eta_tt", "eta_tt_stderr", "eta_tr", "eta_tr_stderr", "slots", "w_b_effective"],
        [[stats.eta_tt, stats.eta_tt_stderr, stats.eta_tr, stats.eta_tr_stderr,
          stats.slots, stats.w_b_effective]],
        _comment("netsim", args),
    )
    bins_out = out.with_name(out.stem + "_bins" + out.suffix)
    _write_csv(
        bins_out,
        ["bin_lo", "bin_hi", "links", "successes", "p_emp", "bound_lo", "bound_hi"],
        [[b.bin_lo, b.bin_hi, b.links, b.successes, b.p_emp, b.bound_lo, b.bound_hi]
         for b in stats.bins],
        _comment("netsim", args),
    )
    print(f"eta_tt = {stats.eta_tt:.4f} +- {stats.eta_tt_stderr:.4f}, "
          f"eta_tr = {stats.eta_tr:.5f} +- {stats.eta_tr_stderr:.5f}")
    print(f"wrote {out} and {bins_out}")
    if args.emit_plot:
        print(f"wrote {_emit_plot('bins', bins_out)}")
    return 0


def cmd_analytic(args) -> int:
    delta, c1 = analytic.guard_zone(args.sir0, args.alpha)
    regime = analytic.optimal_params(args.n, args.wb, args.objective, c1)
    fade = analytic.f_alpha(args.alpha)
    report = {
        "sir0": args.sir0,
        "alpha": args.alpha,
        "delta": delta,
        "c1": c1,
        "f_alpha": "divergent" if math.isinf(fade) else fade,
        "n": args.n,
        "w_b": args.wb,
        "objective": regime.objective,
        "regime": regime.regime,
        "p_t": regime.p_t,
        "r": regime.r,
        "pt_clamped": regime.pt_clamped,
        "r_clamped": regime.r_clamped,
        "total_throughput_bracket": analytic.analytic_total_throughput(
            args.n, regime.p_t, regime.r, args.wb, c1
        ),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for k, v in report.items():
            print(f"{k}: {_fmt(v) if isinstance(v, float) else v}")
    return 0


def _add_common(sp, out_default=None):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=out_default)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--emit-plot", action="store_true")
    sp.add_argument("--config", default=None, help="key=value file; flags override")


def _add_pattern_family(sp):
    sp.add_argument("--family", required=True, choices=list(patterns.PATTERN_FAMILIES))
    sp.add_argument("--n", type=int, default=4, help="array factor degree")
    sp.add_argument("--d", type=float, default=0.5, help="element spacing D/lambda")
    sp.add_argument("--beam-fraction", type=float, default=0.25)
    sp.add_argument("--rms", type=float, default=30.0,
                    help="chebyshev main-lobe-to-side-lobe ratio")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="beamnet", description=__doc__)
    ap.add_argument("--version", action="version", version=f"beamnet {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("pattern", help="export a pattern's G and G* curves")
    _add_pattern_family(sp)
    sp.add_argument("--alpha", type=float, default=4.0)
    sp.add_argument("--rows", type=int, default=1 << 12)
    _add_common(sp)
    sp.set_defaults(func=cmd_pattern)

    sp = sub.add_parser("ebw", help="estimate an effective beam width")
    _add_pattern_family(sp)
    sp.add_argument("--alpha", type=float, default=4.0)
    sp.add_argument("--h", type=float, default=2.0, help="basis distribution order")
    sp.add_argument("--mixture", default=None, help="w:h,w:h,... mixture spec")
    sp.add_argument("--samples", type=int, default=10**6)
    _add_common(sp)
    sp.set_defaults(func=cmd_ebw)

    sp = sub.add_parser("scan", help="sweep W_B over array degree N")
    sp.add_argument("--family", required=True, choices=scaling.FAMILIES)
    sp.add_argument("--alpha-star", type=float, default=2.0)
    sp.add_argument("--d", type=float, default=0.5)
    sp.add_argument("--n-list", default="2,4,6,8,10,12,14,16,18,20")
    sp.add_argument("--samples", type=int, default=10**6)
    _add_common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("fit", help="fit lg W_B = -gamma lg N + b to a sweep CSV")
    sp.add_argument("--in", dest="infile", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("reproduce", help="run a pinned sweep/fit recipe")
    sp.add_argument("figure", choices=["fig4", "fig5", "fig6", "tableC"])
    sp.add_argument("--samples", type=int, default=10**6)
    sp.add_argument("--n-list", default="2,4,6,8,10,12,14,16,18,20")
    _add_common(sp)
    sp.set_defaults(func=cmd_reproduce, seed=REPRODUCE_SEED)

    sp = sub.add_parser("netsim", help="slotted-ALOHA torus network simulation")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--pt", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=4.0)
    sp.add_argument("--sir0", type=float, default=10.0)
    sp.add_argument("--model", choices=["pairwise", "multi"], default="pairwise")
    sp.add_argument("--fading", choices=["none", "rayleigh"], default="none")
    sp.add_argument("--tx-pattern", default="omni")
    sp.add_argument("--rx-pattern", default="omni")
    sp.add_argument("--slots", type=int, default=1000)
    sp.add_argument("--bins", type=int, default=16)
    sp.add_argument("--wb-samples", type=int, default=10**6)
    _add_common(sp)
    sp.set_defaults(func=cmd_netsim)

    sp = sub.add_parser("analytic", help="closed-form report for a parameter point")
    sp.add_argument("--sir0", type=float, default=10.0)
    sp.add_argument("--alpha", type=float, default=4.0)
    sp.add_argument("--n", type=int, default=10**4)
    sp.add_argument("--wb", type=float, default=1.0)
    sp.add_argument("--objective", choices=["total", "transport"], default="total")
    sp.add_argument("--json", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=cmd_analytic)
    return ap


def _coerce(text: str):
    low = text.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    for cast in (int, float):
        try:
            return cast(low)
        except ValueError:
            pass
    return low


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill options from a key=value file; explicit command-line flags win."""
    if not getattr(args, "config", None):
        return
    explicit = set()
    for tok in argv:
        if tok.startswith("--"):
            explicit.add(tok[2:].split("=", 1)[0].replace("-", "_"))
    for line in Path(args.config).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not hasattr(args, key):
            raise ValueError(f"config file option {key!r} unknown for this subcommand")
        if key not in explicit:
            setattr(args, key, _coerce(value))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ebw.EstimationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
