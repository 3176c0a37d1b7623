"""Command-line front end: patterns -> beam widths -> scaling fits -> network sims.

Subcommands: pattern, ebw, scan, fit, reproduce, netsim, analytic.
Every subcommand takes --config (a file of `key = value` lines, keyed by option
destination; explicit flags win), and all but analytic take --out.  A pattern
is one spec string such as esnla:4:0.5 (pattern and ebw --pattern, netsim
--tx-pattern and --rx-pattern), and ebw's --h takes a distance-law order (2)
or mixture (0.5:1,0.5:4).  scan, reproduce and netsim, which draw random
numbers and can run in parallel, also take --seed (at least 0) and --threads
(at least 1), checked before any work.
No command writes anything but CSV files.
Exit codes: 0 success, 1 a reproduce check failed (its outputs are still
written), 2 usage/precondition violation or a file that cannot be read or
written, 3 numerical failure, 141 (128 + SIGPIPE) stdout closed by its reader
before the command finished.  ebw reports the exact W_B, and netsim's bracket
takes the exact W_B of both patterns.

Every output CSV starts with a comment line recording the tool version and the
resolved configuration, patterns as the spec given and the seed where the
command takes one;
identical configurations produce bit-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analytic, ebw, netsim, patterns, scaling

REPRODUCE_SEED = 1
FIT_TOLERANCE = 0.08

_FIG4_ALPHA_STARS = (0.5, 1.0, 2.0, 4.0)
_FIG5_SPACINGS = (0.5, 0.25, 0.125, 0.0625)


def _comment(cmd: str, args: argparse.Namespace) -> str:
    # threads and file paths are execution details, not experiment parameters;
    # the same experiment writes byte-identical files wherever its files lie.
    skip = {"func", "config", "threads", "out", "infile"}
    parts = " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    )
    return f"beamnet {__version__} | {cmd} | {parts}"


def _make_parent(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path, fieldnames, rows, comment: str) -> None:
    with open(_make_parent(path), "w", newline="") as f:
        f.write(f"# {comment}\n")
        w = csv.writer(f)
        w.writerow(fieldnames)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _read_csv(path, columns):
    """Rows of a CSV as dicts; the header must name every one of `columns`."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no header row")
    header, body = rows[0], rows[1:]
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {', '.join(missing)}")
    if any(len(r) != len(header) for r in body):
        raise ValueError(f"{path}: a row's length differs from the header's")
    return [dict(zip(header, r)) for r in body]


def _parse_law(spec: str) -> ebw.BasisDistribution | ebw.MixtureDistribution:
    """The distance law of `ebw --h`: an order h (`2`) or a mixture
    w:h,w:h,... (`0.5:1,0.5:4`)."""
    if ":" not in spec and "," not in spec:
        try:
            order = float(spec)
        except ValueError:
            raise ValueError(f"bad --h {spec!r}: expected an order h or a mixture w:h,..., "
                             "e.g. 2 or 0.5:1,0.5:4") from None
        return ebw.BasisDistribution(order)
    weights, orders = [], []
    for part in spec.split(","):
        w, _, h = part.partition(":")
        try:
            weights.append(float(w))
            orders.append(float(h))
        except ValueError:
            raise ValueError(f"bad mixture part {part!r} in {spec!r}: expected w:h, "
                             "e.g. 0.5:1,0.5:4") from None
    return ebw.MixtureDistribution(weights=tuple(weights), orders=tuple(orders))


def _parse_n_list(spec: str) -> list[int]:
    try:
        return [int(v) for v in spec.split(",")]
    except ValueError:
        raise ValueError(f"bad --n-list {spec!r}: expected integers N, e.g. 2,4,8") from None


def cmd_pattern(args) -> int:
    if args.rows < 1:
        raise ValueError(f"--rows must be >= 1, got {args.rows}")
    p = patterns.parse_pattern_spec(args.pattern)
    theta = np.linspace(0.0, patterns.TWO_PI, args.rows, endpoint=False)
    out = args.out or "pattern.csv"
    _write_csv(out, ["theta_rad", "gain", "gain_starred"],
               zip(theta, p.gain(theta), p.gain_starred(theta, args.alpha)),
               _comment("pattern", args))
    print(f"wrote {out} ({args.rows} rows, pattern {p.label})")
    return 0


def cmd_ebw(args) -> int:
    p = patterns.parse_pattern_spec(args.pattern)
    dist = _parse_law(args.h)
    w_b = ebw.exact_beam_width(p, dist, args.alpha)
    out = args.out or "ebw.csv"
    _write_csv(out, ["pattern_id", "alpha", "h_or_mixture", "W_B"],
               [[p.label, args.alpha, dist.describe(), w_b]], _comment("ebw", args))
    print(f"{p.label}: W_B = {_fmt(w_b)}")
    print(f"wrote {out}")
    return 0


# fit needs the first six; R_MS, empty for the families that have none, is
# optional there, so sweep files written before it still fit.
SWEEP_COLUMNS = ["family", "alpha_star", "d_ratio", "N", "W_B", "stderr", "R_MS"]
FIT_COLUMNS = ["family", "alpha_star", "d_ratio", "b1", "gamma", "r2"]


def _sweep_rows(table: scaling.SweepTable):
    return [
        [table.family, table.alpha_star, table.d_ratio, row.n, row.w_b, row.stderr,
         "" if row.r_ms is None else row.r_ms]
        for row in table.rows
    ]


def _check_run_flags(args) -> None:
    """Reject --seed below 0 and --threads, --samples, --slots and --bins below 1,
    those of them the command takes, before it does any work."""
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    for flag in ("threads", "samples", "slots", "bins"):
        if getattr(args, flag, 1) < 1:
            raise ValueError(f"--{flag} must be >= 1, got {getattr(args, flag)}")


def cmd_scan(args) -> int:
    _check_run_flags(args)
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
        SWEEP_COLUMNS,
        _sweep_rows(table),
        _comment("scan", args),
    )
    print(f"wrote {out}")
    return 0


def _write_fits(path, tables, comment: str) -> list:
    """Fit each sweep table, write one fit CSV and print one line per fit."""
    fits = [scaling.fit_power_law(t) for t in tables]
    _write_csv(path, FIT_COLUMNS,
               [[t.family, t.alpha_star, t.d_ratio, f.b1, f.gamma, f.r2]
                for t, f in zip(tables, fits)], comment)
    for t, f in zip(tables, fits):
        print(f"{t.family} alpha*={t.alpha_star:g} D/lambda={t.d_ratio:g}: "
              f"b1={f.b1:.4f} gamma={f.gamma:.4f} R2={f.r2:.5f}")
    return fits


def cmd_fit(args) -> int:
    records = _read_csv(args.infile, SWEEP_COLUMNS[:6])
    groups: dict[tuple, list] = {}
    for rec in records:
        key = (rec["family"], float(rec["alpha_star"]), float(rec["d_ratio"]))
        groups.setdefault(key, []).append(
            scaling.SweepRow(n=int(rec["N"]), w_b=float(rec["W_B"]), stderr=float(rec["stderr"]))
        )
    tables = [
        scaling.SweepTable(family=family, alpha_star=a_star, d_ratio=d_ratio,
                           rows=tuple(sorted(sweep_rows, key=lambda r: r.n)))
        for (family, a_star, d_ratio), sweep_rows in sorted(groups.items())
    ]
    out = args.out or "fit.csv"
    _write_fits(out, tables, _comment("fit", args))
    print(f"wrote {out}")
    return 0


def _reproduce_bundle(args, curves, out_dir):
    """Run sweeps for (family, alpha*, d_ratio) curves; returns tables and fits."""
    n_list = _parse_n_list(args.n_list)
    if len(n_list) < 3:
        raise ValueError(f"--n-list needs at least 3 N for the power-law fits, got {args.n_list!r}")
    tables = []
    for family, a_star, d_ratio in curves:
        tables.append(
            scaling.sweep(family, n_list, a_star, d_ratio, args.samples, args.seed,
                          args.threads)
        )
    rows = [row for t in tables for row in _sweep_rows(t)]
    _write_csv(out_dir / f"{args.figure}_sweep.csv", SWEEP_COLUMNS, rows,
               _comment(f"reproduce {args.figure}", args))
    fits = _write_fits(out_dir / f"{args.figure}_fit.csv", tables,
                       _comment(f"reproduce {args.figure}", args))
    return tables, fits


def cmd_reproduce(args) -> int:
    _check_run_flags(args)
    out_dir = Path(args.out or "reproduce_out")  # made by the first file written
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
    _check_run_flags(args)
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
    w_tx, w_rx = (ebw.exact_beam_width(p, ebw.BasisDistribution(2.0), config.alpha)
                  for p in (config.tx_pattern, config.rx_pattern))
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
    return 0


def cmd_analytic(args) -> int:
    delta, c1 = analytic.guard_zone(args.sir0, args.alpha)
    regime = analytic.optimal_params(args.n, args.wb, args.objective, c1)
    fade = analytic.f_alpha(args.alpha)
    # The bracket is defined only while c1*p_t*r^2*W_B < 1 (analytic_total_throughput).
    x = c1 * regime.p_t * regime.r * regime.r * args.wb
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
        ) if x < 1.0 else None,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for k, v in report.items():
            if v is None:
                v = f"undefined (c1*p_t*r^2*W_B = {x:.4g} >= 1)"
            print(f"{k}: {_fmt(v) if isinstance(v, float) else v}")
    return 0


def _add_seed_and_threads(sp):
    """Flags of the subcommands that draw random numbers and can run in parallel."""
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1)


_PATTERN_HELP = "pattern spec: omni, sector:F, esnla:N[:D], binomial:N[:D], chebyshev:N[:D[:RMS]]"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="beamnet", description=__doc__)
    ap.add_argument("--version", action="version", version=f"beamnet {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("pattern", help="export a pattern's G and G* curves")
    sp.add_argument("--pattern", required=True, help=_PATTERN_HELP)
    sp.add_argument("--alpha", type=float, default=4.0)
    sp.add_argument("--rows", type=int, default=1 << 12)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_pattern)

    sp = sub.add_parser("ebw", help="compute an effective beam width")
    sp.add_argument("--pattern", required=True, help=_PATTERN_HELP)
    sp.add_argument("--alpha", type=float, default=4.0)
    sp.add_argument("--h", default="2", help="distance law: an order h or a mixture w:h,w:h,...")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_ebw)

    sp = sub.add_parser("scan", help="sweep W_B over array degree N")
    sp.add_argument("--family", required=True, choices=scaling.FAMILIES)
    sp.add_argument("--alpha-star", type=float, default=2.0)
    sp.add_argument("--d", type=float, default=0.5)
    sp.add_argument("--n-list", default="2,4,6,8,10,12,14,16,18,20")
    sp.add_argument("--samples", type=int, default=10**6)
    _add_seed_and_threads(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("fit", help="fit lg W_B = -gamma lg N + b to a sweep CSV")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("reproduce", help="run a pinned sweep/fit recipe")
    sp.add_argument("figure", choices=["fig4", "fig5", "fig6", "tableC"])
    sp.add_argument("--samples", type=int, default=10**6)
    sp.add_argument("--n-list", default="2,4,6,8,10,12,14,16,18,20")
    _add_seed_and_threads(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_reproduce, seed=REPRODUCE_SEED)

    sp = sub.add_parser("netsim", help="slotted-ALOHA torus network simulation")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--pt", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=4.0)
    sp.add_argument("--sir0", type=float, default=10.0)
    sp.add_argument("--model", choices=["pairwise", "multi"], default="pairwise")
    sp.add_argument("--fading", choices=["none", "rayleigh"], default="none")
    sp.add_argument("--tx-pattern", default="omni", help=_PATTERN_HELP)
    sp.add_argument("--rx-pattern", default="omni", help=_PATTERN_HELP)
    sp.add_argument("--slots", type=int, default=1000)
    sp.add_argument("--bins", type=int, default=16)
    _add_seed_and_threads(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_netsim)

    sp = sub.add_parser("analytic", help="closed-form report for a parameter point")
    sp.add_argument("--sir0", type=float, default=10.0)
    sp.add_argument("--alpha", type=float, default=4.0)
    sp.add_argument("--n", type=int, default=10**4)
    sp.add_argument("--wb", type=float, default=1.0)
    sp.add_argument("--objective", choices=["total", "transport"], default="total")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_analytic)

    for sp in sub.choices.values():
        sp.add_argument("--config", default=None, help="key=value file; flags override")
    return ap


def _config_tokens(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """The options in args.config's `key = value` lines, as command-line tokens.

    Keys are option destinations (`infile` for `--in`).  The tokens go through
    the parser like typed flags, so they get its types and choices.
    """
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {a.dest: a for a in sub.choices[args.cmd]._actions
               if a.option_strings and a.dest not in ("help", "config")}
    tokens = []
    for line in Path(args.config).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in options:
            raise ValueError(f"config file option {key!r} unknown for this subcommand")
        flag = options[key].option_strings[-1]
        if options[key].nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value.lower() == "true":
            tokens.append(flag)
        elif value.lower() != "false":
            raise ValueError(f"config file option {key!r} takes true or false, got {value!r}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # File options go before the command line's own, so explicit flags win.
            i = argv.index(args.cmd) + 1
            args = parser.parse_args(argv[:i] + _config_tokens(parser, args) + argv[i:])
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout left (`| head`).  Point stdout at os.devnull so the
        # flush at exit stays quiet, and exit as SIGPIPE would: the run may not
        # have finished, so neither 0 nor 1 is true.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # a stdout without a file descriptor
        return 141
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
