import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamnet
from beamnet import netsim
from beamnet.cli import build_parser, main
from beamnet.ebw import BasisDistribution, MixtureDistribution, exact_beam_width
from beamnet.patterns import TWO_PI, chebyshev_array, esnla, omni, sector
from ebw_reference import beam_width_log_sum


def read_rows(path):
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def test_pattern_csv(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = main(["pattern", "--pattern", "esnla:4:0.5", "--alpha", "4", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["theta_rad", "gain", "gain_starred"]
    assert len(rows) == 1 << 12
    assert max(float(r[1]) for r in rows) == 1.0
    first = out.read_text().splitlines()[0]
    assert first.startswith("# beamnet")


def test_pattern_omni_constant(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["pattern", "--pattern", "omni", "--rows", "64", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert all(float(r[1]) == 1.0 for r in rows)


def test_unknown_family_is_usage_error(tmp_path, capsys):
    assert main(["pattern", "--pattern", "helix", "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown pattern family 'helix'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_missing_spec_field_is_named(tmp_path, capsys):
    # No family default stands in for a field the spec leaves out.
    assert main(["ebw", "--pattern", "sector", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: bad pattern spec 'sector': sector pattern needs beam_fraction\n")
    assert not (tmp_path / "x.csv").exists()


SPECS = {"omni": omni(), "sector:0.3": sector(0.3), "esnla:4": esnla(4, 0.5),
         "chebyshev:8:0.5:30": chebyshev_array(8, 0.5, 30.0)}


@pytest.mark.parametrize("spec", SPECS)
def test_pattern_rows_match_library(tmp_path, spec):
    p, out = SPECS[spec], tmp_path / "p.csv"
    assert main(["pattern", "--pattern", spec, "--alpha", "4", "--rows", "256",
                 "--out", str(out)]) == 0
    theta = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    want = [[f"{v:.12g}" for v in row]
            for row in zip(theta, p.gain(theta), p.gain_starred(theta, 4.0))]
    assert read_rows(out)[1] == want
    assert out.read_text().splitlines()[0].endswith(f"pattern={spec} rows=256")


def test_ebw_single_row_and_determinism(tmp_path):
    args = ["ebw", "--pattern", "esnla:4:0.5", "--alpha", "4", "--h", "2"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_rows(out1)
    assert header == ["pattern_id", "alpha", "h_or_mixture", "W_B"]
    assert len(rows) == 1
    assert rows[0][0] == "esnla(4,0.5)"
    assert 0.0 < float(rows[0][3]) < 1.0


def test_closed_stdout_exits_141_without_an_error_line(tmp_path, capsys, monkeypatch):
    """A reader that leaves stdout (`| head`) is not a usage error: main writes its
    CSV, prints no `error:` line, and returns 128 + SIGPIPE."""

    class ClosedPipe(io.StringIO):
        def write(self, s):
            raise BrokenPipeError(32, "Broken pipe")

    out = tmp_path / "w.csv"
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["ebw", "--pattern", "esnla:4", "--out", str(out)]) == 141
    monkeypatch.undo()
    assert "error" not in capsys.readouterr().err
    header, rows = read_rows(out)
    assert header == ["pattern_id", "alpha", "h_or_mixture", "W_B"] and len(rows) == 1


def test_ebw_mixture_flag(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["ebw", "--pattern", "sector:0.25", "--h", "0.5:1,0.5:4",
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0][2] == "0.5*h1+0.5*h4"
    assert float(rows[0][3]) == 0.25


LAWS = {"2": ("h2", BasisDistribution(2.0)),
        "0.25:1,0.75:3": ("mixture", MixtureDistribution((0.25, 0.75), (1.0, 3.0)))}


@pytest.mark.parametrize("law", LAWS, ids=lambda law: LAWS[law][0])
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.split(":")[0])
def test_ebw_reports_exact_beam_width(tmp_path, capsys, spec, law):
    pattern, dist = SPECS[spec], LAWS[law][1]
    want = f"{exact_beam_width(pattern, dist, 4.0):.12g}"
    out = tmp_path / "e.csv"
    assert main(["ebw", "--pattern", spec, "--h", law, "--alpha", "4", "--out", str(out)]) == 0
    assert f"W_B = {want}\n" in capsys.readouterr().out
    assert read_rows(out)[1] == [[pattern.label, "4", dist.describe(), want]]
    assert out.read_text().splitlines()[0].endswith(f"| alpha=4.0 cmd=ebw h={law} pattern={spec}")


@pytest.mark.parametrize("cmd", [["ebw", "--pattern", "omni"], ["pattern", "--pattern", "omni"],
                                 ["fit", "--in", "s.csv"], ["analytic"]])
@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_deterministic_commands_take_no_seed_or_threads(tmp_path, capsys, cmd, flag):
    # Only scan, reproduce and netsim draw random numbers or run in parallel.
    out = [] if cmd == ["analytic"] else ["--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        main(cmd + [flag, "1"] + out)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd,removed",
    [(["pattern", "--pattern", "omni"], ["--family", "esnla"]),
     (["ebw", "--pattern", "esnla:4"], ["--n", "8"]),
     (["ebw", "--pattern", "esnla:4"], ["--mixture", "0.5:1,0.5:4"]),
     (["ebw", "--pattern", "omni"], ["--emit-plot"]),
     (["fit", "--in", "s.csv"], ["--emit-plot"]),
     (["analytic"], ["--out", "a.json"]),
     (["analytic"], ["--emit-plot"]),
     (["pattern", "--pattern", "omni"], ["--emit-plot"]),
     (["scan", "--family", "omni"], ["--emit-plot"]),
     (["reproduce", "fig4"], ["--emit-plot"]),
     (["netsim", "--n", "80", "--r", "0.15", "--pt", "0.2"], ["--emit-plot"])],
    ids=["pattern-family", "ebw-n", "ebw-mixture", "ebw-emit-plot", "fit-emit-plot",
         "analytic-out", "analytic-emit-plot", "pattern-emit-plot", "scan-emit-plot",
         "reproduce-emit-plot", "netsim-emit-plot"],
)
def test_removed_options_are_usage_errors(capsys, cmd, removed):
    with pytest.raises(SystemExit) as exc:
        main(cmd + removed)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err


def test_subcommand_options():
    (sub,) = [a for a in build_parser()._actions if a.dest == "cmd"]
    options = {name: sorted(s for a in sp._actions for s in a.option_strings
                            if s not in ("-h", "--help"))
               for name, sp in sub.choices.items()}
    assert options == {
        "pattern": ["--alpha", "--config", "--out", "--pattern", "--rows"],
        "ebw": ["--alpha", "--config", "--h", "--out", "--pattern"],
        "scan": ["--alpha-star", "--config", "--d", "--family", "--n-list", "--out",
                 "--samples", "--seed", "--threads"],
        "fit": ["--config", "--in", "--out"],
        "reproduce": ["--config", "--n-list", "--out", "--samples", "--seed", "--threads"],
        "netsim": ["--alpha", "--bins", "--config", "--fading", "--model", "--n", "--out",
                   "--pt", "--r", "--rx-pattern", "--seed", "--sir0", "--slots", "--threads",
                   "--tx-pattern"],
        "analytic": ["--alpha", "--config", "--json", "--n", "--objective", "--sir0", "--wb"],
    }
    assert sum(map(len, options.values())) == 50


def readme_commands():
    """The argument lists of every `beamnet ...` command in README.md's fenced
    blocks: continuation lines joined, trailing # comments dropped, and a
    `for VAR in A B ...; do ...; done` loop expanded to one command per value."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", text, flags=re.S | re.M)
    commands = []
    for line in "\n".join(blocks).replace("\\\n", " ").splitlines():
        loop = re.fullmatch(r"for (\w+) in ([^;]+); do (.+); done", line.strip())
        lines = ([loop[3].replace(f"${loop[1]}", v) for v in loop[2].split()] if loop
                 else [line])
        for cmd in lines:
            argv = shlex.split(cmd, comments=True)
            if argv[:1] == ["beamnet"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    """No README example keeps an option the parser has dropped."""
    commands = readme_commands()
    (sub,) = [a for a in build_parser()._actions if a.dest == "cmd"]
    assert {argv[0] for argv in commands} == set(sub.choices)  # every subcommand shown
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: beamnet {shlex.join(argv)}")


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize(
    "cmd",
    [["scan", "--family", "omni", "--n-list", "2", "--samples", "10"],
     ["reproduce", "fig4", "--n-list", "2,4,6", "--samples", "10"],
     ["netsim", "--n", "80", "--r", "0.15", "--pt", "0.2", "--slots", "2"]],
    ids=["scan", "reproduce", "netsim"],
)
def test_threads_below_one_is_usage_error(tmp_path, capsys, cmd, threads):
    assert main(cmd + ["--threads", threads, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: --threads must be >= 1, got {threads}\n"
    assert not (tmp_path / "x").exists()  # reproduce's output directory included


@pytest.mark.parametrize("flag,value,message", [
    ("--threads", "0", "--threads must be >= 1, got 0"),
    ("--threads", "-1", "--threads must be >= 1, got -1"),
    ("--seed", "-1", "--seed must be >= 0, got -1"),
], ids=["threads-0", "threads--1", "seed--1"])
@pytest.mark.parametrize(
    "cmd",
    [["scan", "--family", "chebyshev", "--n-list", "2,4"],
     ["reproduce", "tableC", "--n-list", "2,4,6"],
     ["netsim", "--n", "20000", "--r", "0.02", "--pt", "0.2"]],
    ids=["scan", "reproduce", "netsim"],
)
def test_seed_or_threads_out_of_range_is_usage_error_before_any_work(
        tmp_path, capsys, monkeypatch, cmd, flag, value, message):
    """The message names the flag and the value, and comes before any network,
    pattern, R_MS search or sweep is built."""
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the usage check")

    for name in ("netsim.generate_network", "scaling.sweep", "scaling.optimize_chebyshev_rms",
                 "patterns.build_pattern", "patterns.parse_pattern_spec"):
        monkeypatch.setattr(f"beamnet.{name}", no_work)
    assert main(cmd + [flag, value, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("family", ["omni", "esnla", "chebyshev"])
def test_scan_alpha_star_below_one_half_is_usage_error(tmp_path, capsys, family):
    # The message names the value typed, not the alpha = 2 alpha* it stands for.
    out = tmp_path / "x.csv"
    assert main(["scan", "--family", family, "--n-list", "2,4", "--alpha-star", "0.3",
                 "--samples", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: alpha_star must be finite and >= 1/2, got 0.3\n"
    assert not out.exists()


@pytest.mark.parametrize("rows", ["0", "-3"])
def test_rows_below_one_is_usage_error(tmp_path, capsys, rows):
    out = tmp_path / "x.csv"
    assert main(["pattern", "--pattern", "esnla:4", "--rows", rows, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --rows must be >= 1, got {rows}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--slots", "0"), ("--slots", "-2"), ("--bins", "0"),
                                        ("--bins", "-1")])
def test_netsim_slots_or_bins_below_one_is_usage_error(tmp_path, capsys, monkeypatch, flag,
                                                        value):
    # Rejected before the network is built: a build here would fail the test.
    def no_build(config):
        raise AssertionError("the network was built")

    monkeypatch.setattr(netsim, "generate_network", no_build)
    out = tmp_path / "x.csv"
    assert main(["netsim", "--n", "400000", "--r", "0.004", "--pt", "0.2", flag, value,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {value}\n"
    assert not out.exists() and not (tmp_path / "x_bins.csv").exists()


@pytest.mark.parametrize("spec", ["0.5:1,0.5", "0.5,", "0.5:1:2", "0.5:1,,0.5:2", "a:1"])
def test_ebw_bad_mixture_part_is_named(tmp_path, capsys, spec):
    out = tmp_path / "x.csv"
    assert main(["ebw", "--pattern", "esnla:4", "--h", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad mixture part") and "expected w:h" in err
    assert not out.exists()


def test_ebw_bad_order_is_named(tmp_path, capsys):
    assert main(["ebw", "--pattern", "esnla:4", "--h", "two", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: bad --h 'two': expected an order h")


def test_scan_fit_roundtrip(tmp_path):
    sweep_csv = tmp_path / "s.csv"
    fit_csv = tmp_path / "f.csv"
    assert main(["scan", "--family", "esnla", "--alpha-star", "2", "--n-list", "2,4,6,8",
                 "--samples", "100000", "--seed", "5", "--out", str(sweep_csv)]) == 0
    header, rows = read_rows(sweep_csv)
    assert header == ["family", "alpha_star", "d_ratio", "N", "W_B", "stderr", "R_MS"]
    assert [int(r[3]) for r in rows] == [2, 4, 6, 8]
    assert [r[6] for r in rows] == ["", "", "", ""]
    assert main(["fit", "--in", str(sweep_csv), "--out", str(fit_csv)]) == 0
    fit_header, fit_rows = read_rows(fit_csv)
    assert fit_header == ["family", "alpha_star", "d_ratio", "b1", "gamma", "r2"]
    gamma = float(fit_rows[0][4])
    assert 0.3 < gamma < 1.2


def test_sweep_csv_records_rms_and_fits_with_or_without_it(tmp_path):
    """scan writes each Chebyshev row's optimized R_MS; fit needs only the six
    columns before it, so a sweep file without R_MS (0.9.0) fits to the same bytes."""
    sweep_csv = tmp_path / "s.csv"
    assert main(["scan", "--family", "chebyshev", "--n-list", "2,4,6", "--samples", "1000",
                 "--out", str(sweep_csv)]) == 0
    header, rows = read_rows(sweep_csv)
    assert header[6] == "R_MS"
    want = [beamnet.optimize_chebyshev_rms([n], 2.0, 0.5)[0][0] for n in (2, 4, 6)]
    assert [float(r[6]) for r in rows] == pytest.approx(want, rel=1e-11)
    old_csv = tmp_path / "old.csv"
    old_csv.write_text("".join(",".join(r[:6]) + "\n" for r in [header] + rows))
    fits = [tmp_path / "f_new.csv", tmp_path / "f_old.csv"]
    for src, out in zip((sweep_csv, old_csv), fits):
        assert main(["fit", "--in", str(src), "--out", str(out)]) == 0
    assert fits[0].read_bytes() == fits[1].read_bytes()


def test_versions_agree(tmp_path):
    """pyproject.toml, beamnet.__version__ and the CSV header give one version."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (declared,) = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.M)
    out = tmp_path / "e.csv"
    assert main(["ebw", "--pattern", "omni", "--out", str(out)]) == 0
    assert declared == beamnet.__version__
    assert out.read_text().startswith(f"# beamnet {declared} | ebw |")


def test_ebw_at_a_degree_whose_plain_null_product_overflows(tmp_path, capsys):
    """ESNLA(4000)'s null product overflowed float64 and read as G = 1, so ebw printed
    W_B = 0.399781.  Oracle: a log-sum midpoint rule, accurate to about 1e-4 here."""
    out = tmp_path / "e.csv"
    assert main(["ebw", "--pattern", "esnla:4000", "--out", str(out)]) == 0
    w_b = float(read_rows(out)[1][0][3])
    assert w_b == pytest.approx(beam_width_log_sum(esnla(4000), [0.5], 1 << 14)[0], rel=5e-4)
    assert w_b == pytest.approx(0.00059783, rel=1e-5)


def test_netsim_outputs(tmp_path):
    out = tmp_path / "net.csv"
    code = main(["netsim", "--n", "80", "--r", "0.15", "--pt", "0.2",
                 "--tx-pattern", "esnla:4:0.5", "--rx-pattern", "omni",
                 "--slots", "40", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header[:4] == ["eta_tt", "eta_tt_stderr", "eta_tr", "eta_tr_stderr"]
    bins_header, bins_rows = read_rows(tmp_path / "net_bins.csv")
    assert bins_header == ["bin_lo", "bin_hi", "links", "successes", "p_emp", "bound_lo", "bound_hi"]
    assert len(bins_rows) == 16


def test_netsim_rejects_extra_spec_fields(tmp_path, capsys):
    code = main(["netsim", "--n", "80", "--r", "0.15", "--pt", "0.2",
                 "--tx-pattern", "esnla:4:0.5:99", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "esnla:4:0.5:99" in capsys.readouterr().err


def test_netsim_precondition_exit_code(tmp_path, capsys):
    code = main(["netsim", "--n", "80", "--r", "0.15", "--pt", "0.2",
                 "--sir0", "0.5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "SIR0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd,message",
    [
        (["netsim", "--n", "50", "--r", "0.15", "--pt", "0.2", "--slots", "5", "--sir0", "inf"],
         "SIR0"),
        (["netsim", "--n", "50", "--r", "0.15", "--pt", "0.2", "--slots", "5", "--sir0", "nan"],
         "SIR0"),
        (["analytic", "--sir0", "inf"], "SIR0"),
        (["ebw", "--pattern", "esnla:4", "--h", "nan:2"], "weights"),
        (["ebw", "--pattern", "esnla:4", "--h", "1:inf"], "orders"),
        (["ebw", "--pattern", "esnla:4", "--h", "inf"], "order"),
    ],
    ids=["netsim-sir0-inf", "netsim-sir0-nan", "analytic-sir0-inf", "ebw-nan-weight",
         "ebw-inf-order", "ebw-inf-h"],
)
def test_non_finite_sir0_and_distribution_are_usage_errors(tmp_path, capsys, cmd, message):
    out = [] if cmd[0] == "analytic" else ["--out", str(tmp_path / "x.csv")]
    assert main(cmd + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "x.csv").exists()


def test_netsim_rejects_zero_bins(tmp_path, capsys):
    code = main(["netsim", "--n", "80", "--r", "0.15", "--pt", "0.2", "--bins", "0",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "bins" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd,option",
    [
        (["ebw", "--pattern", "esnla:4", "--alpha", "nan"], "alpha"),
        (["netsim", "--n", "80", "--r", "0.15", "--pt", "0.2", "--alpha", "nan"], "alpha"),
        (["analytic", "--alpha", "nan"], "alpha"),
        (["pattern", "--pattern", "omni", "--rows", "8", "--alpha", "nan"], "alpha"),
        (["scan", "--family", "esnla", "--n-list", "2", "--alpha-star", "nan"], "alpha_star"),
        (["ebw", "--pattern", "omni", "--alpha", "inf"], "alpha"),
        (["scan", "--family", "esnla", "--n-list", "2", "--alpha-star", "inf"], "alpha_star"),
    ],
    ids=["ebw", "netsim", "analytic", "pattern", "scan", "ebw-inf", "scan-inf"],
)
def test_non_finite_path_loss_exponent_is_usage_error(tmp_path, capsys, cmd, option):
    out = [] if cmd[0] == "analytic" else ["--out", str(tmp_path / "x.csv")]
    assert main(cmd + out) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} must be finite")
    assert not (tmp_path / "x.csv").exists()


_PRELUDE = """\
import json, sys
def loaded(*names):
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))
"""


def run_fresh(code: str):
    """Run _PRELUDE + code in a new interpreter that imports beamnet from this tree;
    returns the JSON value its last output line prints."""
    src = str(Path(beamnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _PRELUDE + code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_numpy_alone():
    # `import beamnet` is part of every command's start-up time, so it loads NumPy and
    # the standard library only.  The library never loads SciPy: not for the exact W_B
    # (its Gauss-Jacobi rule), the R_MS search (its golden-section refinement) or the
    # transport-radius root (its bisection).  The thread pool and numpy.polynomial load on use.
    before, after = run_fresh("""\
import beamnet
from beamnet import netsim
before = loaded("scipy", "concurrent.futures", "numpy.polynomial")
beamnet.exact_beam_width(beamnet.esnla(4), beamnet.BasisDistribution(2.0), 4.0)
beamnet.optimize_chebyshev_rms([4], 2.0)
beamnet.transport_root(50)
print(json.dumps([before, loaded("scipy")]))
""")
    assert before == []
    assert after == []


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # A fresh interpreter in which `import scipy` raises runs each command that
    # computes an exact W_B, searches R_MS or finds the transport root.
    out = str(tmp_path)
    commands = [
        ["ebw", "--pattern", "esnla:4", "--out", out + "/e.csv"],
        ["scan", "--family", "chebyshev", "--n-list", "2,4,6", "--samples", "1000",
         "--out", out + "/s.csv"],
        ["fit", "--in", out + "/s.csv", "--out", out + "/f.csv"],
        ["analytic", "--objective", "transport", "--n", "50", "--wb", "0.3"],
        ["netsim", "--n", "80", "--r", "0.3", "--pt", "0.3", "--slots", "5",
         "--tx-pattern", "esnla:4", "--rx-pattern", "esnla:2", "--out", out + "/n.csv"],
    ]
    codes, blocked, scipy_modules = run_fresh(f"""\
import contextlib, io
blocked = []
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            blocked.append(name)
            raise ImportError(f"{{name}} is blocked")
sys.meta_path.insert(0, BlockScipy())
from beamnet import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {commands!r}]
print(json.dumps([codes, blocked, loaded("scipy")]))
""")
    assert codes == [0] * len(commands)
    assert blocked == []
    assert scipy_modules == []


def test_simulation_path_loads_no_scipy(tmp_path):
    # The paper's simulation path: network build, all four slot models, the sampled
    # W_B, the fixed-link estimator and its product-form prediction, and the pattern,
    # non-Chebyshev scan and fit commands.
    codes, scipy_modules = run_fresh(f"""\
import numpy as np
from beamnet import cli, ebw, netsim
from beamnet.patterns import esnla
p = esnla(4)
w = ebw.effective_beam_width(p, ebw.BasisDistribution(2.0), 4.0, 1000, 1).value
for model in ("pairwise", "multi"):
    for fading in ("none", "rayleigh"):
        cfg = netsim.NetworkConfig(n=80, r=0.3, p_t=0.3, alpha=4.0, sir0=10.0, tx_pattern=p,
                                   rx_pattern=p, model=model, fading=fading, slots=5, seed=2)
        state = netsim.generate_network(cfg)
        netsim.estimate_throughput(state, cfg, w_b_effective=w * w, threads=1)
tx = int(np.flatnonzero(np.diff(state.neighbor_offsets))[0])  # the first node with a link
rx = int(state.neighbors[state.neighbor_offsets[tx]])
netsim.link_success_probability(state, cfg, tx, rx, 50, seed=3)
netsim.multi_rayleigh_prediction(state, cfg, tx, rx)
out = {str(tmp_path)!r}
codes = [cli.main(["pattern", "--pattern", "esnla:4", "--rows", "16", "--out", out + "/p.csv"]),
         cli.main(["scan", "--family", "esnla", "--n-list", "2,4,6", "--samples", "1000",
                   "--out", out + "/s.csv"]),
         cli.main(["fit", "--in", out + "/s.csv", "--out", out + "/f.csv"])]
print(json.dumps([codes, loaded("scipy")]))
""")
    assert codes == [0, 0, 0]
    assert scipy_modules == []


def test_analytic_json(capsys):
    assert main(["analytic", "--sir0", "10", "--alpha", "4", "--n", "10000",
                 "--wb", "0.01", "--objective", "transport", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["delta"] == pytest.approx(0.778, abs=5e-4)
    assert rep["c1"] == pytest.approx(9.935, abs=5e-4)
    assert rep["f_alpha"] == pytest.approx(math.pi / 2)
    assert rep["r"] == pytest.approx(0.05028, abs=5e-5)


def test_analytic_divergent_fade(capsys):
    assert main(["analytic", "--alpha", "2", "--wb", "0.5", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["f_alpha"] == "divergent"


def test_analytic_undefined_bracket_at_small_n(capsys):
    # At n = 10 the defaults pick p_t = 1/2, r = sqrt(ln n / n), so c1 p_t r^2 W_B = 1.144.
    assert main(["analytic", "--n", "10", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["total_throughput_bracket"] is None
    assert rep["p_t"] == 0.5
    assert main(["analytic", "--n", "10"]) == 0
    out = capsys.readouterr().out
    assert "total_throughput_bracket: undefined (c1*p_t*r^2*W_B = 1.144 >= 1)" in out


@pytest.mark.parametrize(
    "cmd,message",
    [
        (["reproduce", "fig6", "--n-list", "2,4"], "--n-list needs at least 3 N"),
        (["reproduce", "tableC", "--n-list", "0,2,5"], "sweep N values must be"),
        (["scan", "--family", "omni", "--n-list=0,2,5"], "sweep N values must be"),
        (["scan", "--family", "omni", "--n-list=-3,2,5"], "sweep N values must be"),
        (["scan", "--family", "esnla", "--n-list=2,6,4"], "sweep N values must be"),
        (["scan", "--family", "omni", "--n-list=2,x"], "bad --n-list '2,x'"),
    ],
    ids=["reproduce-two", "reproduce-zero", "scan-zero", "scan-negative", "scan-unsorted",
         "scan-not-integer"],
)
def test_bad_n_list_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch, cmd, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a W_B sweep cell ran")

    monkeypatch.setattr("beamnet.scaling.effective_beam_widths", no_sweep)
    monkeypatch.chdir(tmp_path)
    assert main(cmd + ["--samples", "1000"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_fit_rejects_n_below_one(tmp_path, capfd):
    """A sweep CSV with an N = 0 row is a usage error that names N, before any
    log-log fit (whose SVD would fail on lg 0 = -inf)."""
    src = tmp_path / "sweep.csv"
    src.write_text("family,alpha_star,d_ratio,N,W_B,stderr\n"
                   + "".join(f"omni,2,0.5,{n},1,0\n" for n in (0, 2, 5)))
    assert main(["fit", "--in", str(src), "--out", str(tmp_path / "fit.csv")]) == 2
    assert capfd.readouterr().err == ("error: sweep N values must be strictly increasing "
                                      "integers >= 1, got [0, 2, 5]\n")
    assert not (tmp_path / "fit.csv").exists()


def test_fit_bytes_do_not_depend_on_where_the_sweep_lies(tmp_path):
    """The header records the experiment, not the input file's path."""
    outs = []
    for sub in ("a", "b/c"):
        (tmp_path / sub).mkdir(parents=True)
        write_sweep(tmp_path / sub / "sweep.csv", "esnla", (0.5, 0.3, 0.2))
        outs.append(tmp_path / sub / "fit.csv")
        assert main(["fit", "--in", str(tmp_path / sub / "sweep.csv"), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "infile" not in outs[0].read_text().splitlines()[0]


def test_reproduce_smoke(tmp_path, capsys):
    code = main(["reproduce", "tableC", "--samples", "20000", "--n-list", "2,4,6",
                 "--out", str(tmp_path)])
    assert (tmp_path / "tableC_sweep.csv").exists()
    assert (tmp_path / "tableC_fit.csv").exists()
    text = capsys.readouterr().out
    assert "reproduce tableC" in text
    assert code == (0 if "reproduce tableC: PASS" in text else 1)


def test_reproduce_deterministic_bytes(tmp_path, capsys):
    args = ["reproduce", "fig4", "--samples", "5000", "--n-list", "2,4,6"]
    for out in ("a", "b"):
        code = main(args + ["--out", str(tmp_path / out)])
        assert code == (0 if "reproduce fig4: PASS" in capsys.readouterr().out else 1)
    a = (tmp_path / "a" / "fig4_sweep.csv").read_bytes()
    b = (tmp_path / "b" / "fig4_sweep.csv").read_bytes()
    assert a == b


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 12345\nseed = 9\n")
    out = tmp_path / "s.csv"
    assert main(["scan", "--family", "omni", "--n-list", "2,4", "--config", str(cfg),
                 "--seed", "4", "--out", str(out)]) == 0
    resolved = out.read_text().splitlines()[0].split()
    assert "samples=12345" in resolved  # config file applied
    assert "seed=4" in resolved  # explicit flag wins


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_factor = 9\n")
    code = main(["ebw", "--pattern", "omni", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "warp_factor" in capsys.readouterr().err


def test_threads_flag_identical_output(tmp_path):
    base = ["scan", "--family", "esnla", "--n-list", "2,4,6,8", "--samples", "200000",
            "--seed", "6"]
    a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(base + ["--threads", "1", "--out", str(a)]) == 0
    assert main(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def write_sweep(path, family, w_bs):
    path.write_text("family,alpha_star,d_ratio,N,W_B,stderr\n" + "".join(
        f"{family},2,0.5,{n},{w},0\n" for n, w in zip((2, 4, 8), w_bs)))


def test_config_file_cannot_override_explicit_dest_flag(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep(a, "esnla", (0.5, 0.3, 0.2))
    write_sweep(b, "binomial", (0.6, 0.5, 0.4))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"infile = {b}\n")
    out = tmp_path / "f.csv"
    assert main(["fit", "--in", str(a), "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert [r[0] for r in rows] == ["esnla"]


def test_config_file_values_take_the_option_type(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 1e4\n")
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--family", "omni", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing_csv", "missing_config", "empty_csv", "no_sweep_columns"])
def test_bad_input_file_is_usage_error(tmp_path, capsys, case):
    csv_path = tmp_path / "in.csv"
    args = ["fit", "--in", str(csv_path), "--out", str(tmp_path / "f.csv")]
    if case == "missing_config":
        write_sweep(csv_path, "esnla", (0.5, 0.3, 0.2))
        args += ["--config", str(tmp_path / "missing.cfg")]
    elif case == "empty_csv":
        csv_path.write_text("")
    elif case == "no_sweep_columns":
        csv_path.write_text("x,y\n1,2\n")
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_pattern_creates_output_directory(tmp_path):
    out = tmp_path / "newdir" / "p.csv"
    assert main(["pattern", "--pattern", "omni", "--rows", "8", "--out", str(out)]) == 0
    assert len(read_rows(out)[1]) == 8
