import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamnet
from beamnet.cli import main
from beamnet.ebw import BasisDistribution, MixtureDistribution, exact_beam_width
from beamnet.patterns import esnla, sector


def read_rows(path):
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def test_pattern_csv(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = main(["pattern", "--family", "esnla", "--n", "4", "--d", "0.5",
                 "--alpha", "4", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["theta_rad", "gain", "gain_starred"]
    assert len(rows) == 1 << 12
    assert max(float(r[1]) for r in rows) == 1.0
    first = out.read_text().splitlines()[0]
    assert first.startswith("# beamnet")


def test_pattern_omni_constant(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["pattern", "--family", "omni", "--rows", "64", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert all(float(r[1]) == 1.0 for r in rows)


def test_unknown_family_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["pattern", "--family", "helix", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_ebw_single_row_and_determinism(tmp_path):
    args = ["ebw", "--family", "esnla", "--n", "4", "--d", "0.5", "--alpha", "4",
            "--h", "2"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_rows(out1)
    assert header == ["pattern_id", "alpha", "h_or_mixture", "W_B"]
    assert len(rows) == 1
    assert rows[0][0] == "esnla(4,0.5)"
    assert 0.0 < float(rows[0][3]) < 1.0


def test_ebw_mixture_flag(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["ebw", "--family", "sector", "--beam-fraction", "0.25",
                 "--mixture", "0.5:1,0.5:4", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0][2] == "0.5*h1+0.5*h4"
    assert float(rows[0][3]) == 0.25


@pytest.mark.parametrize(
    "flags,pattern,dist",
    [
        (["--family", "esnla", "--n", "4", "--h", "2"], esnla(4, 0.5), BasisDistribution(2.0)),
        (["--family", "sector", "--beam-fraction", "0.3", "--mixture", "0.25:1,0.75:3"],
         sector(0.3), MixtureDistribution((0.25, 0.75), (1.0, 3.0))),
    ],
    ids=["esnla-h2", "sector-mixture"],
)
def test_ebw_reports_exact_beam_width(tmp_path, capsys, flags, pattern, dist):
    want = f"{exact_beam_width(pattern, dist, 4.0):.12g}"
    out = tmp_path / "e.csv"
    assert main(["ebw", *flags, "--alpha", "4", "--out", str(out)]) == 0
    assert f"W_B = {want}\n" in capsys.readouterr().out
    assert read_rows(out)[1][0][3] == want
    assert "seed" not in out.read_text().splitlines()[0]


@pytest.mark.parametrize("cmd", [["ebw", "--family", "omni"], ["pattern", "--family", "omni"],
                                 ["fit", "--in", "s.csv"], ["analytic"]])
@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_deterministic_commands_take_no_seed_or_threads(tmp_path, capsys, cmd, flag):
    # Only scan, reproduce and netsim draw random numbers or run in parallel.
    with pytest.raises(SystemExit) as exc:
        main(cmd + [flag, "1", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0.5:1,0.5", "0.5", "0.5:1:2", "0.5:1,,0.5:2", "a:1"])
def test_ebw_bad_mixture_part_is_named(tmp_path, capsys, spec):
    out = tmp_path / "x.csv"
    assert main(["ebw", "--family", "esnla", "--mixture", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad mixture part") and "expected w:h" in err
    assert not out.exists()


def test_scan_fit_roundtrip(tmp_path):
    sweep_csv = tmp_path / "s.csv"
    fit_csv = tmp_path / "f.csv"
    assert main(["scan", "--family", "esnla", "--alpha-star", "2", "--n-list", "2,4,6,8",
                 "--samples", "100000", "--seed", "5", "--out", str(sweep_csv)]) == 0
    header, rows = read_rows(sweep_csv)
    assert header == ["family", "alpha_star", "d_ratio", "N", "W_B", "stderr"]
    assert [int(r[3]) for r in rows] == [2, 4, 6, 8]
    assert main(["fit", "--in", str(sweep_csv), "--out", str(fit_csv)]) == 0
    fit_header, fit_rows = read_rows(fit_csv)
    assert fit_header == ["family", "alpha_star", "d_ratio", "b1", "gamma", "r2"]
    gamma = float(fit_rows[0][4])
    assert 0.3 < gamma < 1.2


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
        (["ebw", "--family", "esnla", "--mixture", "nan:2"], "weights"),
        (["ebw", "--family", "esnla", "--mixture", "1:inf"], "orders"),
        (["ebw", "--family", "esnla", "--h", "inf"], "order"),
    ],
    ids=["netsim-sir0-inf", "netsim-sir0-nan", "analytic-sir0-inf", "ebw-nan-weight",
         "ebw-inf-order", "ebw-inf-h"],
)
def test_non_finite_sir0_and_distribution_are_usage_errors(tmp_path, capsys, cmd, message):
    assert main(cmd + ["--out", str(tmp_path / "x.csv")]) == 2
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
        (["ebw", "--family", "esnla", "--alpha", "nan"], "alpha"),
        (["netsim", "--n", "80", "--r", "0.15", "--pt", "0.2", "--alpha", "nan"], "alpha"),
        (["analytic", "--alpha", "nan"], "alpha"),
        (["pattern", "--family", "omni", "--rows", "8", "--alpha", "nan"], "alpha"),
        (["scan", "--family", "esnla", "--n-list", "2", "--alpha-star", "nan"], "alpha_star"),
        (["ebw", "--family", "omni", "--alpha", "inf"], "alpha"),
        (["scan", "--family", "esnla", "--n-list", "2", "--alpha-star", "inf"], "alpha_star"),
    ],
    ids=["ebw", "netsim", "analytic", "pattern", "scan", "ebw-inf", "scan-inf"],
)
def test_non_finite_path_loss_exponent_is_usage_error(tmp_path, capsys, cmd, option):
    assert main(cmd + ["--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} must be finite")
    assert not (tmp_path / "x.csv").exists()


def test_import_leaves_scipy_signal_and_stats_unloaded():
    # `import beamnet` is most of every command's start-up time; keep it to the SciPy it
    # uses.  scipy.optimize and scipy.spatial bring in the rest of this set; scipy.signal,
    # scipy.stats and scipy.integrate, among others, stay out.
    src = str(Path(beamnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, beamnet; "
             "print(' '.join(sorted(m[6:] for m, mod in list(sys.modules.items()) "
             "if m.startswith('scipy.') and m.count('.') == 1 and not m[6:].startswith('_') "
             "and hasattr(mod, '__path__'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    loaded = set(out.stdout.split())
    assert "optimize" in loaded
    assert loaded <= {"constants", "fft", "linalg", "optimize", "sparse", "spatial", "special"}


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


def test_emit_plot_script(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["pattern", "--family", "omni", "--rows", "32", "--out", str(out),
                 "--emit-plot"]) == 0
    script = tmp_path / "p_plot.py"
    assert script.exists()
    assert "matplotlib" in script.read_text()
    compile(script.read_text(), str(script), "exec")


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
    code = main(["ebw", "--family", "omni", "--config", str(cfg),
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
    assert main(["pattern", "--family", "omni", "--rows", "8", "--out", str(out)]) == 0
    assert len(read_rows(out)[1]) == 8
