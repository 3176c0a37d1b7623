import csv
import json
import math

import pytest

from beamnet.cli import main


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
            "--h", "2", "--samples", "20000", "--seed", "3"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_rows(out1)
    assert header == ["pattern_id", "alpha", "h_or_mixture", "W_B", "stderr", "samples", "seed"]
    assert len(rows) == 1
    assert rows[0][0] == "esnla(4,0.5)"
    assert 0.0 < float(rows[0][3]) < 1.0


def test_ebw_mixture_flag(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["ebw", "--family", "sector", "--beam-fraction", "0.25",
                 "--mixture", "0.5:1,0.5:4", "--samples", "20000", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0][2] == "0.5*h1+0.5*h4"
    assert float(rows[0][3]) == pytest.approx(0.25, abs=0.02)


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
                 "--slots", "40", "--wb-samples", "20000", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header[:4] == ["eta_tt", "eta_tt_stderr", "eta_tr", "eta_tr_stderr"]
    bins_header, bins_rows = read_rows(tmp_path / "net_bins.csv")
    assert bins_header == ["bin_lo", "bin_hi", "links", "successes", "p_emp", "bound_lo", "bound_hi"]
    assert len(bins_rows) == 16


def test_netsim_precondition_exit_code(tmp_path, capsys):
    code = main(["netsim", "--n", "80", "--r", "0.15", "--pt", "0.2",
                 "--sir0", "0.5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "SIR0" in capsys.readouterr().err


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
    out = tmp_path / "e.csv"
    assert main(["ebw", "--family", "omni", "--config", str(cfg), "--seed", "4",
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0][5] == "12345"  # config file applied
    assert rows[0][6] == "4"  # explicit flag wins


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_factor = 9\n")
    code = main(["ebw", "--family", "omni", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "warp_factor" in capsys.readouterr().err


def test_threads_flag_identical_output(tmp_path):
    base = ["ebw", "--family", "esnla", "--n", "4", "--samples", "3000000", "--seed", "6"]
    a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(base + ["--threads", "1", "--out", str(a)]) == 0
    assert main(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
