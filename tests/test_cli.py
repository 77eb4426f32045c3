import csv
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockadesim
from blockadesim.cli import (SWEEP_COLUMNS, default_config_path, derive_device, main,
                             system_params_from_config)
from blockadesim.config import ConfigError, load_config, parse_run_config

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def default_cfg():
    return load_config(default_config_path())


def write_cfg(tmp_path, text):
    path = tmp_path / "test.cfg"
    path.write_text(text)
    return path


MINIMAL = """
[device]
L = 1.09 nH
L_s0 = 81 pH
omega_a = 5.878 GHz_over_2pi
flux_ratio = 0.4227 dimensionless
B_row1 = 14.2e-3 -52.0e-3 0.8e-3 3.9e-3 dimensionless
B_row2 = -0.8e-3 -3.4e-3 -14.2e-3 54.0e-3 dimensionless
kappa_a = 10.35 MHz_over_2pi
kappa_b = 7 MHz_over_2pi
n_th_port1 = 1.5e-2 dimensionless
n_th_port2 = 6.5e-4 dimensionless

[system]
J = 25.1 MHz_over_2pi
U = 0.25 MHz_over_2pi
eta_a = 15 MHz_over_2pi
"""


def test_cli_import_skips_scipy_signal():
    # scipy.signal costs about half a second of import; the CLI must not pull it in
    src = str(Path(blockadesim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, blockadesim.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# --- config parsing ---

def test_parse_units():
    # a key the parser no longer reads (delta_f) is ignored with a warning
    for text in (MINIMAL, MINIMAL + "\n[measurement]\ndelta_f = 24 MHz\n"):
        cfg = parse_run_config(text)
        assert cfg.system.J == pytest.approx(TWO_PI * 25.1e6)
        assert cfg.device.L == pytest.approx(1.09e-9)
        assert cfg.device.L_s0 == pytest.approx(81e-12)
        assert cfg.device.kappa_b == pytest.approx(TWO_PI * 7e6)


def test_unknown_key_warns_with_line_and_key(caplog):
    text = MINIMAL + "\n[sweep]\ncutof = 6 count\n"
    line = text.splitlines().index("cutof = 6 count") + 1
    with caplog.at_level(logging.WARNING, logger="blockadesim.config"):
        cfg = parse_run_config(text, "typo.cfg")
    assert cfg.sweep.cutoff == 4
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert f"typo.cfg line {line}: [sweep] cutof" in record.getMessage()


def test_default_config_loads_without_warnings(caplog):
    with caplog.at_level(logging.DEBUG):
        load_config(default_config_path())
    assert not caplog.records


def test_missing_unit_reports_line_number():
    bad = MINIMAL.replace("J = 25.1 MHz_over_2pi", "J = 25.1")
    with pytest.raises(ConfigError, match="unit"):
        parse_run_config(bad)


def test_wrong_dimension_reports_line_number():
    bad = MINIMAL.replace("L = 1.09 nH", "L = 1.09 MHz_over_2pi")
    with pytest.raises(ConfigError, match=r"line 3.*inductance"):
        parse_run_config(bad, "<config>")


def test_key_outside_section():
    with pytest.raises(ConfigError, match="line 1"):
        parse_run_config("J = 1 MHz_over_2pi\n")


@pytest.mark.parametrize("old, new", [
    ("B_row1 = 14.2e-3 -52.0e-3 0.8e-3 3.9e-3 dimensionless",
     "B_row1 = 14.2e-3 -52.0e-3 0.8e-3 dimensionless"),
    ("flux_ratio = 0.4227 dimensionless",
     "flux_ratio = 0.4227 dimensionless\nflux_grid = 0.0 0.47 dimensionless"),
    ("J = 25.1 MHz_over_2pi", "J = 25.1 26 MHz_over_2pi"),
], ids=["B_row1", "flux_grid", "J"])
def test_value_count_is_checked(old, new):
    bad = MINIMAL.replace(old, new)
    bad_line = new.splitlines()[-1]
    lineno = bad.splitlines().index(bad_line) + 1
    key = bad_line.split(" =")[0]
    with pytest.raises(ConfigError, match=rf"bad\.cfg line {lineno}: \[\w+\] {key} needs"):
        parse_run_config(bad, "bad.cfg")


@pytest.mark.parametrize("text, expected", [
    ("yes", True), ("No", False), ("TRUE", True), ("false", False), ("1", True), ("0", False),
    ("on", None), ("Y", None), ("enabled", None),
])
def test_simplify_B_accepts_only_yes_no_spellings(text, expected):
    good = MINIMAL.replace("kappa_a =", f"simplify_B = {text}\nkappa_a =")
    if expected is None:
        lineno = good.splitlines().index(f"simplify_B = {text}") + 1
        with pytest.raises(ConfigError, match=rf"bad\.cfg line {lineno}: .*simplify_B"):
            parse_run_config(good, "bad.cfg")
    else:
        assert parse_run_config(good).device.simplify_B is expected


def test_repeated_key_names_both_lines():
    bad = MINIMAL + "J = 26 MHz_over_2pi\n"
    lines = bad.splitlines()
    first, second = lines.index("J = 25.1 MHz_over_2pi") + 1, len(lines)
    with pytest.raises(ConfigError, match=rf"bad\.cfg line {second}: \[system\] J .* line {first}"):
        parse_run_config(bad, "bad.cfg")


def test_chain_parsing(default_cfg):
    chain = default_cfg.device.port_chains[1]
    assert len(chain.stages) == 3
    assert chain.stages[0][0] == pytest.approx(10 ** (-2.0))
    assert chain.stages[0][1] == pytest.approx(4.0)
    assert chain.stages[2][1] == pytest.approx(0.01)
    assert chain.source_population == pytest.approx(1063.0, rel=1e-3)


def test_eta_from_dbm(tmp_path):
    cfg_dbm = parse_run_config(MINIMAL.replace("eta_a = 15 MHz_over_2pi",
                                               "eta_a = -107 dBm"))
    # |eta|^2 = gamma_1 * P / (hbar * omega_0)
    gamma1 = TWO_PI * 0.5926e6
    flux = 1e-3 * 10 ** (-10.7) / (1.054571817e-34 * TWO_PI * 5.878e9)
    assert cfg_dbm.system.eta_a == pytest.approx(math.sqrt(gamma1 * flux), rel=1e-3)


def test_default_config_derivation(default_cfg):
    derived = derive_device(default_cfg)
    assert derived["U_rad_per_s"] == pytest.approx(TWO_PI * 0.25e6, rel=0.05)
    assert derived["n_th_a"] == pytest.approx(1.4e-3, rel=0.03)
    p = system_params_from_config(default_cfg)
    assert p.kappa_a == pytest.approx(TWO_PI * 10.35e6)


# --- commands ---

def test_cmd_device_outputs(tmp_path):
    rc = main(["device", "--out", str(tmp_path)])
    assert rc == 0
    derived = json.loads((tmp_path / "device_parameters.json").read_text())
    assert derived["U_rad_per_s"] == pytest.approx(TWO_PI * 0.25e6, rel=0.05)
    rows = list(csv.DictReader(open(tmp_path / "flux_sweep.csv")))
    splits = [float(r["omega_upper_Hz"]) - float(r["omega_lower_Hz"]) for r in rows]
    two_J_hz = 2 * 25.1e6
    assert min(splits) == pytest.approx(two_J_hz, rel=0.005)
    manifest = json.loads((tmp_path / "device_manifest.json").read_text())
    assert manifest["command"] == "device"


def test_cmd_exit_code_on_config_error(tmp_path, capsys):
    bad = write_cfg(tmp_path, MINIMAL.replace("J = 25.1 MHz_over_2pi", "J = 25.1"))
    rc = main(["device", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "unit" in err


def test_cmd_g2_sweep_empty_grid(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + "\n[sweep]\ndelta_a_points = 0 count\n")
    rc = main(["g2-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    with open(tmp_path / "out" / "g2_sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(SWEEP_COLUMNS)]


def test_cmd_g2_sweep_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + """
[sweep]
delta_a_start = -6 MHz_over_2pi
delta_a_stop = 6 MHz_over_2pi
delta_a_points = 7 count
""")
    out = tmp_path / "out"
    rc = main(["g2-sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "g2_sweep.csv")))
    assert len(rows) == 7
    # serialized floats parse back to the exact binary values (repr roundtrip)
    for row in rows:
        n_tot = float(row["n_tot"])
        alpha = complex(float(row["alpha_re"]), float(row["alpha_im"]))
        n = float(row["n"])
        assert n_tot == pytest.approx(abs(alpha) ** 2 + n, abs=1e-12)
        assert row["status"] == "ok"



def test_cmd_g2_sweep_survives_one_bad_point(tmp_path, fail_steady_state_on_call):
    cfg = write_cfg(tmp_path, MINIMAL + """
[sweep]
delta_a_start = -6 MHz_over_2pi
delta_a_stop = 6 MHz_over_2pi
delta_a_points = 5 count
""")
    fail_steady_state_on_call(2)
    out = tmp_path / "out"
    assert main(["g2-sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    rows = list(csv.DictReader(open(out / "g2_sweep.csv")))
    assert [r["status"] for r in rows] == ["ok", "failed", "ok", "ok", "ok"]
    assert "forced invalid density matrix" in rows[1]["warnings"]

def test_cmd_g2_sweep_deterministic_and_matches_api(tmp_path):
    cfg_text = MINIMAL + """
[sweep]
delta_a_start = -3 MHz_over_2pi
delta_a_stop = 3 MHz_over_2pi
delta_a_points = 5 count
"""
    cfg = write_cfg(tmp_path, cfg_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["g2-sweep", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["g2-sweep", "--config", str(cfg), "--out", str(out2), "--workers", "1"]) == 0
    assert (out1 / "g2_sweep.csv").read_bytes() == (out2 / "g2_sweep.csv").read_bytes()

    from blockadesim.sweep import sweep_detuning
    run_cfg = load_config(cfg)
    grid = np.linspace(run_cfg.sweep.delta_a_start, run_cfg.sweep.delta_a_stop, 5)
    records = sweep_detuning(system_params_from_config(run_cfg), grid)
    rows = list(csv.DictReader(open(out1 / "g2_sweep.csv")))
    for rec, row in zip(records, rows):
        assert float(row["g2"]) == rec.g2
        assert float(row["n_tot"]) == rec.n_tot


def test_cmd_g2_tau_period(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + """
[sweep]
tau_stop = 200 ns
tau_points = 401 count
g2tau_detunings = 0 MHz_over_2pi
g2tau_eta = 30 MHz_over_2pi
""")
    out = tmp_path / "out"
    rc = main(["g2-tau", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "g2_tau_manifest.json").read_text())
    (period,) = manifest["dominant_period_s"].values()
    assert period == pytest.approx(TWO_PI / (TWO_PI * 25.1e6), rel=0.05)


def test_cmd_measure_demo_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["measure-demo", "--packet-size", "20000", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    r1 = (out1 / "measure_demo_report.json").read_bytes()
    r2 = (out2 / "measure_demo_report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert abs(report["pulls"]["g2"]) < 5


@pytest.mark.parametrize("value", ["0", "-5"])
def test_packet_size_override_must_be_positive(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["measure-demo", "--packet-size", value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--packet-size" in capsys.readouterr().err


def test_cmd_measure_demo_pipeline_failure_exit_code(tmp_path, capsys):
    # unphysical truth covariance is rejected by the synthesizer -> exit 3
    cfg = write_cfg(tmp_path, MINIMAL + """
[measurement]
truth_n = -20 dimensionless
packet_size = 1000 count
""")
    rc = main(["measure-demo", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "pipeline failure" in capsys.readouterr().err


def test_cmd_measure_demo_warns_small_packet_count(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + """
[measurement]
n_packets = 10 count
packet_size = 5000 count
""")
    out = tmp_path / "out"
    rc = main(["measure-demo", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    assert rc == 0
    report = json.loads((out / "measure_demo_report.json").read_text())
    assert any("non-Gaussian" in w for w in report["warnings"])


def test_cmd_map_small(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + """
[sweep]
delta_a_start = -2 MHz_over_2pi
delta_a_stop = 2 MHz_over_2pi
delta_a_points = 3 count
delta_diff_start = -1 MHz_over_2pi
delta_diff_stop = 1 MHz_over_2pi
delta_diff_points = 3 count
""")
    out = tmp_path / "out"
    rc = main(["map", "--config", str(cfg), "--out", str(out), "--workers", "1"])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "map2d.csv")))
    assert len(rows) == 9
    deltas = {(float(r["delta_a_rad_per_s"]), float(r["delta_diff_rad_per_s"]))
              for r in rows}
    assert len(deltas) == 9


def test_cmd_envelope_small(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + """
[sweep]
eta_values = 16 MHz_over_2pi
""")
    out = tmp_path / "out"
    rc = main(["envelope", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "envelope.csv")))
    assert len(rows) == 1
    assert float(rows[0]["g2_min"]) < 1.0


def test_cmd_envelope_requires_etas(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    rc = main(["envelope", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_cmd_envelope_blockade_condition(tmp_path):
    # symmetric lossless-thermal device at the interference-blockade Kerr value
    cfg = write_cfg(tmp_path, """
[device]
L = 1.09 nH
L_s0 = 81 pH
omega_a = 5.878 GHz_over_2pi
flux_ratio = 0.4227 dimensionless
B_row1 = 13.15e-3 0 0 0 dimensionless
B_row2 = 0 0 0 13.15e-3 dimensionless
kappa_a = 8 MHz_over_2pi
kappa_b = 8 MHz_over_2pi

[system]
J = 25 MHz_over_2pi
U = 0.3153 MHz_over_2pi
eta_a = 0.05 MHz_over_2pi

[sweep]
eta_values = 0.05 MHz_over_2pi
""")
    out = tmp_path / "out"
    rc = main(["envelope", "--config", str(cfg), "--out", str(out), "--workers", "1"])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "envelope.csv")))
    assert float(rows[0]["g2_min"]) < 0.05
