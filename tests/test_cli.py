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
from blockadesim import blas
from blockadesim.cli import (SWEEP_COLUMNS, build_parser, default_config_path, derive_device,
                             main, system_params_from_config)
from blockadesim.config import FLUX_GRID_MAX_POINTS, ConfigError, load_config, parse_run_config
from blockadesim.lindblad import SteadyStateError

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


def _loaded_at_setup(module: str) -> bool:
    """Whether a fresh interpreter that imports ``blockadesim.cli`` and
    ``blockadesim.sweep`` and loads the packaged config has loaded the module."""
    src = str(Path(blockadesim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, blockadesim.cli, blockadesim.sweep\n"
            "blockadesim.cli.load_config(blockadesim.cli.default_config_path())\n"
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip() == "True"


def test_cli_import_skips_scipy_signal():
    # scipy.signal costs about half a second of import; the CLI must not pull it in
    assert not _loaded_at_setup("scipy.signal")


def test_cli_import_skips_scipy_optimize():
    # the envelope's BFGS is numpy; scipy.optimize adds 0.14-0.17 s to a setup of about 0.4 s
    assert not _loaded_at_setup("scipy.optimize")


def test_cli_import_skips_scipy_sparse_linalg():
    # GMRES is lindblad's own; scipy.sparse.linalg loads 35 more scipy modules
    # (153 against 118) and adds 9-15 ms to the import (median 9.5 ms of 9)
    assert not _loaded_at_setup("scipy.sparse.linalg")


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


def test_eta_from_dbm_uses_the_unsimplified_coupling():
    text = MINIMAL.replace("kappa_a =", "simplify_B = no\nkappa_a =")
    cfg = parse_run_config(text.replace("eta_a = 15 MHz_over_2pi", "eta_a = -107 dBm"))
    gamma1 = derive_device(cfg)["gamma_rad_per_s"][0]
    # port 1 keeps its -0.8e-3 mode-b entry, which simplify_B = yes would zero
    omega_0 = TWO_PI * 5.878e9
    assert gamma1 == pytest.approx(0.5 * omega_0 * (14.2e-3**2 + 0.8e-3**2), rel=1e-12)
    power = 1e-3 * 10 ** (-10.7)
    assert cfg.system.eta_a == pytest.approx(
        math.sqrt(gamma1 * power / (1.054571817e-34 * omega_0)), rel=1e-12)


def test_default_config_derivation(default_cfg):
    derived = derive_device(default_cfg)
    assert derived["U_rad_per_s"] == pytest.approx(TWO_PI * 0.25e6, rel=0.05)
    assert derived["n_th_a"] == pytest.approx(1.4e-3, rel=0.03)
    p = system_params_from_config(default_cfg, derived)
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


def test_kappa_a_below_port_rates_is_a_config_error(tmp_path, capsys):
    bad = write_cfg(tmp_path, MINIMAL.replace("kappa_a = 10.35", "kappa_a = 5"))
    rc = main(["device", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "kappa_a" in err



def test_device_config_error_stops_measure_demo_before_it_runs(tmp_path, capsys):
    # was exit 2 only after the synthetic experiment had written its report
    bad = write_cfg(tmp_path, MINIMAL.replace("kappa_a = 10.35", "kappa_a = 5")
                    + "\n[measurement]\npacket_size = 20000 count\n")
    out = tmp_path / "out"
    rc = main(["measure-demo", "--config", str(bad), "--out", str(out), "--workers", "1",
               "--seed", "7"])
    assert rc == 2
    assert "kappa_a" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_mode_b_without_a_coupled_port_is_a_config_error(tmp_path, capsys):
    bad = write_cfg(tmp_path, MINIMAL.replace(" 0.8e-3 3.9e-3 ", " 0 0 ")
                    .replace(" -14.2e-3 54.0e-3 ", " 0 0 "))
    rc = main(["device", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "mode b has no coupled port" in err


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
    records = sweep_detuning(system_params_from_config(run_cfg, derive_device(run_cfg)), grid)
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


def test_cmd_g2_tau_fails_per_detuning(tmp_path, caplog, fail_steady_state_on_call):
    cfg = write_cfg(tmp_path, MINIMAL + """
[sweep]
tau_stop = 100 ns
tau_points = 11 count
g2tau_detunings = 0 2 4 MHz_over_2pi
g2tau_eta = 30 MHz_over_2pi
""")
    fail_steady_state_on_call(2)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="blockadesim.cli"):
        assert main(["g2-tau", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    rows = list(csv.DictReader(open(out / "g2_tau.csv")))
    assert len(rows) == 33
    bad = 2 * TWO_PI * 1e6
    for row in rows:
        values = [float(row[c]) for c in ("g2", "n_tau_re", "n_tau_im", "s_tau_re", "s_tau_im")]
        failed = float(row["delta_a_rad_per_s"]) == pytest.approx(bad)
        assert all(map(math.isnan, values)) if failed else all(map(math.isfinite, values))
        assert math.isfinite(float(row["tau_s"]))
    manifest = json.loads((out / "g2_tau_manifest.json").read_text())
    (key,) = manifest["failed_detunings"]
    assert float(key) == pytest.approx(bad)
    assert "forced invalid density matrix" in manifest["failed_detunings"][key]
    assert len(manifest["dominant_period_s"]) == 2
    (record,) = [r for r in caplog.records if r.message.startswith("g2-tau")]
    assert record.levelno == logging.WARNING and "forced invalid density matrix" in record.message


def test_cmd_g2_tau_exits_3_when_every_detuning_fails(tmp_path, monkeypatch):
    import blockadesim.sweep as sweep_mod

    def boom(p, cutoffs=(4, 4)):
        raise SteadyStateError("forced failure")

    monkeypatch.setattr(sweep_mod, "displaced_solution", boom)
    cfg = write_cfg(tmp_path, MINIMAL + "\n[sweep]\ng2tau_detunings = 0 2 MHz_over_2pi\n")
    out = tmp_path / "out"
    assert main(["g2-tau", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 3
    rows = list(csv.DictReader(open(out / "g2_tau.csv")))
    assert rows and all(math.isnan(float(row["g2"])) for row in rows)


@pytest.mark.parametrize("command,data", [
    ("g2-sweep", "g2_sweep.csv"), ("map", "map2d.csv"), ("envelope", "envelope.csv"),
    ("g2-tau", "g2_tau.csv"),
])
def test_a_tiny_finite_kerr_gives_flagged_rows(tmp_path, command, data):
    # U = 1e-165 MHz loads, but the mean-field cubic's coefficients overflow:
    # every point fails its drift residual check and no OverflowError escapes
    text = SMALL_RUN.replace("U = 0.25 MHz_over_2pi", "U = 1e-165 MHz_over_2pi")
    assert text != SMALL_RUN
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 3
    rows = list(csv.DictReader(open(out / data)))
    assert rows
    for row in rows:
        if command == "envelope":
            assert row["warnings"] == "no valid coarse-grid point"
        elif command == "g2-tau":
            assert math.isnan(float(row["g2"]))
        else:
            assert row["status"] == "failed"
            assert row["warnings"].startswith("mean-field drift residual nan")
    if command == "g2-tau":
        manifest = json.loads((out / "g2_tau_manifest.json").read_text())
        assert all(reason.startswith("mean-field drift residual nan")
                   for reason in manifest["failed_detunings"].values())


@pytest.mark.parametrize("command,data", [
    ("g2-sweep", "g2_sweep.csv"), ("map", "map2d.csv"), ("envelope", "envelope.csv"),
])
def test_sweep_command_exits_3_when_every_unit_fails(tmp_path, fail_steady_state_on_call,
                                                    command, data):
    fail_steady_state_on_call(None)
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 3
    rows = list(csv.DictReader(open(out / data)))
    assert rows
    for row in rows:
        if command == "envelope":
            # the linearized seed needs no solve, so the chain's first one fails
            assert math.isnan(float(row["g2_min"]))
            assert row["warnings"].split(";") == [
                "optimizer stagnation: The objective is not finite at the start.",
                "forced invalid density matrix"]
        else:
            assert row["status"] == "failed" and math.isnan(float(row["g2"]))
    manifest = json.loads((out / f"{command.replace('-', '_')}_manifest.json").read_text())
    assert manifest["outputs"] == [str(out / data)]


def test_cmd_g2_tau_above_the_dense_threshold(tmp_path):
    # cutoff 9 (joint dimension 81) is solved by GMRES; g2-tau exited 3 here
    cfg = write_cfg(tmp_path, MINIMAL + """
[sweep]
tau_stop = 100 ns
tau_points = 21 count
g2tau_detunings = 0 MHz_over_2pi
g2tau_eta = 30 MHz_over_2pi
cutoff = 9 count
""")
    out = tmp_path / "out"
    assert main(["g2-tau", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    rows = list(csv.DictReader(open(out / "g2_tau.csv")))
    assert len(rows) == 21
    assert all(math.isfinite(float(row["g2"])) for row in rows)


def test_cmd_g2_sweep_pooled_equals_serial_at_a_gmres_size(tmp_path, monkeypatch):
    # cutoff 6 (joint dimension 36) cuts the grid into one-point blocks, each
    # a stacked GMRES solve, so 5 points open a pool
    cfg = write_cfg(tmp_path, MINIMAL + """
[sweep]
delta_a_start = -6 MHz_over_2pi
delta_a_stop = 6 MHz_over_2pi
delta_a_points = 5 count
cutoff = 6 count
""")
    opened, real_pool = [], blas.ProcessPoolExecutor

    def recording_pool(*args, **kwargs):
        opened.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(blas, "ProcessPoolExecutor", recording_pool)
    runs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert main(["g2-sweep", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers)]) == 0
        runs.append((out / "g2_sweep.csv").read_bytes())
    assert len(opened) == 1
    assert runs[0] == runs[1]
    rows = list(csv.DictReader(open(tmp_path / "out1" / "g2_sweep.csv")))
    assert [row["status"] for row in rows] == ["ok"] * 5


def test_cmd_g2_tau_pooled_equals_serial_with_a_failed_detuning(tmp_path, monkeypatch, caplog):
    # fails by detuning value: a forked worker would keep a call counter of its own
    import blockadesim.sweep as sweep_mod

    bad = 2 * TWO_PI * 1e6
    real = sweep_mod.displaced_solution

    def fails_at_bad(p, cutoffs=(4, 4)):
        if p.delta_a == bad:
            raise SteadyStateError("forced failure at 2 MHz")
        return real(p, cutoffs=cutoffs)

    monkeypatch.setattr(sweep_mod, "displaced_solution", fails_at_bad)
    cfg = write_cfg(tmp_path, MINIMAL + """
[sweep]
tau_stop = 100 ns
tau_points = 11 count
g2tau_detunings = 0 2 4 6 MHz_over_2pi
g2tau_eta = 30 MHz_over_2pi
""")
    runs = {}
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="blockadesim.cli"):
            assert main(["g2-tau", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)]) == 0
        (record,) = [r for r in caplog.records if r.message.startswith("g2-tau")]
        assert record.process == os.getpid() and "forced failure" in record.message
        manifest = json.loads((out / "g2_tau_manifest.json").read_text())
        for key in ("timestamp", "outputs", "workers"):
            del manifest[key]
        runs[workers] = (out / "g2_tau.csv").read_bytes(), manifest
    assert runs[1] == runs[2]
    csv_bytes, manifest = runs[2]
    (key,) = manifest["failed_detunings"]
    assert float(key) == pytest.approx(bad)
    assert len(manifest["dominant_period_s"]) == 3
    assert csv_bytes.count(b"nan") == 11 * 5


@pytest.mark.parametrize("source,chain", [
    ("-1 dimensionless", "20 dB @ 4 K | 20 dB @ 10 mK"),
    ("300 K", "-20 dB @ 4 K | 20 dB @ 10 mK"),
    ("300 K", "abc dB @ 4 K"),
    ("300 K", "-4000 dB @ 4 K"),
    ("300 K", "20 dB @ inf K"),
    ("300 K", "20 dB @ nan K"),
], ids=["negative-source", "negative-dB", "dB-not-a-number", "dB-overflow", "inf-K", "nan-K"])
def test_bad_port_chain_is_a_config_error(tmp_path, capsys, source, chain):
    # was a ValueError traceback out of load_config; inf K was a ZeroDivisionError
    # traceback and nan K exit 3
    text = MINIMAL.replace("n_th_port1 = 1.5e-2 dimensionless",
                           f"port1_chain = {chain}\nport1_source = {source}")
    cfg = write_cfg(tmp_path, text)
    lines = text.splitlines()
    chain_line = lines.index(f"port1_chain = {chain}") + 1
    rc = main(["device", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"{cfg} lines {chain_line}, {chain_line + 1}: [device] port1_chain, port1_source"
            in capsys.readouterr().err)


@pytest.mark.parametrize("old,new", [
    ("kappa_b = 7 MHz_over_2pi", "kappa_b = -7 MHz_over_2pi"),
    ("kappa_b = 7 MHz_over_2pi", "kappa_b = 0 MHz_over_2pi"),
    ("n_th_port1 = 1.5e-2 dimensionless", "n_th_port1 = -1.5e-2 dimensionless"),
    ("n_th_port2 = 6.5e-4 dimensionless",
     "n_th_port2 = 6.5e-4 dimensionless\nn_th_box = -1e-3 dimensionless"),
    ("L = 1.09 nH", "L = 0 nH"),
    ("L_s0 = 81 pH", "L_s0 = -81 pH"),
    ("omega_a = 5.878 GHz_over_2pi", "omega_a = -5.878 GHz_over_2pi"),
    ("n_th_port2 = 6.5e-4 dimensionless",
     "n_th_port2 = 6.5e-4 dimensionless\nomega_0 = 0 GHz_over_2pi"),
    ("n_th_port2 = 6.5e-4 dimensionless",
     "n_th_port2 = 6.5e-4 dimensionless\nflux_grid = 0.0 0.47 9.7 dimensionless"),
    ("n_th_port2 = 6.5e-4 dimensionless",
     "n_th_port2 = 6.5e-4 dimensionless\nflux_grid = 0.0 0.47 -5 dimensionless"),
    ("kappa_a = 10.35 MHz_over_2pi", "kappa_a = -10.35 MHz_over_2pi"),
    ("flux_ratio = 0.4227 dimensionless", "flux_ratio = 0.5 dimensionless"),
    ("n_th_port2 = 6.5e-4 dimensionless",
     "n_th_port2 = 6.5e-4 dimensionless\nflux_grid = 0 1 101 dimensionless"),
    ("n_th_port2 = 6.5e-4 dimensionless",
     "n_th_port2 = 6.5e-4 dimensionless\nflux_grid = 0.0 0.47 10001 dimensionless"),
], ids=["negative-kappa_b", "zero-kappa_b", "negative-n_th_port1", "negative-n_th_box",
        "zero-L", "negative-L_s0", "negative-omega_a", "zero-omega_0",
        "fractional-flux-points", "negative-flux-points", "negative-kappa_a",
        "half-integer-flux", "flux-grid-through-half-integer", "flux-points-above-maximum"])
def test_negative_device_input_is_a_config_error(tmp_path, capsys, old, new):
    # was exit 0 from device, which wrote the value, and exit 3 from g2-sweep;
    # L, L_s0, omega_a <= 0 were exit 3, 9.7 flux points ran as 9 and -5 was exit 3;
    # kappa_a <= 0 was exit 2 without a line, a half-integer flux exit 3 and a grid
    # through one exit 3 after device_parameters.json was written
    text = MINIMAL.replace(old, new)
    bad = new.splitlines()[-1]
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index(bad) + 1
    rc = main(["device", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{cfg} line {lineno}: [device] {bad.split(' = ')[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "device_parameters.json").exists()


def test_flux_grid_at_its_maximum_loads(tmp_path):
    # one point above it is refused at its line (test_negative_device_input_is_a_config_error)
    text = MINIMAL.replace("kappa_a =", f"flux_grid = 0.0 0.47 {FLUX_GRID_MAX_POINTS} "
                                        "dimensionless\nkappa_a =")
    assert load_config(write_cfg(tmp_path, text)).device.flux_grid[2] == FLUX_GRID_MAX_POINTS


def test_flux_grid_of_zero_points_writes_the_header_alone(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL.replace(
        "kappa_a =", "flux_grid = 0.0 0.47 0 dimensionless\nkappa_a ="))
    assert main(["device", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "flux_sweep.csv").read_text().splitlines()) == 1


def test_cmd_measure_demo_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_cfg(tmp_path, default_config_path().read_text().replace(
        "packet_size = 1000000 count", "packet_size = 20000 count"))
    args = ["measure-demo", "--config", str(cfg), "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    r1 = (out1 / "measure_demo_report.json").read_bytes()
    r2 = (out2 / "measure_demo_report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert report["packet_size"] == 20000
    assert abs(report["pulls"]["g2"]) < 5



@pytest.mark.parametrize("flag,value", [
    ("--workers", "0"), ("--workers", "-3"), ("--seed", "-1"),
], ids=["workers-0", "workers-negative", "seed-negative"])
def test_flag_below_its_minimum_exits_2(tmp_path, capsys, flag, value):
    # --workers 0 and -3 ran serially with exit 0; --seed -1 was exit 3 from SeedSequence
    with pytest.raises(SystemExit) as exc:
        main(["device", flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*"))


def test_workers_default_counts_the_cpus_this_process_may_use(monkeypatch):
    # taskset or a cgroup can leave fewer CPUs than os.cpu_count() reports
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert build_parser().parse_args(["device"]).workers == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert build_parser().parse_args(["device"]).workers == 8


@pytest.mark.parametrize("key", ["packet_size", "n_packets"])
def test_measurement_count_below_one_is_a_config_error(tmp_path, capsys, key):
    text = MINIMAL + f"\n[measurement]\n{key} = 0 count\n"
    cfg = write_cfg(tmp_path, text)
    line = text.splitlines().index(f"{key} = 0 count") + 1
    rc = main(["measure-demo", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{cfg} line {line}: [measurement] {key}" in err


@pytest.mark.parametrize("command,line", [
    ("g2-sweep", "cutoff = 4.7 count"),          # was run at cutoff 4
    ("g2-sweep", "cutoff = 1 count"),            # was exit 3 with an empty message
    ("g2-sweep", "delta_a_points = -3 count"),   # was exit 3 from numpy
    ("g2-tau", "tau_points = 4 count"),          # was exit 3 from dominant_period
    ("g2-tau", "tau_stop = 0 ns"),               # was exit 0 with 401 rows at tau = 0
    ("g2-tau", "tau_stop = -5 ns"),              # was exit 3, every detuning failed
    ("g2-sweep", "eta_fit_target = -1 dimensionless"),  # was exit 3 from the fit
], ids=["fractional-cutoff", "cutoff-1", "negative-points", "tau-points-4", "tau-stop-0",
        "negative-tau-stop", "negative-eta-fit-target"])
def test_sweep_count_must_be_a_whole_number_at_its_minimum(tmp_path, capsys, command, line):
    text = MINIMAL + f"\n[sweep]\n{line}\n"
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index(line) + 1
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    key = line.split(" = ")[0]
    assert f"{cfg} line {lineno}: [sweep] {key}" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "G_X = -1.7 dimensionless",
    "epsilon = 0.6 dimensionless",
    "n_h = 0 dimensionless",
    "n_th = -5 dimensionless",
], ids=["negative-gain", "epsilon-0.6", "n_h-0", "negative-n_th"])
def test_bad_detection_chain_is_a_config_error(tmp_path, capsys, line):
    # was exit 3: the CalibrationConstants were built inside measure-demo;
    # a negative pump-off n_th ran to exit 0
    text = MINIMAL + f"\n[measurement]\n{line}\n"
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index(line) + 1
    rc = main(["measure-demo", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    key = line.split(" = ")[0]
    assert f"{cfg} line {lineno}: [measurement] {key}" in capsys.readouterr().err


@pytest.mark.parametrize("section,line", [
    ("device", "B_row1 = nan -52.0e-3 0.8e-3 3.9e-3 dimensionless"),
    ("device", "kappa_a = inf MHz_over_2pi"),
    ("device", "kappa_b = 1e308 GHz_over_2pi"),
    ("system", "U = nan MHz_over_2pi"),
    ("system", "eta_b = -inf MHz_over_2pi"),
    ("system", "J = 1e308 GHz_over_2pi"),
    ("measurement", "truth_n = nan dimensionless"),
    ("measurement", "G_X = inf dimensionless"),
    ("measurement", "truth_s_re = 1e400 dimensionless"),
    ("sweep", "delta_a_start = nan MHz_over_2pi"),
    ("sweep", "g2tau_eta = inf MHz_over_2pi"),
    ("sweep", "eta_values = 8 12 1e308 MHz_over_2pi"),
], ids=["device-nan", "device-inf", "device-overflow", "system-nan", "system-inf",
        "system-overflow", "measurement-nan", "measurement-inf", "measurement-overflow",
        "sweep-nan", "sweep-inf", "sweep-overflow"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, section, line):
    # was exit 0 from device; the nan B_row1 was exit 3 from CouplingMatrix
    key = line.split(" = ")[0]
    kept = [old for old in MINIMAL.splitlines() if not old.startswith(f"{key} =")]
    text = "\n".join(kept) + f"\n[{section}]\n{line}\n"
    cfg = write_cfg(tmp_path, text)
    rc = main(["device", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    lineno = len(text.splitlines())
    value = line.split(" = ")[1]
    assert (f"{cfg} line {lineno}: [{section}] {key} = '{value}' must be finite"
            in capsys.readouterr().err)
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("old,new", [
    ("eta_a = 15 MHz_over_2pi", "eta_a = 4000 dBm"),
    ("eta_a = 15 MHz_over_2pi", "eta_a = 2900 dBm"),
    ("n_th_port1 = 1.5e-2 dimensionless", "port1_chain = -4000 dB @ 4 K\nport1_source = 300 K"),
], ids=["dBm-power", "dBm-amplitude", "chain-dB"])
def test_overflow_says_what_the_value_must_be(tmp_path, capsys, old, new):
    # 4000 dBm and -4000 dB overflowed in a float power and reported only
    # errno's "(34, 'Numerical result out of range')"
    cfg = write_cfg(tmp_path, MINIMAL.replace(old, new))
    assert main(["device", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    key = "eta_a" if "dBm" in new else "port1_chain, port1_source"
    assert (f"{key}: must be small enough in magnitude that it converts to a finite number"
            in err)
    assert "out of range" not in err


def test_cmd_measure_demo_pipeline_failure_exit_code(tmp_path, capsys):
    # a physical truth (|s|^2 = 1.96 <= n(n+1) = 2) whose measured covariance,
    # at this amplifier noise, is not PSD: the synthesizer rejects it -> exit 3
    cfg = write_cfg(tmp_path, MINIMAL + """
[measurement]
n_h = 0.01 dimensionless
truth_n = 1 dimensionless
truth_s_re = 1.4 dimensionless
truth_s_im = 0 dimensionless
packet_size = 1000 count
""")
    rc = main(["measure-demo", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "pipeline failure" in err and "covariance is not positive semidefinite" in err


@pytest.mark.parametrize("lines", [
    ("truth_n = -20 dimensionless",),                                 # was exit 3, in the synthesizer
    ("truth_n = 0 dimensionless", "truth_s_re = 0.5 dimensionless"),  # was exit 0, truth g2 2281.3
], ids=["negative-n", "s-above-n(n+1)"])
def test_unphysical_truth_state_is_a_config_error(tmp_path, capsys, lines):
    text = MINIMAL + "\n[measurement]\n" + "\n".join(lines) + "\n"
    cfg = write_cfg(tmp_path, text)
    numbers = ", ".join(str(text.splitlines().index(line) + 1) for line in lines)
    rc = main(["measure-demo", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    keys = ", ".join(line.split(" = ")[0] for line in lines)
    assert (f"{cfg} line{'s' * (len(lines) > 1)} {numbers}: [measurement] {keys}"
            in capsys.readouterr().err)


def test_cmd_measure_demo_writes_null_g2_for_a_draw_without_population(tmp_path):
    # was exit 3 "pipeline failure": at this seed the estimate's population
    # comes out negative, as noise allows; the pipeline itself worked
    cfg = write_cfg(tmp_path, default_config_path().read_text().replace(
        "packet_size = 1000000 count", "packet_size = 20000 count"))
    out = tmp_path / "out"
    rc = main(["measure-demo", "--config", str(cfg), "--out", str(out), "--seed", "1",
               "--workers", "1"])
    assert rc == 0

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    report = json.loads((out / "measure_demo_report.json").read_text(),
                        parse_constant=no_constant)
    for key in ("g2", "g2_stderr", "g2_prime", "g2_prime_stderr"):
        assert report["estimates"][key] is None
    assert report["pulls"]["g2"] is None
    assert report["estimates"]["n"] < 0 and report["pulls"]["n"] is not None
    assert any("total population must be > 0" in w for w in report["warnings"])
    assert (out / "measure_demo_manifest.json").exists()


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


# g2_min at the packaged six etas, as written by the BFGS chain
PACKAGED_ENVELOPE_G2_MIN = [0.7498178459175655, 0.45468666732714075, 0.3308383530737695,
                            0.28723184115078293, 0.30809014923551764, 0.4224500273094939]
# as the Nelder-Mead chain (stopped on simplex size) wrote them; BFGS, stopped
# on the gradient norm, may only go lower
NELDER_MEAD_ENVELOPE_G2_MIN = [0.7498178468529829, 0.4546866675161149, 0.3308383541868059,
                               0.28723184137539387, 0.30809014935441514, 0.4224500275641055]


def test_cmd_envelope_packaged_config(tmp_path):
    # serial and pooled runs write the same bytes, and the cutoff-3 seeding
    # grid leaves every written value as the cutoff-4 search found it
    for workers in ("1", "2"):
        assert main(["envelope", "--out", str(tmp_path / workers), "--workers", workers]) == 0
    serial = (tmp_path / "1" / "envelope.csv").read_bytes()
    assert (tmp_path / "2" / "envelope.csv").read_bytes() == serial
    rows = list(csv.DictReader(open(tmp_path / "1" / "envelope.csv")))
    g2_min = [float(r["g2_min"]) for r in rows]
    assert g2_min == pytest.approx(PACKAGED_ENVELOPE_G2_MIN, rel=1e-9)
    assert all(new <= old * (1 + 1e-12) for new, old in zip(g2_min, NELDER_MEAD_ENVELOPE_G2_MIN))


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


SMALL_RUN = MINIMAL + """
[sweep]
delta_a_points = 3 count
delta_diff_points = 3 count
eta_values = 16 MHz_over_2pi

[measurement]
n_packets = 10 count
packet_size = 5000 count
"""


@pytest.mark.parametrize("command", ["device", "g2-sweep", "g2-tau", "map", "envelope",
                                     "measure-demo"])
def test_one_derivation_and_one_manifest_per_run(tmp_path, monkeypatch, command):
    cfg_path = write_cfg(tmp_path, SMALL_RUN)
    cfg = load_config(cfg_path)
    derived = derive_device(cfg)
    calls = []

    def counting(run_cfg):
        calls.append(run_cfg)
        return derive_device(run_cfg)

    monkeypatch.setattr("blockadesim.cli.derive_device", counting)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg_path), "--out", str(out), "--workers", "1",
               "--seed", "3"])
    assert rc == 0
    assert len(calls) == 1
    (manifest_path,) = out.glob("*_manifest.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == command
    written = sorted(str(path) for path in out.iterdir() if path != manifest_path)
    assert manifest["outputs"] == written
    assert manifest["system"] == {
        "J_rad_per_s": cfg.system.J, "U_rad_per_s": cfg.system.U,
        "eta_a_rad_per_s": cfg.system.eta_a, "eta_b_rad_per_s": cfg.system.eta_b,
        "kappa_a_rad_per_s": cfg.device.kappa_a, "kappa_b_rad_per_s": cfg.device.kappa_b,
        "n_th_a": derived["n_th_a"], "n_th_b": derived["n_th_b"]}


@pytest.mark.parametrize("command", ["g2-sweep", "g2-tau", "map", "envelope"])
def test_solver_manifests_record_the_cutoff_and_map_its_grids(tmp_path, command):
    cfg_path = write_cfg(tmp_path, SMALL_RUN.replace("[sweep]\n", "[sweep]\ncutoff = 5 count\n"))
    sweep = load_config(cfg_path).sweep
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--workers", "1"]) == 0
    manifest = json.loads((out / f"{command.replace('-', '_')}_manifest.json").read_text())
    assert manifest["cutoff"] == 5
    if command == "map":
        assert manifest["delta_a_grid_rad_per_s"] == [sweep.delta_a_start, sweep.delta_a_stop, 3]
        assert manifest["delta_diff_grid_rad_per_s"] == [sweep.delta_diff_start,
                                                         sweep.delta_diff_stop, 3]


def test_measure_demo_report_names_each_estimate_and_its_stderr(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    assert main(["measure-demo", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    report = json.loads((out / "measure_demo_report.json").read_text())
    names = {"alpha_re", "alpha_im", "n", "s_re", "s_im", "g2"}
    assert set(report["truth"]) == set(report["pulls"]) == names
    assert set(report["estimates"]) == {name + suffix for name in names | {"g2_prime"}
                                        for suffix in ("", "_stderr")}


@pytest.mark.parametrize("command", ["envelope", "g2-tau"])
def test_one_process_pool_per_command(tmp_path, monkeypatch, command):
    # the packaged six etas or four detunings go to one pool, not one pool per eta
    built, real_pool = [], blas.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        built.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(blas, "ProcessPoolExecutor", counting_pool)
    assert main([command, "--out", str(tmp_path), "--workers", "2"]) == 0
    assert len(built) == 1
