"""Command-line front end: derive device parameters, run sweeps, emit CSV/JSON.

Commands: device, g2-sweep, g2-tau, map, envelope, measure-demo.  Every run
writes its data files atomically (temp file + rename) plus a JSON manifest
recording the resolved parameters, grids, seed, toolkit version and the
BLAS thread counts in effect.  A command runs with every loaded BLAS pinned
to one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is set; the previous counts are restored on return.  Exit
codes: 0 success, 2 configuration error, 3 pipeline failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import tempfile
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, blas
from .config import ConfigError, RunConfig, load_config
from .device import (CircuitParams, CouplingMatrix, attenuation_chain_population,
                     capacitance_from_resonance, kerr_nonlinearity,
                     mode_thermal_populations, port_rates, resonance_frequency,
                     squid_inductance, zero_smallest_elements)
from .gaussian import CalibrationFailure, GaussianState, g2_tau, g2_zero
from .lindblad import ConvergenceError, SteadyStateError, SystemParams, displaced_solution, \
    two_time_correlations
from .measurement import CalibrationConstants, run_synthetic_experiment
from .sweep import SweepRecord, dominant_period, map2d, minimize_g2, sweep_detuning

SWEEP_COLUMNS = ("delta_a_rad_per_s", "delta_b_rad_per_s", "eta_a_rad_per_s",
                 "n_tot", "g2", "g2_prime", "alpha_re", "alpha_im", "n",
                 "s_re", "s_im", "status", "warnings")
MAP_COLUMNS = ("delta_a_rad_per_s", "delta_diff_rad_per_s") + SWEEP_COLUMNS[1:]
TAU_COLUMNS = ("delta_a_rad_per_s", "tau_s", "g2", "n_tau_re", "n_tau_im",
               "s_tau_re", "s_tau_im")
ENVELOPE_COLUMNS = ("eta_a_rad_per_s", "n_tot", "g2_min",
                    "delta_a_rad_per_s", "delta_b_rad_per_s", "warnings")
FLUX_COLUMNS = ("flux_ratio", "omega_b_Hz", "omega_lower_Hz", "omega_upper_Hz")

log = logging.getLogger(__name__)


def default_config_path() -> Path:
    return Path(resources.files("blockadesim").joinpath("data/default.cfg"))


def atomic_write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header, rows):
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def write_json(path: Path, payload: dict):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_manifest(out_dir: Path, command: str, cfg: RunConfig, args, outputs,
                   extra: dict | None = None):
    derived = derive_device(cfg)
    manifest = {
        "command": command,
        "config": cfg.source,
        "outputs": sorted(str(p) for p in outputs),
        "seed": args.seed,
        "workers": args.workers,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "version": __version__,
        "blas": {"threads": blas.thread_counts(),
                 "pinned_by": args.blas_pinned_by},
        "system": {
            "J_rad_per_s": cfg.system.J,
            "U_rad_per_s": cfg.system.U,
            "eta_a_rad_per_s": cfg.system.eta_a,
            "eta_b_rad_per_s": cfg.system.eta_b,
            "kappa_a_rad_per_s": cfg.device.kappa_a,
            "kappa_b_rad_per_s": cfg.device.kappa_b,
            "n_th_a": derived["n_th_a"],
            "n_th_b": derived["n_th_b"],
            "simplified": True,
        },
    }
    if extra:
        manifest.update(extra)
    path = out_dir / f"{command.replace('-', '_')}_manifest.json"
    write_json(path, manifest)
    return path


def derive_device(cfg: RunConfig) -> dict:
    """Derived physical parameters from the [device] section."""
    dev = cfg.device
    L_s = squid_inductance(dev.flux_ratio, dev.L_s0)
    circuit = CircuitParams(L=dev.L, L_s0=dev.L_s0,
                            C=capacitance_from_resonance(dev.omega_a, dev.L, L_s),
                            omega_a=dev.omega_a, flux_ratio=dev.flux_ratio)
    C = circuit.C
    omega_b = resonance_frequency(circuit.L, L_s, C)
    U = kerr_nonlinearity(circuit.L, L_s, C)
    b_eff = zero_smallest_elements(dev.B) if dev.simplify_B else dev.B
    rates = port_rates(CouplingMatrix(b_eff, dev.omega_0))
    populations = {}
    for port in range(1, 5):
        if port in dev.port_chains:
            populations[port] = attenuation_chain_population(dev.port_chains[port], dev.omega_0)
        else:
            populations[port] = dev.n_th_ports_fixed.get(port, 0.0)
    gamma_a = dev.kappa_a - rates[0].gamma - rates[1].gamma
    if gamma_a < 0:
        raise ConfigError(f"kappa_a smaller than port rates: gamma_a = {gamma_a:.3e}")
    n_th_a, _ = mode_thermal_populations(rates, [populations[j] for j in range(1, 5)],
                                         gamma_a, 0.0, dev.n_th_box)
    gb = rates[2].gamma + rates[3].gamma
    n_th_b = (rates[2].gamma * populations[3] + rates[3].gamma * populations[4]) / gb if gb > 0 else 0.0
    return {
        "L_s_H": L_s,
        "C_F": C,
        "omega_b_rad_per_s": omega_b,
        "participation_ratio": L_s / (dev.L + L_s),
        "U_rad_per_s": U,
        "gamma_rad_per_s": [r.gamma for r in rates],
        "port_coefficients": [[r.alpha, r.beta] if r.defined else [None, None] for r in rates],
        "gamma_a_rad_per_s": gamma_a,
        "kappa_a_rad_per_s": dev.kappa_a,
        "kappa_b_rad_per_s": dev.kappa_b,
        "n_th_ports": [populations[j] for j in range(1, 5)],
        "n_th_a": n_th_a,
        "n_th_b": n_th_b,
    }


def system_params_from_config(cfg: RunConfig, eta_a: complex | None = None) -> SystemParams:
    """Simplified-form SystemParams with thermal occupations from the chains."""
    derived = derive_device(cfg)
    return SystemParams.from_mode_rates(
        delta_a=0.0, delta_b=0.0, J=cfg.system.J, U=cfg.system.U,
        eta_a=cfg.system.eta_a if eta_a is None else eta_a, eta_b=cfg.system.eta_b,
        kappa_a=cfg.device.kappa_a, kappa_b=cfg.device.kappa_b,
        n_th_a=derived["n_th_a"], n_th_b=derived["n_th_b"])


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _record_row(rec: SweepRecord):
    return [_fmt(rec.delta_a), _fmt(rec.delta_b), _fmt(abs(rec.eta)), _fmt(rec.n_tot),
            _fmt(rec.g2), _fmt(rec.g2_prime), _fmt(rec.alpha.real), _fmt(rec.alpha.imag),
            _fmt(rec.n), _fmt(rec.s.real), _fmt(rec.s.imag), rec.status,
            ";".join(rec.warnings)]


def cmd_device(cfg: RunConfig, args, out_dir: Path) -> int:
    derived = derive_device(cfg)
    json_path = out_dir / "device_parameters.json"
    write_json(json_path, derived)

    start, stop, points = cfg.device.flux_grid
    rows = []
    for phi in np.linspace(start, stop, int(points)):
        L_s = squid_inductance(phi, cfg.device.L_s0)
        omega_b = resonance_frequency(cfg.device.L, L_s, derived["C_F"])
        mean = 0.5 * (cfg.device.omega_a + omega_b)
        split = np.hypot(0.5 * (cfg.device.omega_a - omega_b), cfg.system.J)
        rows.append([_fmt(float(phi)), _fmt(omega_b / (2 * np.pi)),
                     _fmt((mean - split) / (2 * np.pi)), _fmt((mean + split) / (2 * np.pi))])
    csv_path = out_dir / "flux_sweep.csv"
    write_csv(csv_path, FLUX_COLUMNS, rows)
    write_manifest(out_dir, "device", cfg, args, [json_path, csv_path],
                   {"flux_grid": list(cfg.device.flux_grid)})
    return 0


def cmd_g2_sweep(cfg: RunConfig, args, out_dir: Path) -> int:
    p = system_params_from_config(cfg)
    grid = np.linspace(cfg.sweep.delta_a_start, cfg.sweep.delta_a_stop,
                       cfg.sweep.delta_a_points)
    cut = (cfg.sweep.cutoff, cfg.sweep.cutoff)
    records = sweep_detuning(p, grid, eta_fit_target=cfg.sweep.eta_fit_target,
                             cutoffs=cut, workers=args.workers)
    csv_path = out_dir / "g2_sweep.csv"
    write_csv(csv_path, SWEEP_COLUMNS, [_record_row(r) for r in records])
    write_manifest(out_dir, "g2-sweep", cfg, args, [csv_path],
                   {"delta_a_grid_rad_per_s": [float(grid[0]) if grid.size else None,
                                               float(grid[-1]) if grid.size else None,
                                               int(grid.size)]})
    return 0 if (not records or any(r.status == "ok" for r in records)) else 3


def cmd_g2_tau(cfg: RunConfig, args, out_dir: Path) -> int:
    eta = cfg.sweep.g2tau_eta if cfg.sweep.g2tau_eta is not None else cfg.system.eta_a
    base = system_params_from_config(cfg, eta_a=eta)
    tau = np.linspace(0.0, cfg.sweep.tau_stop, cfg.sweep.tau_points)
    cut = (cfg.sweep.cutoff, cfg.sweep.cutoff)
    detunings = cfg.sweep.g2tau_detunings or (0.0,)
    rows = []
    periods = {}
    ordering = {}
    for da in detunings:
        p = replace(base, delta_a=float(da), delta_b=float(da))
        sol = displaced_solution(p, cutoffs=cut)
        corr = two_time_correlations(sol.liouvillian, sol.rho, tau)
        curve = g2_tau(sol.mean_field.alpha, corr)
        periods[f"{da:.6e}"] = dominant_period(tau, curve)
        # the two operator orderings of <d d> at unequal times differ by a
        # c-number commutator; the deviation is reported, not resolved
        ordering[f"{da:.6e}"] = corr.ordering_discrepancy
        for k in range(tau.size):
            rows.append([_fmt(float(da)), _fmt(float(tau[k])), _fmt(float(curve[k])),
                         _fmt(corr.n_tau[k].real), _fmt(corr.n_tau[k].imag),
                         _fmt(corr.s_tau[k].real), _fmt(corr.s_tau[k].imag)])
    csv_path = out_dir / "g2_tau.csv"
    write_csv(csv_path, TAU_COLUMNS, rows)
    write_manifest(out_dir, "g2-tau", cfg, args, [csv_path],
                   {"dominant_period_s": periods, "eta_a_rad_per_s": eta,
                    "anomalous_ordering_discrepancy": ordering})
    return 0


def cmd_map(cfg: RunConfig, args, out_dir: Path) -> int:
    p = system_params_from_config(cfg)
    grid_a = np.linspace(cfg.sweep.delta_a_start, cfg.sweep.delta_a_stop,
                         cfg.sweep.delta_a_points)
    grid_d = np.linspace(cfg.sweep.delta_diff_start, cfg.sweep.delta_diff_stop,
                         cfg.sweep.delta_diff_points)
    cut = (cfg.sweep.cutoff, cfg.sweep.cutoff)
    matrix = map2d(p, grid_a, grid_d, cutoffs=cut, workers=args.workers)
    rows = []
    for i, row in enumerate(matrix):
        for j, rec in enumerate(row):
            rows.append([_fmt(float(grid_a[i])), _fmt(float(grid_d[j]))] + _record_row(rec)[1:])
    csv_path = out_dir / "map2d.csv"
    write_csv(csv_path, MAP_COLUMNS, rows)
    write_manifest(out_dir, "map", cfg, args, [csv_path])
    flat = [r for row in matrix for r in row]
    return 0 if (not flat or any(r.status == "ok" for r in flat)) else 3


def cmd_envelope(cfg: RunConfig, args, out_dir: Path) -> int:
    p = system_params_from_config(cfg)
    if not cfg.sweep.eta_values:
        raise ConfigError("envelope needs a nonempty eta_values list in [sweep]")
    cut = (cfg.sweep.cutoff, cfg.sweep.cutoff)
    points = minimize_g2(p, cfg.sweep.eta_values, cutoffs=cut, workers=args.workers)
    rows = [[_fmt(abs(pt.eta)), _fmt(pt.n_tot), _fmt(pt.g2_min), _fmt(pt.delta_a),
             _fmt(pt.delta_b), ";".join(pt.warnings)] for pt in points]
    csv_path = out_dir / "envelope.csv"
    write_csv(csv_path, ENVELOPE_COLUMNS, rows)
    write_manifest(out_dir, "envelope", cfg, args, [csv_path])
    return 0 if any(np.isfinite(pt.g2_min) for pt in points) else 3


def cmd_measure_demo(cfg: RunConfig, args, out_dir: Path) -> int:
    meas = cfg.measurement
    packet_size = meas.packet_size if args.packet_size is None else args.packet_size
    truth = GaussianState(meas.truth_alpha, meas.truth_n, meas.truth_s)
    cal = CalibrationConstants(meas.G_X, meas.G_Y, meas.epsilon, meas.n_h)
    stats = run_synthetic_experiment(truth, cal, meas.n_th, meas.n_packets,
                                     packet_size, seed=args.seed, workers=args.workers)
    g2_truth = g2_zero(truth)

    def pull(est, err, true):
        return (est - true) / err if err > 0 else 0.0

    report = {
        "seed": args.seed,
        "packet_size": packet_size,
        "n_packets": meas.n_packets,
        "truth": {"alpha_re": truth.alpha.real, "alpha_im": truth.alpha.imag,
                  "n": truth.n, "s_re": truth.s.real, "s_im": truth.s.imag,
                  "g2": g2_truth},
        "estimates": {
            "alpha_re": stats.state.alpha.real, "alpha_im": stats.state.alpha.imag,
            "alpha_re_stderr": stats.alpha_stderr.real,
            "alpha_im_stderr": stats.alpha_stderr.imag,
            "n": stats.state.n, "n_stderr": stats.n_stderr,
            "s_re": stats.state.s.real, "s_im": stats.state.s.imag,
            "s_re_stderr": stats.s_stderr.real, "s_im_stderr": stats.s_stderr.imag,
            "g2": stats.g2_mean, "g2_stderr": stats.g2_stderr,
            "g2_prime": stats.g2_prime_mean, "g2_prime_stderr": stats.g2_prime_stderr,
        },
        "pulls": {
            "alpha_re": pull(stats.state.alpha.real, stats.alpha_stderr.real, truth.alpha.real),
            "alpha_im": pull(stats.state.alpha.imag, stats.alpha_stderr.imag, truth.alpha.imag),
            "n": pull(stats.state.n, stats.n_stderr, truth.n),
            "s_re": pull(stats.state.s.real, stats.s_stderr.real, truth.s.real),
            "s_im": pull(stats.state.s.imag, stats.s_stderr.imag, truth.s.imag),
            "g2": pull(stats.g2_mean, stats.g2_stderr, g2_truth),
        },
        "warnings": list(stats.warnings),
    }
    json_path = out_dir / "measure_demo_report.json"
    write_json(json_path, report)
    write_manifest(out_dir, "measure-demo", cfg, args, [json_path])
    return 0


COMMANDS = {
    "device": cmd_device,
    "g2-sweep": cmd_g2_sweep,
    "g2-tau": cmd_g2_tau,
    "map": cmd_map,
    "envelope": cmd_envelope,
    "measure-demo": cmd_measure_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockadesim",
        description="Coupled Kerr-resonator blockade simulations and synthetic measurement")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="configuration file (default: packaged reference device)")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--packet-size", type=int, default=None,
                        help="override the configured measurement packet size")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.packet_size is not None and args.packet_size < 1:
        parser.error(f"--packet-size must be >= 1, got {args.packet_size}")
    try:
        cfg = load_config(args.config if args.config is not None else default_config_path())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    with blas.single_threaded() as pinned_by:
        args.blas_pinned_by = pinned_by
        threads = blas.thread_counts()
        if any(n > 1 for n in threads.values()):
            log.warning("BLAS runs multi-threaded (%s, pinned by %s); the small dense "
                        "solves are slower that way", threads, pinned_by)
        try:
            return COMMANDS[args.command](cfg, args, out_dir)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (CalibrationFailure, ConvergenceError, SteadyStateError, ValueError) as exc:
            print(f"pipeline failure: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
