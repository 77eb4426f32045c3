"""Command-line front end: derive device parameters, run sweeps, emit CSV/JSON.

Commands: device, g2-sweep, g2-tau, map, envelope, measure-demo.  A command
gets its numbers from ``device``, ``sweep`` or ``measurement``, writes its
data files atomically (temp file + rename) and returns its exit code, those
files and its manifest entries.  ``main`` loads the config, derives the
device and the base SystemParams once before any command runs, writes the
run's one JSON manifest (parameters, grids, seed, workers, toolkit version,
BLAS thread counts) and maps errors to exit codes: 0 success, 2
configuration error, 3 pipeline failure.  A command runs with every loaded
BLAS pinned to one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is set; the previous counts are restored.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
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
from .device import (attenuation_chain_population, capacitance_from_resonance,
                     kerr_nonlinearity, mode_thermal_populations, port_rates,
                     resonance_frequency, squid_inductance)
from .gaussian import CalibrationFailure, g2_zero
from .lindblad import SystemParams
from .measurement import run_synthetic_experiment
from .sweep import (SOLVE_ERRORS, SweepRecord, fit_eta_to_population, map2d, minimize_g2,
                    sweep_detuning, sweep_g2_tau)

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
    """csv writes a float or np.float64 cell as its shortest round-trip repr;
    rows must not carry np.float32, whose str is not that of the float64."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_json(path: Path, payload: dict):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_manifest(args, cfg: RunConfig, p: SystemParams, pinned_by: str, outputs,
                   extra: dict):
    """The run's one record: the files written, the seed, the worker and BLAS
    thread counts, the toolkit version and the run's SystemParams."""
    manifest = {
        "command": args.command,
        "config": cfg.source,
        "outputs": sorted(str(path) for path in outputs),
        "seed": args.seed,
        "workers": args.workers,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "version": __version__,
        "blas": {"threads": blas.thread_counts(), "pinned_by": pinned_by},
        "system": {
            "J_rad_per_s": p.J,
            "U_rad_per_s": p.U,
            "eta_a_rad_per_s": p.eta_a,
            "eta_b_rad_per_s": p.eta_b,
            "kappa_a_rad_per_s": p.kappa_a,
            "kappa_b_rad_per_s": p.kappa_b,
            "n_th_a": p.n_th_a,
            "n_th_b": p.n_th_b,
        },
        **extra,
    }
    write_json(args.out / f"{args.command.replace('-', '_')}_manifest.json", manifest)


def derive_device(cfg: RunConfig) -> dict:
    """Derived physical parameters from the [device] section.

    The port rates come from ``DeviceConfig.coupling`` and both mode
    occupations from one ``mode_thermal_populations`` call.  Mode b gets
    no intrinsic channel (gamma_b = 0), so n_th_b is the port-3/port-4
    average.  A kappa_a below the port-1 and port-2 rates, or a mode b with
    no coupled port, is a ConfigError.
    """
    dev = cfg.device
    L_s = squid_inductance(dev.flux_ratio, dev.L_s0)
    C = capacitance_from_resonance(dev.omega_a, dev.L, L_s)
    omega_b = resonance_frequency(dev.L, L_s, C)
    U = kerr_nonlinearity(dev.L, L_s, C)
    rates = port_rates(dev.coupling)
    gammas = [r.gamma for r in rates]
    populations = [attenuation_chain_population(dev.port_chains[port], dev.omega_0)
                   if port in dev.port_chains else dev.n_th_ports_fixed[port]
                   for port in range(1, 5)]
    gamma_a = dev.kappa_a - gammas[0] - gammas[1]
    if gamma_a < 0:
        raise ConfigError(f"kappa_a smaller than port rates: gamma_a = {gamma_a:.3e}")
    if gammas[2] + gammas[3] == 0:
        raise ConfigError("mode b has no coupled port: ports 3 and 4 are both dark in B")
    n_th_a, n_th_b = mode_thermal_populations(gammas, populations, gamma_a, 0.0, dev.n_th_box)
    return {
        "L_s_H": L_s,
        "C_F": C,
        "omega_b_rad_per_s": omega_b,
        "participation_ratio": L_s / (dev.L + L_s),
        "U_rad_per_s": U,
        "gamma_rad_per_s": gammas,
        "port_coefficients": [[r.alpha, r.beta] if r.gamma > 0 else [None, None] for r in rates],
        "gamma_a_rad_per_s": gamma_a,
        "kappa_a_rad_per_s": dev.kappa_a,
        "kappa_b_rad_per_s": dev.kappa_b,
        "n_th_ports": populations,
        "n_th_a": n_th_a,
        "n_th_b": n_th_b,
    }


def system_params_from_config(cfg: RunConfig, derived: dict) -> SystemParams:
    """Two-bath SystemParams at zero detuning, occupations from ``derive_device``."""
    return SystemParams(
        delta_a=0.0, delta_b=0.0, J=cfg.system.J, U=cfg.system.U,
        eta_a=cfg.system.eta_a, eta_b=cfg.system.eta_b,
        kappa_a=cfg.device.kappa_a, kappa_b=cfg.device.kappa_b,
        n_th_a=derived["n_th_a"], n_th_b=derived["n_th_b"])


def _record_row(rec: SweepRecord) -> list:
    return [rec.delta_a, rec.delta_b, abs(rec.eta), rec.n_tot, rec.g2, rec.g2_prime,
            rec.alpha.real, rec.alpha.imag, rec.n, rec.s.real, rec.s.imag, rec.status,
            ";".join(rec.warnings)]


def _exit_code(records: list[SweepRecord]) -> int:
    """3 when there were units and none of them solved, else 0."""
    return 3 if records and all(r.status != "ok" for r in records) else 0


def cmd_device(cfg: RunConfig, derived: dict, p: SystemParams, args):
    json_path = args.out / "device_parameters.json"
    write_json(json_path, derived)

    start, stop, points = cfg.device.flux_grid
    rows = []
    for phi in np.linspace(start, stop, int(points)):
        L_s = squid_inductance(phi, cfg.device.L_s0)
        omega_b = resonance_frequency(cfg.device.L, L_s, derived["C_F"])
        mean = 0.5 * (cfg.device.omega_a + omega_b)
        split = np.hypot(0.5 * (cfg.device.omega_a - omega_b), cfg.system.J)
        rows.append([phi, omega_b / (2 * np.pi), (mean - split) / (2 * np.pi),
                     (mean + split) / (2 * np.pi)])
    csv_path = args.out / "flux_sweep.csv"
    write_csv(csv_path, FLUX_COLUMNS, rows)
    return 0, [json_path, csv_path], {"flux_grid": list(cfg.device.flux_grid)}


def cmd_g2_sweep(cfg: RunConfig, derived: dict, p: SystemParams, args):
    grid = np.linspace(cfg.sweep.delta_a_start, cfg.sweep.delta_a_stop,
                       cfg.sweep.delta_a_points)
    cut = (cfg.sweep.cutoff, cfg.sweep.cutoff)
    if cfg.sweep.eta_fit_target is not None:
        p = fit_eta_to_population(p, cfg.sweep.eta_fit_target)
    records = sweep_detuning(p, grid, cutoffs=cut, workers=args.workers)
    csv_path = args.out / "g2_sweep.csv"
    write_csv(csv_path, SWEEP_COLUMNS, [_record_row(r) for r in records])
    return (_exit_code(records), [csv_path],
            {"delta_a_grid_rad_per_s": [float(grid[0]) if grid.size else None,
                                        float(grid[-1]) if grid.size else None,
                                        int(grid.size)]})


def cmd_g2_tau(cfg: RunConfig, derived: dict, p: SystemParams, args):
    """g2(tau) per detuning; a failed one writes NaN rows and is logged."""
    eta = cfg.sweep.g2tau_eta if cfg.sweep.g2tau_eta is not None else p.eta_a
    tau = np.linspace(0.0, cfg.sweep.tau_stop, cfg.sweep.tau_points)
    cut = (cfg.sweep.cutoff, cfg.sweep.cutoff)
    detunings = cfg.sweep.g2tau_detunings or (0.0,)
    results = sweep_g2_tau(replace(p, eta_a=eta), detunings, tau, cutoffs=cut,
                           workers=args.workers)
    rows = []
    periods = {}
    ordering = {}
    failed = {}
    for rec, solved in results:
        key = f"{rec.delta_a:.6e}"
        if rec.status != "ok":
            failed[key] = rec.warnings[0]
            log.warning("g2-tau at delta_a = %s rad/s failed: %s", key, failed[key])
            rows.extend([rec.delta_a, t] + [math.nan] * (len(TAU_COLUMNS) - 2) for t in tau)
            continue
        corr, curve, periods[key] = solved
        # the two operator orderings of <d d> at unequal times differ by a
        # c-number commutator; the deviation is reported, not resolved
        ordering[key] = corr.ordering_discrepancy
        rows.extend([rec.delta_a, tau[k], curve[k], corr.n_tau[k].real, corr.n_tau[k].imag,
                     corr.s_tau[k].real, corr.s_tau[k].imag] for k in range(tau.size))
    csv_path = args.out / "g2_tau.csv"
    write_csv(csv_path, TAU_COLUMNS, rows)
    return (_exit_code([rec for rec, _ in results]), [csv_path],
            {"dominant_period_s": periods, "eta_a_rad_per_s": eta,
             "anomalous_ordering_discrepancy": ordering, "failed_detunings": failed})


def cmd_map(cfg: RunConfig, derived: dict, p: SystemParams, args):
    grid_a = np.linspace(cfg.sweep.delta_a_start, cfg.sweep.delta_a_stop,
                         cfg.sweep.delta_a_points)
    grid_d = np.linspace(cfg.sweep.delta_diff_start, cfg.sweep.delta_diff_stop,
                         cfg.sweep.delta_diff_points)
    cut = (cfg.sweep.cutoff, cfg.sweep.cutoff)
    matrix = map2d(p, grid_a, grid_d, cutoffs=cut, workers=args.workers)
    rows = [[grid_a[i], grid_d[j]] + _record_row(rec)[1:]
            for i, row in enumerate(matrix) for j, rec in enumerate(row)]
    csv_path = args.out / "map2d.csv"
    write_csv(csv_path, MAP_COLUMNS, rows)
    return _exit_code([r for row in matrix for r in row]), [csv_path], {}


def cmd_envelope(cfg: RunConfig, derived: dict, p: SystemParams, args):
    if not cfg.sweep.eta_values:
        raise ConfigError("envelope needs a nonempty eta_values list in [sweep]")
    cut = (cfg.sweep.cutoff, cfg.sweep.cutoff)
    records = minimize_g2(p, cfg.sweep.eta_values, cutoffs=cut, workers=args.workers)
    rows = [[abs(r.eta), r.n_tot, r.g2, r.delta_a, r.delta_b, ";".join(r.warnings)]
            for r in records]
    csv_path = args.out / "envelope.csv"
    write_csv(csv_path, ENVELOPE_COLUMNS, rows)
    return _exit_code(records), [csv_path], {}


def cmd_measure_demo(cfg: RunConfig, derived: dict, p: SystemParams, args):
    meas = cfg.measurement
    truth = meas.truth
    stats = run_synthetic_experiment(truth, meas.cal, meas.n_th, meas.n_packets,
                                     meas.packet_size, seed=args.seed, workers=args.workers)
    truth_values = {"alpha_re": truth.alpha.real, "alpha_im": truth.alpha.imag, "n": truth.n,
                    "s_re": truth.s.real, "s_im": truth.s.imag, "g2": g2_zero(truth)}
    estimates = {
        "alpha_re": stats.state.alpha.real, "alpha_im": stats.state.alpha.imag,
        "alpha_re_stderr": stats.alpha_stderr.real,
        "alpha_im_stderr": stats.alpha_stderr.imag,
        "n": stats.state.n, "n_stderr": stats.n_stderr,
        "s_re": stats.state.s.real, "s_im": stats.state.s.imag,
        "s_re_stderr": stats.s_stderr.real, "s_im_stderr": stats.s_stderr.imag,
        "g2": stats.g2_mean, "g2_stderr": stats.g2_stderr,
        "g2_prime": stats.g2_prime_mean, "g2_prime_stderr": stats.g2_prime_stderr,
    }

    def pull(key):
        value, err = estimates[key], estimates[f"{key}_stderr"]
        if math.isnan(value) or math.isnan(err):
            return None
        return (value - truth_values[key]) / err if err > 0 else 0.0

    report = {
        "seed": args.seed,
        "packet_size": meas.packet_size,
        "n_packets": meas.n_packets,
        "truth": truth_values,
        # a g2 the estimate has no population for is NaN (see warnings), written as null
        "estimates": {key: None if math.isnan(v) else v for key, v in estimates.items()},
        "pulls": {key: pull(key) for key in truth_values},
        "warnings": list(stats.warnings),
    }
    json_path = args.out / "measure_demo_report.json"
    write_json(json_path, report)
    return 0, [json_path], {}


# each takes (cfg, derived, p, args) and returns (exit code, files written, manifest entries)
COMMANDS = {
    "device": cmd_device,
    "g2-sweep": cmd_g2_sweep,
    "g2-tau": cmd_g2_tau,
    "map": cmd_map,
    "envelope": cmd_envelope,
    "measure-demo": cmd_measure_demo,
}


def _integer_at_least(minimum: int):
    """An argparse type: an integer, at least ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockadesim",
        description="Coupled Kerr-resonator blockade simulations and synthetic measurement")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="configuration file (default: packaged reference device)")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=_integer_at_least(0), default=12345)
    parser.add_argument("--workers", type=_integer_at_least(1),
                        default=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else os.cpu_count() or 1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config if args.config is not None else default_config_path())
        derived = derive_device(cfg)
        p = system_params_from_config(cfg, derived)
        with blas.single_threaded() as pinned_by:
            threads = blas.thread_counts()
            if any(n > 1 for n in threads.values()):
                log.warning("BLAS runs multi-threaded (%s, pinned by %s); the small dense "
                            "solves are slower that way", threads, pinned_by)
            code, outputs, extra = COMMANDS[args.command](cfg, derived, p, args)
            write_manifest(args, cfg, p, pinned_by, outputs, extra)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CalibrationFailure, *SOLVE_ERRORS) as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
