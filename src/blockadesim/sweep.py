"""Parameter sweeps and g2 minimization over detunings.

Every grid point is an independent displaced-frame steady-state solve, so
sweeps parallelize over a process pool with deterministic aggregation by
index.  Per-point failures are recorded in the output rows instead of
aborting the whole sweep.

The sweep functions (sweep_detuning, map2d, minimize_g2) run with BLAS pinned
to one thread, as pool workers and CLI commands do: OpenBLAS's LU rounds
differently at different thread counts, and a serial sweep must give the
same rows as a pooled one or as the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.optimize import minimize

from . import blas
from .lindblad import (ConvergenceError, SteadyStateError, SystemParams, displaced_solution,
                       mean_field_steady_state)

ETA_FIT_TOL = 1e-2
ETA_FIT_MAX_ITER = 40
NM_G2_TOL = 1e-4
COARSE_GRID_POINTS = 11
ENVELOPE_BINS_PER_DECADE = 10


@dataclass(frozen=True)
class SweepRecord:
    """One solved parameter point of a sweep."""

    delta_a: float
    delta_b: float
    eta: complex
    n_tot: float
    g2: float
    g2_prime: float
    alpha: complex
    n: float
    s: complex
    warnings: tuple[str, ...] = ()
    status: str = "ok"


def _failed_record(p: SystemParams, message: str) -> SweepRecord:
    return SweepRecord(p.delta_a, p.delta_b, p.eta_a, math.nan, math.nan, math.nan,
                       complex(math.nan, math.nan), math.nan,
                       complex(math.nan, math.nan), (message,), status="failed")


def solve_point(p: SystemParams, cutoffs: tuple[int, int] = (4, 4)) -> SweepRecord:
    """Displaced-frame solve wrapped so failures become flagged records.

    ValueError covers the checks of ``DensityMatrix.validate`` and
    ``observables`` (and numpy's LinAlgError).
    """
    try:
        sol = displaced_solution(p, cutoffs=cutoffs)
    except (ConvergenceError, SteadyStateError, ValueError) as exc:
        return _failed_record(p, str(exc))
    obs = sol.obs
    return SweepRecord(p.delta_a, p.delta_b, p.eta_a, obs.n_tot, obs.g2_gaussian,
                       obs.g2_prime, sol.mean_field.alpha, obs.n, obs.s,
                       sol.warnings)


def fit_eta_to_population(p: SystemParams, target_population: float) -> SystemParams:
    """Scale the pump so the on-resonance mean-field |alpha|^2 matches the target.

    Scalar secant iteration on the common scale factor of (eta_a, eta_b),
    evaluated at delta_a = delta_b = 0.
    """
    if target_population <= 0:
        raise ValueError("target population must be > 0")
    if p.eta_a == 0 and p.eta_b == 0:
        raise ValueError("cannot scale a zero pump")

    def population(scale: float) -> float:
        probe = replace(p, delta_a=0.0, delta_b=0.0,
                        eta_a=p.eta_a * scale, eta_b=p.eta_b * scale)
        return abs(mean_field_steady_state(probe).alpha) ** 2

    c_prev, f_prev = 1.0, population(1.0)
    if abs(f_prev - target_population) <= ETA_FIT_TOL * target_population:
        return p
    c_cur = c_prev * math.sqrt(target_population / f_prev)
    for _ in range(ETA_FIT_MAX_ITER):
        f_cur = population(c_cur)
        if abs(f_cur - target_population) <= ETA_FIT_TOL * target_population:
            return replace(p, eta_a=p.eta_a * c_cur, eta_b=p.eta_b * c_cur)
        slope = (f_cur - f_prev) / (c_cur - c_prev)
        c_prev, f_prev = c_cur, f_cur
        if slope == 0:
            c_cur *= math.sqrt(target_population / max(f_cur, 1e-300))
        else:
            c_cur = c_cur + (target_population - f_cur) / slope
            if c_cur <= 0:
                c_cur = c_prev * math.sqrt(target_population / f_prev)
    raise ConvergenceError(
        f"eta fit did not reach target within {ETA_FIT_MAX_ITER} secant steps")


@blas.single_threaded()
def sweep_detuning(p: SystemParams, delta_a_grid, eta_fit_target: float | None = None,
                   cutoffs: tuple[int, int] = (4, 4), workers: int = 1) -> list[SweepRecord]:
    """Scan delta_a with the lock delta_b = delta_a."""
    if eta_fit_target is not None:
        p = fit_eta_to_population(p, eta_fit_target)
    points = [replace(p, delta_a=float(d), delta_b=float(d)) for d in np.atleast_1d(delta_a_grid)]
    return blas.pool_map(partial(solve_point, cutoffs=cutoffs), points, workers)


@blas.single_threaded()
def map2d(p: SystemParams, delta_a_grid, delta_diff_grid,
          cutoffs: tuple[int, int] = (4, 4), workers: int = 1) -> list[list[SweepRecord]]:
    """Outer-product map over delta_a (rows) and delta_b - delta_a (columns)."""
    da = np.atleast_1d(delta_a_grid).astype(float)
    dd = np.atleast_1d(delta_diff_grid).astype(float)
    points = [replace(p, delta_a=a, delta_b=a + d) for a in da for d in dd]
    flat = blas.pool_map(partial(solve_point, cutoffs=cutoffs), points, workers)
    n_cols = dd.size
    return [flat[r * n_cols:(r + 1) * n_cols] for r in range(da.size)]


@dataclass(frozen=True)
class EnvelopePoint:
    """Minimal g2 found for one pump strength."""

    eta: complex
    n_tot: float
    g2_min: float
    delta_a: float
    delta_b: float
    warnings: tuple[str, ...] = ()


@blas.single_threaded()
def minimize_g2(p: SystemParams, eta_values, cutoffs: tuple[int, int] = (4, 4),
                workers: int = 1, coarse_points: int = COARSE_GRID_POINTS) -> list[EnvelopePoint]:
    """Per pump strength, minimize g2(0) over (delta_a, delta_b).

    Nelder-Mead in units of kappa_a from a 0.1 kappa_a simplex, seeded from
    the best point of a coarse grid spanning +/- kappa_a around zero
    detuning.  Optimizer stagnation is reported on the envelope point, with
    the best value found.
    """
    span = p.kappa_a
    etas = list(np.atleast_1d(eta_values))
    if not etas:
        raise ValueError("eta_values must be nonempty")
    grid = np.linspace(-span, span, coarse_points)
    solve = partial(solve_point, cutoffs=cutoffs)
    out = []
    for eta in etas:
        base = replace(p, eta_a=complex(eta))
        grid_points = [replace(base, delta_a=da, delta_b=db) for da in grid for db in grid]
        records = blas.pool_map(solve, grid_points, workers)
        ok = [r for r in records if r.status == "ok" and np.isfinite(r.g2)]
        if not ok:
            out.append(EnvelopePoint(complex(eta), math.nan, math.nan, math.nan,
                                     math.nan, ("no valid coarse-grid point",)))
            continue
        best = min(ok, key=lambda r: r.g2)

        def objective(x) -> float:
            rec = solve(replace(base, delta_a=x[0] * span, delta_b=x[1] * span))
            if rec.status != "ok" or not np.isfinite(rec.g2):
                return 1e6
            return rec.g2

        x0 = np.array([best.delta_a, best.delta_b]) / span
        res = minimize(objective, x0=x0, method="Nelder-Mead",
                       options={"initial_simplex": np.vstack([x0, x0 + 0.1 * np.eye(2)]),
                                "fatol": NM_G2_TOL, "xatol": 1e-4, "maxiter": 400})
        warnings: tuple[str, ...] = ()
        if not res.success:
            warnings = (f"optimizer stagnation: {res.message}",)
        # x0 is a simplex vertex, so res.x is never worse than the grid seed
        da, db = (res.x * span).tolist()
        final = solve(replace(base, delta_a=da, delta_b=db))
        out.append(EnvelopePoint(complex(eta), final.n_tot, final.g2, final.delta_a,
                                 final.delta_b, warnings + final.warnings))
    return out


def log_bin_index(n_tot: float) -> int:
    """Logarithmic population bin used to compare map clouds against the envelope."""
    if n_tot <= 0:
        raise ValueError("n_tot must be > 0")
    return math.floor(math.log10(n_tot) * ENVELOPE_BINS_PER_DECADE)


def dominant_period(tau, values) -> float:
    """Dominant oscillation period of a sampled curve.

    Mean spacing of parabola-refined local maxima of the detrended curve
    (a plateau counts once, at its first sample); falls back to the
    zero-padded FFT peak when fewer than two maxima exist.
    """
    tau = np.asarray(tau, dtype=float)
    y = np.asarray(values, dtype=float)
    if tau.size != y.size or tau.size < 8:
        raise ValueError("need matching arrays with at least 8 samples")
    dt = tau[1] - tau[0]
    centered = y - y.mean()
    mid = centered[1:-1]
    peaks = np.flatnonzero((mid > centered[:-2]) & (mid >= centered[2:])) + 1
    if len(peaks) >= 2:
        refined = []
        for k in peaks:
            den = y[k - 1] - 2.0 * y[k] + y[k + 1]
            shift = 0.5 * (y[k - 1] - y[k + 1]) / den if den != 0 else 0.0
            refined.append(tau[k] + shift * dt)
        return float(np.mean(np.diff(refined)))
    n_fft = 16 * len(y)
    spectrum = np.abs(np.fft.rfft(centered, n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    k = int(np.argmax(spectrum[1:]) + 1)
    return float(1.0 / freqs[k])
