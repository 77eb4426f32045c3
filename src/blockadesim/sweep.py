"""Parameter sweeps, g2 minimization and g2(tau) over detunings.

The detunings of a grid (a ``g2-sweep`` scan, a ``map``) are cut once into
blocks, of STACK_POINTS points at dense sizes and of one at GMRES sizes;
``solve_points`` solves a block as one stacked solve at any cutoffs
(``lindblad.stacked_solutions``: the per-point checks on a stack, each
point's LU or GMRES set up as for ``displaced_solution``).  A pump strength
(one BFGS optimization, on g2 and its gradient from the factorization of
each solve, seeded by ``lindblad.linearized_g2``) and a g2(tau) detuning
are solved point by point.  Each sweep is one ``blas.pool_map``, whose
items are a grid's blocks, the pump strengths or the detunings; it keeps
order and runs BLAS at one thread, and a point's stacked result does not
depend on the points solved with it, so serial and pooled sweeps give the
same rows.  Every point or unit gives one ``SweepRecord``, with status
"failed" and the reason instead of aborting the sweep when its solve fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import blas
from .gaussian import g2_tau
from .lindblad import (DENSE_SUPEROP_MAX_JOINT_DIM, ConvergenceError, SteadyStateError,
                       SystemParams, displaced_solution, g2_gradient, linearized_g2,
                       mean_field_steady_state, stacked_solutions, two_time_correlations)

ETA_FIT_TOL = 1e-2
ETA_FIT_MAX_ITER = 40
# BFGS stops at this |grad g2| in kappa_a units; its line search meets
# g2's rounding near 1e-7
G2_GRADIENT_TOL = 1e-6
BFGS_MAX_ITER = 50
COARSE_GRID_POINTS = 11
# points per block of a dense grid, one stacked solve and one pool_map item:
# at cutoff 4, the map and g2-sweep default, its temporaries, mostly L's
# entries, peak at 3.4 MB (tracemalloc), against 0.7 MB for one per-point
# solve (128 points: 11.8 MB, for 3-7 % less time)
STACK_POINTS = 32
# what fails one unit of a sweep (a stacked grid gives their messages);
# ValueError covers the trace, state and population checks and LinAlgError
SOLVE_ERRORS = (ConvergenceError, SteadyStateError, ValueError)


@dataclass(frozen=True)
class SweepRecord:
    """One unit of a sweep: solved when status is "ok", else the reason is in warnings."""

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


def _solved_record(p: SystemParams, mean_field, obs) -> SweepRecord:
    return SweepRecord(p.delta_a, p.delta_b, p.eta_a, obs.n_tot, obs.g2_gaussian,
                       obs.g2_prime, mean_field.alpha, obs.n, obs.s, mean_field.warnings)


def _solve_record(p: SystemParams, cutoffs: tuple[int, int], then) -> tuple[SweepRecord, object]:
    """``displaced_solution`` at p as a record, and then(solution); when either
    raises one of SOLVE_ERRORS, a failed record with the reason, and None."""
    try:
        sol = displaced_solution(p, cutoffs=cutoffs)
        return _solved_record(p, sol.mean_field, sol.obs), then(sol)
    except SOLVE_ERRORS as exc:
        return _failed_record(p, str(exc)), None


def solve_point(p: SystemParams, cutoffs: tuple[int, int] = (4, 4)) -> SweepRecord:
    """Displaced-frame solve wrapped so failures become flagged records."""
    return _solve_record(p, cutoffs, lambda sol: None)[0]


def solve_points(p: SystemParams, deltas, cutoffs: tuple[int, int] = (4, 4)) -> list[SweepRecord]:
    """``solve_point`` at each (delta_a, delta_b) of deltas, p giving every other parameter.

    By one ``lindblad.stacked_solutions`` call at any cutoffs, whose message
    for a failed point is the record's reason.  A point's record does not
    depend on the points solved with it, and is ``solve_point``'s.
    """
    points = [replace(p, delta_a=float(da), delta_b=float(db)) for da, db in deltas]
    solved = stacked_solutions(p, [(q.delta_a, q.delta_b) for q in points], cutoffs)
    return [_failed_record(q, sol) if isinstance(sol, str) else _solved_record(q, *sol)
            for q, sol in zip(points, solved)]


def _solve_grid(p: SystemParams, deltas: list, cutoffs: tuple[int, int],
                workers: int) -> list[SweepRecord]:
    """``solve_points`` over deltas cut into contiguous blocks, each one
    ``blas.pool_map`` item: STACK_POINTS points at dense sizes, one at GMRES
    sizes.  The blocks depend on the grid's length and cutoffs alone; a
    grid of fewer than 4 blocks runs serially."""
    size = STACK_POINTS if math.prod(cutoffs) <= DENSE_SUPEROP_MAX_JOINT_DIM else 1
    blocks = [deltas[start:start + size] for start in range(0, len(deltas), size)]
    solved = blas.pool_map(partial(solve_points, p, cutoffs=cutoffs), blocks, workers)
    return [record for block in solved for record in block]


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


def sweep_detuning(p: SystemParams, delta_a_grid, cutoffs: tuple[int, int] = (4, 4),
                   workers: int = 1) -> list[SweepRecord]:
    """Scan delta_a with the lock delta_b = delta_a."""
    grid = np.atleast_1d(delta_a_grid).astype(float).tolist()
    return _solve_grid(p, [(d, d) for d in grid], cutoffs, workers)


def map2d(p: SystemParams, delta_a_grid, delta_diff_grid,
          cutoffs: tuple[int, int] = (4, 4), workers: int = 1) -> list[list[SweepRecord]]:
    """Outer-product map over delta_a (rows) and delta_b - delta_a (columns)."""
    da = np.atleast_1d(delta_a_grid).astype(float).tolist()
    dd = np.atleast_1d(delta_diff_grid).astype(float).tolist()
    flat = _solve_grid(p, [(a, a + d) for a in da for d in dd], cutoffs, workers)
    n_cols = len(dd)
    return [flat[r * n_cols:(r + 1) * n_cols] for r in range(len(da))]


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of ``minimize``: the last accepted iterate, its value and gradient, the counts."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nfev: int
    nit: int
    success: bool
    message: str


def minimize(fun, x0, gtol: float, maxiter: int) -> MinimizeResult:
    """BFGS (Nocedal & Wright, Numerical Optimization, 2nd ed., alg. 6.1) from x0.

    fun(x) returns the value and the gradient.  The inverse Hessian starts
    as the identity, so the first trial step is -g in the units of x.  Each
    step backtracks from the quasi-Newton step until the Armijo condition
    f(x + t p) <= f(x) + 1e-4 t g.p holds, the next t the minimum of the
    quadratic through f(x), g.p and f(x + t p), kept within [0.1 t, 0.5 t]
    (N&W sec. 3.5); a value that is not finite halves t.  An update with
    s.y <= 0 is skipped.  Stops successfully when |g| <= gtol, and
    unsuccessfully after maxiter steps, after 30 backtracks without a
    decrease, or at a start where f is not finite.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nfev, nit, identity = 1, 0, np.eye(x.size)
    H, message = identity, None
    while message is None:
        if not math.isfinite(f):
            message = "The objective is not finite at the start."
        elif np.linalg.norm(g) <= gtol:
            break
        elif nit >= maxiter:
            message = "Maximum number of iterations has been exceeded."
        else:
            p = -H @ g
            slope, t = g @ p, 1.0
            for _ in range(31):
                f_new, g_new = fun(x + t * p)
                nfev += 1
                if f_new <= f + 1e-4 * t * slope:
                    break
                t_min = (-slope * t * t / (2.0 * (f_new - f - slope * t))
                         if math.isfinite(f_new) else 0.5 * t)
                t = min(max(t_min, 0.1 * t), 0.5 * t)
            else:
                message = "The line search found no decrease."
                continue
            s, y = t * p, g_new - g
            sy = s @ y
            if sy > 0:
                V = identity - np.outer(s, y) / sy
                H = V @ H @ V.T + np.outer(s, s) / sy
            x, f, g = x + s, f_new, g_new
            nit += 1
    return MinimizeResult(x, f, g, nfev, nit, message is None,
                          message or "Optimization terminated successfully.")


def _envelope_point(p: SystemParams, cutoffs: tuple[int, int], eta) -> SweepRecord:
    """One pump strength of ``minimize_g2``: linearized seed, BFGS chain, accepted iterate.

    The seed is the argmin of ``linearized_g2`` over the coarse grid; the
    chain and so the returned record are at ``cutoffs``.  The objective
    returns g2 and its gradient in kappa_a units (``g2_gradient``, from the
    solve's own factorization) and keeps each point's record, so the result
    is the record solved at the accepted iterate.
    """
    span = p.kappa_a
    grid = np.linspace(-span, span, COARSE_GRID_POINTS)
    delta_a, delta_b = (d.ravel() for d in np.meshgrid(grid, grid, indexing="ij"))
    base = replace(p, eta_a=complex(eta))
    g2 = linearized_g2(replace(base, delta_a=delta_a, delta_b=delta_b))[0]
    if np.isnan(g2).all():
        return _failed_record(replace(base, delta_a=math.nan, delta_b=math.nan),
                              "no valid coarse-grid point")
    best = np.nanargmin(g2)
    solved = {}

    def objective(x):
        da, db = key = tuple((x * span).tolist())
        point = replace(base, delta_a=da, delta_b=db)
        solved[key], gradient = _solve_record(point, cutoffs, partial(g2_gradient, point))
        return solved[key].g2, np.full(2, math.nan) if gradient is None else span * gradient

    res = minimize(objective, np.array([delta_a[best], delta_b[best]]) / span,
                   gtol=G2_GRADIENT_TOL, maxiter=BFGS_MAX_ITER)
    final = solved[tuple((res.x * span).tolist())]
    if not res.success:
        final = replace(final, warnings=(f"optimizer stagnation: {res.message}",) + final.warnings)
    return final


def minimize_g2(p: SystemParams, eta_values, cutoffs: tuple[int, int] = (4, 4),
                workers: int = 1) -> list[SweepRecord]:
    """Per pump strength, minimize g2(0) over (delta_a, delta_b).

    BFGS (``minimize``) in units of kappa_a, on g2 and its gradient from
    the LU of each solve (``g2_gradient``), seeded from the best point of a
    COARSE_GRID_POINTS-square grid spanning +/- kappa_a around zero
    detuning.  The grid is scored by the linearized Gaussian model
    (``linearized_g2``, one stacked 16 x 16 Lyapunov solve, no Fock
    cutoff) and only picks the seed (at the acceptance etas it picks the
    seed a cutoff-4 grid picks).  The chain stops when
    |grad g2| <= G2_GRADIENT_TOL (kappa_a units), a stationary point; every
    iterate is solved at ``cutoffs`` and the result is the record solved at
    the accepted one, so every written value comes from the configured
    cutoff.  A chain that stops short (BFGS_MAX_ITER steps,
    a line search without decrease, or a seed that fails at ``cutoffs``)
    puts "optimizer stagnation: <reason>" first in its warnings.  Without a
    grid point the linearized model scores (a failed mean field, an
    unstable linearization or no population at all of them) the result is
    failed, at NaN detunings.  One pump strength is one serial
    ``blas.pool_map`` task.
    """
    etas = list(np.atleast_1d(eta_values))
    if not etas:
        raise ValueError("eta_values must be nonempty")
    return blas.pool_map(partial(_envelope_point, p, cutoffs), etas, workers)


def _g2_tau_point(p: SystemParams, cutoffs: tuple[int, int], tau, delta_a):
    """One ``sweep_g2_tau`` detuning: its record, and (correlations, curve, period) or None."""
    def curves(sol):
        corr = two_time_correlations(sol.liouvillian, sol.rho, tau)
        curve = g2_tau(sol.mean_field.alpha, corr)
        return corr, curve, dominant_period(tau, curve)

    return _solve_record(replace(p, delta_a=delta_a, delta_b=delta_a), cutoffs, curves)


def sweep_g2_tau(p: SystemParams, delta_a_values, tau, cutoffs: tuple[int, int] = (4, 4),
                 workers: int = 1) -> list[tuple[SweepRecord, tuple | None]]:
    """Per detuning (delta_b = delta_a), the quantum-regression g2(tau) and its
    dominant period; one detuning is one serial ``blas.pool_map`` task."""
    return blas.pool_map(partial(_g2_tau_point, p, cutoffs, tau), delta_a_values, workers)


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
