import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

import blockadesim.lindblad as lindblad_mod
from blockadesim import blas
from blockadesim.lindblad import (ConvergenceError, SystemParams, displaced_solution,
                                  g2_gradient, linearized_g2, stacked_solutions)
from blockadesim.sweep import (G2_GRADIENT_TOL, SweepRecord, dominant_period,
                               fit_eta_to_population, map2d, minimize_g2,
                               solve_point, solve_points, sweep_detuning)

TWO_PI = 2.0 * math.pi
MHz = TWO_PI * 1e6
NM_G2_TOL = 1e-4   # how much lower a Nelder-Mead restart may find g2 (the restart oracle)

J = 25.1 * MHz
U = 0.25 * MHz
KAPPA_A = 10.35 * MHz
KAPPA_B = 7.0 * MHz
N_TH_A = 1.4e-3
ENVELOPE_BINS_PER_DECADE = 10


def log_bin_index(n_tot: float) -> int:
    """Logarithmic population bin used to compare map clouds against the envelope."""
    if n_tot <= 0:
        raise ValueError("n_tot must be > 0")
    return math.floor(math.log10(n_tot) * ENVELOPE_BINS_PER_DECADE)


def sample_params(eta, n_th_a=N_TH_A):
    return SystemParams.from_mode_rates(0.0, 0.0, J, U, eta, 0.0,
                                        KAPPA_A, KAPPA_B, n_th_a, 0.0)


def test_record_population_consistency():
    rec = solve_point(sample_params(5 * MHz))
    assert rec.status == "ok"
    assert rec.n_tot == pytest.approx(abs(rec.alpha) ** 2 + rec.n, abs=1e-9)


def test_solver_failures_are_flagged(monkeypatch):
    import blockadesim.sweep as sweep_mod

    def boom(p, cutoffs=(4, 4)):
        raise ConvergenceError("forced failure")

    monkeypatch.setattr(sweep_mod, "displaced_solution", boom)
    rec = solve_point(sample_params(1 * MHz))
    assert rec.status == "failed"
    assert "forced failure" in rec.warnings[0]
    assert math.isnan(rec.g2)



def test_value_error_at_one_point_becomes_failed_row(fail_steady_state_on_call):
    fail_steady_state_on_call(3)
    records = sweep_detuning(sample_params(5 * MHz), np.linspace(-4, 4, 5) * MHz)
    assert [r.status for r in records] == ["ok", "ok", "failed", "ok", "ok"]
    assert "forced invalid density matrix" in records[2].warnings[0]
    assert all(np.isfinite(r.g2) for i, r in enumerate(records) if i != 2)

def test_weak_pump_is_thermal_everywhere():
    grid = np.linspace(-15, 15, 7) * MHz
    records = sweep_detuning(sample_params(0.01 * MHz), grid)
    for rec in records:
        assert rec.g2 == pytest.approx(2.0, abs=0.01)


def test_sweep_crosses_unity_around_displacement_minimum():
    grid = np.linspace(-20, 20, 41) * MHz
    records = sweep_detuning(sample_params(15 * MHz), grid)
    a2 = np.array([abs(r.alpha) ** 2 for r in records])
    g2 = np.array([r.g2 for r in records])
    i_min = int(np.argmin(a2))
    assert 0 < i_min < len(records) - 1
    assert g2[:i_min].max() > 1.0
    assert g2[i_min:].min() < 1.0


def test_linear_system_cannot_antibunch():
    grid = np.linspace(-20, 20, 21) * MHz
    p = SystemParams.from_mode_rates(0, 0, J, 0.0, 15 * MHz, 0.0,
                                     KAPPA_A, KAPPA_B, N_TH_A, 0.0)
    records = sweep_detuning(p, grid)
    for rec in records:
        assert rec.g2 >= 1.0 - 1e-6


def test_sweep_lock_and_order_invariance():
    grid = np.array([-4.0, 1.0, 6.0]) * MHz
    records = sweep_detuning(sample_params(10 * MHz), grid)
    assert [r.delta_a for r in records] == [pytest.approx(d) for d in grid]
    for rec in records:
        assert rec.delta_b == rec.delta_a
    shuffled = sweep_detuning(sample_params(10 * MHz), grid[::-1])
    for rec, rec_s in zip(records, reversed(shuffled)):
        assert rec.g2 == rec_s.g2 and rec.n_tot == rec_s.n_tot


def test_eta_fit_reaches_target():
    target = 7e-3
    p_fit = fit_eta_to_population(sample_params(5 * MHz), target)
    rec = solve_point(p_fit)
    assert abs(rec.alpha) ** 2 == pytest.approx(target, rel=0.01)


def test_eta_fit_needs_no_quantum_solve(monkeypatch):
    import blockadesim.lindblad as lindblad_mod

    def no_liouvillian(*args, **kwargs):
        raise AssertionError("the eta fit reads only the mean field")

    monkeypatch.setattr(lindblad_mod, "build_liouvillian", no_liouvillian)
    target = 7e-3
    p_fit = fit_eta_to_population(sample_params(5 * MHz), target)
    monkeypatch.undo()
    assert abs(solve_point(p_fit).alpha) ** 2 == pytest.approx(target, rel=0.01)


def test_sweep_with_eta_fit_target():
    grid = np.array([0.0, 2.0]) * MHz
    records = sweep_detuning(fit_eta_to_population(sample_params(5 * MHz), 7e-3), grid)
    assert abs(records[0].alpha) ** 2 == pytest.approx(7e-3, rel=0.01)


def test_map2d_structure():
    grid_a = np.array([-2.0, 3.0]) * MHz
    grid_d = np.array([-1.0, 0.0, 2.0]) * MHz
    matrix = map2d(sample_params(10 * MHz), grid_a, grid_d)
    assert len(matrix) == 2 and all(len(row) == 3 for row in matrix)
    for i, row in enumerate(matrix):
        for j, rec in enumerate(row):
            assert rec.delta_a == pytest.approx(grid_a[i])
            assert rec.delta_b - rec.delta_a == pytest.approx(grid_d[j])
    swapped = map2d(sample_params(10 * MHz), grid_d, grid_a)
    assert len(swapped) == 3 and all(len(row) == 2 for row in swapped)


def test_map2d_single_point_reduces_to_sweep():
    m = map2d(sample_params(10 * MHz), [2 * MHz], [0.0])
    s = sweep_detuning(sample_params(10 * MHz), [2 * MHz])
    assert m[0][0] == s[0]


# --- stacked grid solves ---

STACK_GRID = np.linspace(-KAPPA_A, KAPPA_A, 11).tolist()
STACK_DELTAS = [(da, db) for da in STACK_GRID for db in STACK_GRID]


def assert_records_match(stacked, per_point):
    # every field within 1e-12 relative; 1e-20 absolute covers a quantity
    # that is zero to rounding, as s (about 1e-32) at U = 0
    assert len(stacked) == len(per_point)
    for rec, ref in zip(stacked, per_point):
        assert (rec.delta_a, rec.delta_b, rec.eta) == (ref.delta_a, ref.delta_b, ref.eta)
        assert (rec.status, rec.warnings) == (ref.status, ref.warnings)
        for name in ("n_tot", "g2", "g2_prime", "alpha", "n", "s"):
            assert getattr(rec, name) == pytest.approx(getattr(ref, name), rel=1e-12, abs=1e-20)


def per_point_records(p, deltas, cutoffs):
    return [solve_point(replace(p, delta_a=da, delta_b=db), cutoffs) for da, db in deltas]


@pytest.mark.parametrize("p, deltas, cutoffs", [
    (replace(sample_params(24 * MHz), U=0.0), STACK_DELTAS[::5], (4, 4)),
    (sample_params(0.0), STACK_DELTAS[::5], (4, 4)),   # eta = 0: B = 0, the low root n = 0
    (sample_params(48 * MHz), [(25.875 * MHz, 7.245 * MHz), (0.0, 0.0)], (4, 4)),
    (sample_params(24 * MHz), [(-1.656 * MHz, 2.386 * MHz), (0.0, 0.0)], (6, 5)),   # GMRES
], ids=["U=0", "eta=0", "bistable", "gmres"])
def test_stacked_points_match_solve_point(p, deltas, cutoffs):
    stacked, per_point = solve_points(p, deltas, cutoffs), per_point_records(p, deltas, cutoffs)
    assert all(rec.status == "ok" for rec in stacked)
    assert_records_match(stacked, per_point)
    if p.eta_a == 48 * MHz:
        assert stacked[0].warnings == ("bistable mean field: selected low-amplitude branch",)
        assert stacked[1].warnings == ()
    if cutoffs == (6, 5):   # the GMRES of a stacked point is solve_point's, bit for bit
        assert stacked == per_point


def _poison_mean_field(monkeypatch, bad_delta, bad_point):
    # a NaN mean-field residual at the bad detuning
    real = lindblad_mod._mean_field

    def poisoned(q):
        alpha, beta, residual, real_roots = real(q)
        at_bad = (q.delta_a == bad_delta[0]) & (q.delta_b == bad_delta[1])
        return alpha, beta, np.where(at_bad, np.nan, residual), real_roots

    monkeypatch.setattr(lindblad_mod, "_mean_field", poisoned)


def _points_of(calls, stack):
    """The ordinals, counted across calls, of the points of one stacked call."""
    first = len(calls) + 1
    calls.extend(range(len(stack)))
    return range(first, first + len(stack))


def _fail_lu(monkeypatch, bad_delta, bad_point):
    # LAPACK reports a zero pivot at the bad point's factorization
    real, calls = lindblad_mod.dgetrf, []

    def dgetrf(a, **options):
        lu, piv, info = real(a, **options)
        calls.append(None)
        return lu, piv, 1 if len(calls) == bad_point else info

    monkeypatch.setattr(lindblad_mod, "dgetrf", dgetrf)


def _fail_gmres(monkeypatch, bad_delta, bad_point):
    # the bad point's GMRES meets a NaN product at its first step
    real, calls = lindblad_mod._gmres, []

    def failing(matvec, precondition, b):
        calls.append(None)
        if len(calls) == bad_point:
            return real(lambda x: np.full_like(x, np.nan), precondition, b)
        return real(matvec, precondition, b)

    monkeypatch.setattr(lindblad_mod, "_gmres", failing)


def _fail_residual(monkeypatch, bad_delta, bad_point):
    # L applied to the bad point's solution is far from 0
    real, calls = lindblad_mod._apply, []

    def spoiled(K, weights, jumps, rho):
        out = real(K, weights, jumps, rho)
        for k, point in enumerate(_points_of(calls, rho)):
            if point == bad_point:
                out[k] += np.abs(K).max()
        return out

    monkeypatch.setattr(lindblad_mod, "_apply", spoiled)


def _fail_state(monkeypatch, bad_delta, bad_point):
    # the bad point's state is not Hermitian
    real, calls = lindblad_mod.state_errors, []

    def spoiled(data):
        data = data.copy()
        for k, point in enumerate(_points_of(calls, data)):
            if point == bad_point:
                data[k, 0, 1] += 1.0
        return real(data)

    monkeypatch.setattr(lindblad_mod, "state_errors", spoiled)


@pytest.mark.parametrize("params, cutoffs, fail, reason", [
    (sample_params(24 * MHz), (4, 4), _poison_mean_field, "mean-field drift residual nan"),
    (sample_params(24 * MHz), (4, 4), _fail_lu, "LU solve failed: LAPACK info 1"),
    (sample_params(24 * MHz), (4, 4), _fail_residual, "steady-state residual"),
    (sample_params(24 * MHz), (4, 4), _fail_state, "density matrix not Hermitian"),
    # unpatched, every point fails: the vacuum has no population
    (sample_params(0.0, n_th_a=0.0), (4, 4), None, "total population must be > 0"),
    # unpatched: U = 1e-165 MHz overflows the mean-field cubic at every point
    (replace(sample_params(24 * MHz), U=1e-165 * MHz), (4, 4), None,
     "mean-field drift residual nan"),
    (sample_params(24 * MHz), (6, 5), _fail_gmres, "GMRES residual is not finite"),
    # unpatched: side 169^2 = 28561 is over MAX_SUPEROP_SIDE at every point,
    # checked after the mean field, whose failure comes first
    (sample_params(24 * MHz), (13, 13), None, "superoperator side 28561 exceeds the 25000 guard"),
    (replace(sample_params(24 * MHz), U=1e-165 * MHz), (13, 13), None,
     "mean-field drift residual nan"),
], ids=["mean-field", "lu-info", "residual", "state", "zero-population", "tiny-U", "gmres",
        "size-guard", "tiny-U-over-size-guard"])
def test_a_failed_point_has_solve_points_reason(monkeypatch, params, cutoffs, fail, reason):
    # solve_points fails a point with the reason solve_point gives, without
    # solving it again: every record, failed or solved, is solve_point's
    import blockadesim.sweep as sweep_mod

    deltas, bad = STACK_DELTAS[:15], 8
    real_solve, per_point_calls = sweep_mod.displaced_solution, []

    def counting(q, cutoffs=(4, 4)):
        per_point_calls.append(q)
        return real_solve(q, cutoffs=cutoffs)

    monkeypatch.setattr(sweep_mod, "displaced_solution", counting)
    if fail:
        fail(monkeypatch, deltas[bad - 1], bad)
    records = solve_points(params, deltas, cutoffs)
    assert per_point_calls == []
    if fail:
        fail(monkeypatch, deltas[bad - 1], bad)
    reference = per_point_records(params, deltas, cutoffs)
    assert len(per_point_calls) == len(deltas)
    assert [repr(rec) for rec in records] == [repr(rec) for rec in reference]
    failed = [k for k, rec in enumerate(records) if rec.status == "failed"]
    assert failed == ([bad - 1] if fail else list(range(len(deltas))))
    assert all(records[k].warnings[0].startswith(reason) for k in failed)


def test_stacked_record_does_not_depend_on_its_batch():
    # cutoff 4, where one (P, 14) @ basis product rounded 28 of 121 points by batch size
    p = sample_params(24 * MHz)
    cuts = [0, 1, 18, 19, 64, 100, 121]
    whole = solve_points(p, STACK_DELTAS, (4, 4))
    alone = [solve_points(p, [d], (4, 4))[0] for d in STACK_DELTAS]
    chunked = [rec for lo, hi in zip(cuts[:-1], cuts[1:])
               for rec in solve_points(p, STACK_DELTAS[lo:hi], (4, 4))]
    one_stack = stacked_solutions(p, STACK_DELTAS, (4, 4))   # not split into blocks
    stacked_alone = [stacked_solutions(p, [d], (4, 4))[0] for d in STACK_DELTAS]
    assert all(rec.status == "ok" for rec in whole)
    assert whole == alone == chunked
    assert all(isinstance(sol, tuple) for sol in one_stack) and one_stack == stacked_alone


@pytest.mark.slow
def test_map2d_spans_unity_at_reference_power():
    grid_a = np.linspace(-4, 10, 8) * MHz
    grid_d = np.linspace(-4, 4, 5) * MHz
    matrix = map2d(sample_params(15 * MHz), grid_a, grid_d)
    g2 = np.array([rec.g2 for row in matrix for rec in row])
    assert g2.min() < 1.0 < g2.max()


def test_parallel_workers_match_serial(monkeypatch):
    # a pool item is a block of the grid, and a point's record does not
    # depend on its block: serial runs solve each grid as one block, pooled
    # ones as blocks of 2 points, at least 4 of them, so a pool opens
    import blockadesim.sweep as sweep_mod

    p = sample_params(12 * MHz)
    grid = np.linspace(-10, 10, 8) * MHz
    grid_a, grid_d = np.linspace(-6, 8, 5) * MHz, np.linspace(-3, 3, 3) * MHz
    serial = sweep_detuning(p, grid, workers=1), map2d(p, grid_a, grid_d, workers=1)
    opened, real_pool = [], blas.ProcessPoolExecutor

    def recording_pool(*args, **kwargs):
        opened.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(sweep_mod, "STACK_POINTS", 2)
    monkeypatch.setattr(blas, "ProcessPoolExecutor", recording_pool)
    assert sweep_detuning(p, grid, workers=2) == serial[0]
    assert map2d(p, grid_a, grid_d, workers=2) == serial[1]
    assert len(opened) == 2


def test_a_grid_is_cut_by_its_length_and_cutoffs_alone(monkeypatch):
    # STACK_POINTS-point blocks at dense sizes, one-point blocks at GMRES
    # sizes, whatever the worker count
    import blockadesim.sweep as sweep_mod

    blocks = []
    monkeypatch.setattr(blas, "pool_map", lambda fn, items, workers: (
        blocks.append([len(block) for block in items]) or [[] for _ in items]))
    for workers in (1, 2, 8):
        sweep_mod._solve_grid(sample_params(12 * MHz), [(0.0, 0.0)] * 70, (4, 4), workers)
        sweep_mod._solve_grid(sample_params(12 * MHz), [(0.0, 0.0)] * 3, (6, 5), workers)
    assert blocks == [[32, 32, 6], [1, 1, 1]] * 3


def test_minimize_g2_pooled_equals_serial():
    etas = [8 * MHz, 16 * MHz, 24 * MHz, 32 * MHz]
    serial = minimize_g2(sample_params(0.0), etas, workers=1)
    assert minimize_g2(sample_params(0.0), etas, workers=2) == serial


# --- minimization ---

def blockade_params(eta, kappa=8.0 * MHz, J_=25.0 * MHz):
    u_opt = 2.0 * kappa**3 / (3.0 * math.sqrt(3.0) * J_**2)
    return SystemParams.from_mode_rates(0.0, 0.0, J_, u_opt, eta, 0.0,
                                        kappa, kappa, 0.0, 0.0)


@pytest.mark.slow
def test_blockade_condition_reaches_deep_antibunching():
    env = minimize_g2(blockade_params(0.05 * MHz), [0.05 * MHz])
    assert env[0].g2 < 0.05


@pytest.mark.slow
def test_minimize_is_stable_under_grid_refinement(monkeypatch):
    import blockadesim.sweep as sweep_mod

    p = blockade_params(0.05 * MHz)
    monkeypatch.setattr(sweep_mod, "COARSE_GRID_POINTS", 11)
    coarse = minimize_g2(p, [0.05 * MHz])[0]
    monkeypatch.setattr(sweep_mod, "COARSE_GRID_POINTS", 21)
    fine = minimize_g2(p, [0.05 * MHz])[0]
    # the BFGS polish should erase the seeding difference
    assert fine.g2 == pytest.approx(coarse.g2, abs=0.02 * max(coarse.g2, 0.05))


def test_strong_pump_tends_coherent(monkeypatch):
    import blockadesim.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "COARSE_GRID_POINTS", 7)
    env = minimize_g2(sample_params(300 * MHz), [300 * MHz])
    assert env[0].g2 == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("eta_mhz", [24, 32, 48])
def test_envelope_optimum_survives_a_restart(eta_mhz):
    # a fresh Nelder-Mead in kappa_a units, started at the returned optimum
    # with a 0.1 kappa_a simplex, must not find a better g2, and neither may
    # a grid three times wider than the +/- kappa_a seeding grid (at 48 MHz
    # the optimum lies outside the seeding grid)
    p = sample_params(eta_mhz * MHz)
    env = minimize_g2(p, [eta_mhz * MHz])[0]

    def g2(x):
        return solve_point(replace(p, delta_a=x[0] * KAPPA_A, delta_b=x[1] * KAPPA_A)).g2

    x0 = np.array([env.delta_a, env.delta_b]) / KAPPA_A
    res = minimize(g2, x0, method="Nelder-Mead",
                   options={"initial_simplex": np.vstack([x0, x0 + 0.1 * np.eye(2)]),
                            "fatol": 1e-7, "xatol": 1e-6})
    assert env.g2 - res.fun <= NM_G2_TOL
    wide = np.linspace(-3.0, 3.0, 13)
    assert np.nanmin([g2((a, b)) for a in wide for b in wide]) >= env.g2 - NM_G2_TOL


@pytest.mark.slow
def test_envelope_is_lower_bound_in_population_bin():
    eta = 16 * MHz
    env = minimize_g2(sample_params(eta), [eta])[0]
    env_bin = log_bin_index(env.n_tot)
    grid_a = np.linspace(-6, 8, 8) * MHz
    grid_d = np.linspace(-3, 3, 5) * MHz
    matrix = map2d(sample_params(eta), grid_a, grid_d)
    for row in matrix:
        for rec in row:
            if rec.status == "ok" and rec.n_tot > 0 and log_bin_index(rec.n_tot) == env_bin:
                assert rec.g2 >= env.g2 - 1e-3


ACCEPTANCE_7_ETAS = [8 * MHz, 12 * MHz, 16 * MHz, 24 * MHz, 32 * MHz, 48 * MHz]


def test_envelope_optima_are_stationary(monkeypatch):
    # every chain stops on the gradient norm, and a fresh solve and gradient
    # at the written detunings confirm it (BLAS at one thread, as in minimize_g2)
    import blockadesim.sweep as sweep_mod

    real, results = sweep_mod.minimize, []

    def recording_minimize(*args, **options):
        results.append(real(*args, **options))
        return results[-1]

    monkeypatch.setattr(sweep_mod, "minimize", recording_minimize)
    p = sample_params(0.0)
    env = minimize_g2(p, ACCEPTANCE_7_ETAS)
    assert len(results) == len(ACCEPTANCE_7_ETAS)
    for eta, point, res in zip(ACCEPTANCE_7_ETAS, env, results):
        assert res.success and np.linalg.norm(res.jac) <= G2_GRADIENT_TOL
        assert point.warnings == () and point.status == "ok"
        at = replace(p, eta_a=complex(eta), delta_a=point.delta_a, delta_b=point.delta_b)
        gradient = KAPPA_A * g2_gradient(at, displaced_solution(at))
        assert np.linalg.norm(gradient) <= G2_GRADIENT_TOL, eta / MHz


def rosenbrock(x):
    value = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    return value, np.array([-2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                            200.0 * (x[1] - x[0] ** 2)])


def test_bfgs_reaches_the_rosenbrock_minimum():
    import blockadesim.sweep as sweep_mod

    res = sweep_mod.minimize(rosenbrock, [-1.2, 1.0], gtol=1e-8, maxiter=200)
    assert res.success and res.message == "Optimization terminated successfully."
    assert np.linalg.norm(res.jac) <= 1e-8
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-8)
    value, gradient = rosenbrock(res.x)
    assert res.fun == value and np.array_equal(res.jac, gradient)
    assert res.nit < res.nfev < 100


def test_bfgs_stops_at_maxiter_and_at_a_nonfinite_start():
    import blockadesim.sweep as sweep_mod

    capped = sweep_mod.minimize(rosenbrock, [-1.2, 1.0], gtol=1e-8, maxiter=5)
    assert (capped.nit, capped.success) == (5, False)
    assert capped.message == "Maximum number of iterations has been exceeded."
    assert capped.fun < rosenbrock([-1.2, 1.0])[0]
    nan = sweep_mod.minimize(lambda x: (math.nan, np.full(2, math.nan)), [0.0, 0.0],
                             gtol=1e-8, maxiter=5)
    assert (nan.nfev, nan.success) == (1, False)
    assert nan.message == "The objective is not finite at the start."


def test_optimizer_hitting_maxiter_is_reported(monkeypatch):
    import blockadesim.sweep as sweep_mod

    real = sweep_mod.minimize
    monkeypatch.setattr(sweep_mod, "minimize",
                        lambda fun, x0, **options: real(fun, x0, **{**options, "maxiter": 3}))
    env = minimize_g2(sample_params(24 * MHz), [24 * MHz])[0]
    assert np.isfinite(env.g2)
    assert ("optimizer stagnation: Maximum number of iterations has been exceeded."
            in env.warnings)


def test_eta_without_a_solved_grid_point_is_a_failed_record(monkeypatch):
    import blockadesim.sweep as sweep_mod

    real_seed, bad = sweep_mod.linearized_g2, 16 * MHz

    def seed_fails_at_bad_eta(p):
        g2, n, s = real_seed(p)
        return (np.full_like(g2, math.nan), n, s) if p.eta_a == bad else (g2, n, s)

    monkeypatch.setattr(sweep_mod, "linearized_g2", seed_fails_at_bad_eta)
    failed, solved = minimize_g2(sample_params(0.0), [bad, 24 * MHz])
    assert failed.status == "failed" and failed.eta == bad
    assert failed.warnings == ("no valid coarse-grid point",)
    assert all(map(math.isnan, (failed.delta_a, failed.delta_b, failed.n_tot, failed.g2)))
    assert solved.status == "ok" and np.isfinite(solved.g2)


def test_envelope_point_is_the_solved_best_vertex(monkeypatch):
    # the final point reuses the objective's record: no point is solved twice
    import blockadesim.sweep as sweep_mod

    real_solve, real_minimize = sweep_mod.displaced_solution, sweep_mod.minimize
    solved_at, results = [], []

    def counting_solve(p, cutoffs=(4, 4)):
        solved_at.append(tuple(cutoffs))
        return real_solve(p, cutoffs)

    def recording_minimize(*args, **options):
        results.append(real_minimize(*args, **options))
        return results[-1]

    monkeypatch.setattr(sweep_mod, "displaced_solution", counting_solve)
    monkeypatch.setattr(sweep_mod, "minimize", recording_minimize)
    etas = [16 * MHz, 24 * MHz]
    env = minimize_g2(sample_params(0.0), etas)
    # every BFGS evaluation, the seed among them, is solved once at the
    # configured cutoff 4
    assert Counter(solved_at) == {(4, 4): sum(res.nfev for res in results)}
    # the same record a fresh solve at the returned detunings gives: the
    # solve pins BLAS to one thread itself (the LU rounds by thread count)
    for eta, point in zip(etas, env):
        fresh = solve_point(replace(sample_params(0.0), eta_a=complex(eta),
                                    delta_a=point.delta_a, delta_b=point.delta_b))
        assert (point.n_tot, point.g2, point.delta_a, point.delta_b) == (
            fresh.n_tot, fresh.g2, fresh.delta_a, fresh.delta_b)
        assert [type(v) for v in (point.delta_a, point.delta_b)] == [float, float]


def test_linearized_seed_is_the_cutoff_4_grid_seed_at_the_envelope_etas(monkeypatch):
    # the seed the linearized model picks is the argmin a cutoff-4 grid would pick
    import blockadesim.sweep as sweep_mod

    real_seed, seeds = sweep_mod.linearized_g2, {}

    def recording_seed(p):
        seeds[p.eta_a] = p, real_seed(p)[0]
        return real_seed(p)

    monkeypatch.setattr(sweep_mod, "linearized_g2", recording_seed)
    minimize_g2(sample_params(0.0), ACCEPTANCE_7_ETAS)
    assert list(seeds) == [complex(eta) for eta in ACCEPTANCE_7_ETAS]
    for eta, (p, g2) in seeds.items():
        assert g2.shape == (sweep_mod.COARSE_GRID_POINTS ** 2,) and np.isfinite(g2).all()
        at_4 = solve_points(p, np.column_stack((p.delta_a, p.delta_b)), (4, 4))
        assert all(r.status == "ok" for r in at_4)
        assert np.argmin(g2) == np.argmin([r.g2 for r in at_4]), eta / MHz


def test_linearized_g2_is_within_1_percent_of_cutoff_6_at_the_envelope_optima():
    # a cutoff-free cross-check of the displaced solve: the linearized model
    # against the cutoff-6 Gaussian g2 at the six optima
    p = sample_params(0.0)
    for point in minimize_g2(p, ACCEPTANCE_7_ETAS):
        at = replace(p, eta_a=point.eta, delta_a=np.array([point.delta_a]),
                     delta_b=np.array([point.delta_b]))
        linearized = linearized_g2(at)[0][0]
        at_6 = solve_point(replace(at, delta_a=point.delta_a, delta_b=point.delta_b), (6, 6))
        assert linearized == pytest.approx(at_6.g2, rel=1e-2), point.eta / MHz


@pytest.mark.parametrize("cutoffs", [(2, 2), (3, 3), (5, 5), (2, 5)])
def test_seed_solves_nothing_and_the_chain_runs_at_the_cutoff(monkeypatch, cutoffs):
    import blockadesim.sweep as sweep_mod

    real_solve, stacked, solved_at = sweep_mod.displaced_solution, [], []

    def recording_solve(p, cutoffs=(4, 4)):
        solved_at.append(tuple(cutoffs))
        return real_solve(p, cutoffs)

    monkeypatch.setattr(sweep_mod, "COARSE_GRID_POINTS", 3)
    monkeypatch.setattr(sweep_mod, "stacked_solutions", lambda *args: stacked.append(args))
    monkeypatch.setattr(sweep_mod, "displaced_solution", recording_solve)
    env = minimize_g2(sample_params(0.0), [24 * MHz], cutoffs=cutoffs)[0]
    assert env.status == "ok"
    assert stacked == []
    assert solved_at and set(solved_at) == {cutoffs}


def test_minimize_requires_etas():
    with pytest.raises(ValueError):
        minimize_g2(sample_params(1 * MHz), [])


# --- period estimation ---

def test_dominant_period_on_damped_cosine():
    t = np.linspace(0.0, 200e-9, 801)
    period = 40e-9
    y = 1.0 + 0.4 * np.exp(-t / 80e-9) * np.cos(2 * np.pi * t / period + 0.4)
    assert dominant_period(t, y) == pytest.approx(period, rel=0.02)


def test_dominant_period_fft_fallback(monkeypatch):
    # 1.2 periods hold one interior maximum, too few for the peak spacing
    rfft, calls = np.fft.rfft, []
    monkeypatch.setattr(np.fft, "rfft",
                        lambda *args, **kwargs: calls.append(1) or rfft(*args, **kwargs))
    t = np.linspace(0.0, 30e-9, 512)
    y = np.cos(2 * np.pi * t / 25e-9)
    assert dominant_period(t, y) == pytest.approx(25e-9, rel=0.05)
    assert len(calls) == 1
