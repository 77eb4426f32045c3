import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from blockadesim.lindblad import ConvergenceError, SystemParams
from blockadesim.sweep import (NM_G2_TOL, EnvelopePoint, SweepRecord, dominant_period,
                               fit_eta_to_population, log_bin_index, map2d, minimize_g2,
                               solve_point, sweep_detuning)

TWO_PI = 2.0 * math.pi
MHz = TWO_PI * 1e6

J = 25.1 * MHz
U = 0.25 * MHz
KAPPA_A = 10.35 * MHz
KAPPA_B = 7.0 * MHz
N_TH_A = 1.4e-3


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
    records = sweep_detuning(sample_params(5 * MHz), grid, eta_fit_target=7e-3)
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


@pytest.mark.slow
def test_map2d_spans_unity_at_reference_power():
    grid_a = np.linspace(-4, 10, 8) * MHz
    grid_d = np.linspace(-4, 4, 5) * MHz
    matrix = map2d(sample_params(15 * MHz), grid_a, grid_d)
    g2 = np.array([rec.g2 for row in matrix for rec in row])
    assert g2.min() < 1.0 < g2.max()


def test_parallel_workers_match_serial():
    grid = np.linspace(-10, 10, 6) * MHz
    serial = sweep_detuning(sample_params(12 * MHz), grid, workers=1)
    parallel = sweep_detuning(sample_params(12 * MHz), grid, workers=2)
    for a, b in zip(serial, parallel):
        assert a.g2 == b.g2
        assert a.alpha == b.alpha


# --- minimization ---

def blockade_params(eta, kappa=8.0 * MHz, J_=25.0 * MHz):
    u_opt = 2.0 * kappa**3 / (3.0 * math.sqrt(3.0) * J_**2)
    return SystemParams.from_mode_rates(0.0, 0.0, J_, u_opt, eta, 0.0,
                                        kappa, kappa, 0.0, 0.0)


@pytest.mark.slow
def test_blockade_condition_reaches_deep_antibunching():
    env = minimize_g2(blockade_params(0.05 * MHz), [0.05 * MHz])
    assert env[0].g2_min < 0.05


@pytest.mark.slow
def test_minimize_is_stable_under_grid_refinement():
    p = blockade_params(0.05 * MHz)
    coarse = minimize_g2(p, [0.05 * MHz], coarse_points=11)[0]
    fine = minimize_g2(p, [0.05 * MHz], coarse_points=21)[0]
    # the Nelder-Mead polish should erase the seeding difference
    assert fine.g2_min == pytest.approx(coarse.g2_min, abs=0.02 * max(coarse.g2_min, 0.05))


def test_strong_pump_tends_coherent():
    env = minimize_g2(sample_params(300 * MHz), [300 * MHz], coarse_points=7)
    assert env[0].g2_min == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("eta_mhz", [24, 32])
def test_envelope_optimum_survives_a_restart(eta_mhz):
    # a fresh Nelder-Mead in kappa_a units, started at the returned optimum
    # with a 0.1 kappa_a simplex, must not find a better g2
    p = sample_params(eta_mhz * MHz)
    env = minimize_g2(p, [eta_mhz * MHz])[0]

    def g2(x):
        return solve_point(replace(p, delta_a=x[0] * KAPPA_A, delta_b=x[1] * KAPPA_A)).g2

    x0 = np.array([env.delta_a, env.delta_b]) / KAPPA_A
    res = minimize(g2, x0, method="Nelder-Mead",
                   options={"initial_simplex": np.vstack([x0, x0 + 0.1 * np.eye(2)]),
                            "fatol": 1e-7, "xatol": 1e-6})
    assert env.g2_min - res.fun <= NM_G2_TOL


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
                assert rec.g2 >= env.g2_min - 1e-3


def test_minimize_requires_etas():
    with pytest.raises(ValueError):
        minimize_g2(sample_params(1 * MHz), [])


# --- period estimation ---

def test_dominant_period_on_damped_cosine():
    t = np.linspace(0.0, 200e-9, 801)
    period = 40e-9
    y = 1.0 + 0.4 * np.exp(-t / 80e-9) * np.cos(2 * np.pi * t / period + 0.4)
    assert dominant_period(t, y) == pytest.approx(period, rel=0.02)


def test_dominant_period_fft_fallback():
    t = np.linspace(0.0, 100e-9, 512)
    y = np.cos(2 * np.pi * t / 25e-9)
    assert dominant_period(t, y) == pytest.approx(25e-9, rel=0.05)
