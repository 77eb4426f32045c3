import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockadesim.gaussian import (CalibrationFailure, GaussianState, ZeroPopulationError,
                                  g2_from_normal_moments, g2_tau, g2_zero,
                                  g2prime_from_fourth_moments, gaussian_params_from_moments)
from blockadesim.hilbert import two_mode_annihilators
from blockadesim.lindblad import (SystemParams, displaced_solution, two_time_correlations,
                                  vec)
from blockadesim.measurement import MomentSet

TWO_PI = 2.0 * math.pi
MHz = TWO_PI * 1e6


def physical_states(draw):
    alpha = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
    n = draw(st.floats(0, 3))
    frac = draw(st.floats(0, 1))
    phase = draw(st.floats(0, TWO_PI))
    s = frac * math.sqrt(n * (n + 1.0)) * complex(math.cos(phase), math.sin(phase))
    return GaussianState(alpha, n, s)


physical_state_strategy = st.composite(physical_states)()


# --- g2_zero identities ---

def test_coherent_state():
    assert g2_zero(GaussianState(0.4 + 0.3j, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)


def test_thermal_state():
    assert g2_zero(GaussianState(0.0, 0.37, 0.0)) == pytest.approx(2.0, abs=1e-15)


def test_minimal_uncertainty_oscillation():
    # n = 0, |s| = |alpha|^2: g2 = 2 + 2 cos(phi), sweeping the full [0, 4] range
    alpha = 0.25 * np.exp(0.3j)
    for phi in np.linspace(0.0, TWO_PI, 17):
        s = abs(alpha) ** 2 * np.exp(1j * (phi + 2 * np.angle(alpha)))
        got = g2_zero(GaussianState(alpha, 0.0, s))
        assert got == pytest.approx(2.0 + 2.0 * math.cos(phi), abs=1e-12)


def test_zero_population_raises():
    with pytest.raises(ZeroPopulationError):
        g2_zero(GaussianState(0.0, 0.0, 0.0))


def test_g2_from_normal_moments_is_elementwise_on_arrays():
    rng = np.random.default_rng(7)
    alpha = rng.normal(size=5) + 1j * rng.normal(size=5)
    n, m22 = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)
    s, m12 = (rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(2))
    g2 = g2_from_normal_moments(alpha, n, s, m12, m22)
    assert isinstance(g2, np.ndarray) and g2.shape == (5,)
    for k in range(5):
        one = g2_from_normal_moments(complex(alpha[k]), n[k], complex(s[k]), complex(m12[k]),
                                     m22[k])
        assert type(one) is float and one == pytest.approx(g2[k], rel=1e-14)
    n[2] = math.nan
    assert np.isnan(g2_from_normal_moments(alpha, n, s, m12, m22)[2])
    with pytest.raises(ZeroPopulationError):
        g2_from_normal_moments(np.array([1.0, 0.0]), np.zeros(2), np.zeros(2), 0.0, 0.0)


def test_thermal_dominated_limit():
    g = GaussianState(1e-4, 1.0, 0.0)
    assert g2_zero(g) == pytest.approx(2.0, abs=1e-4)


@settings(max_examples=200, deadline=None)
@given(physical_state_strategy, st.floats(0, TWO_PI))
def test_global_phase_invariance(g, theta):
    rotated = GaussianState(g.alpha * np.exp(1j * theta), g.n, g.s * np.exp(2j * theta))
    if g.n_tot < 1e-9:  # avoid underflow of n_tot^2, not a physical regime
        return
    assert g2_zero(rotated) == pytest.approx(g2_zero(g), rel=1e-10, abs=1e-10)


@settings(max_examples=300, deadline=None)
@given(physical_state_strategy)
def test_g2_nonnegative_for_physical_states(g):
    if g.n_tot < 1e-9:
        return
    assert g2_zero(g) >= -1e-12


@settings(max_examples=300, deadline=None)
@given(physical_state_strategy)
def test_g2_zero_matches_closed_form(g):
    # module docstring: g2 = 1 + [2|alpha|^2 (n + |s| cos phi) + |s|^2 + n^2] / (|alpha|^2 + n)^2
    if g.n_tot < 1e-9:
        return
    a2 = abs(g.alpha) ** 2
    phi = cmath.phase(g.s) - 2.0 * cmath.phase(g.alpha)   # arg(s / alpha^2)
    closed = 1.0 + (2.0 * a2 * (g.n + abs(g.s) * math.cos(phi)) + abs(g.s) ** 2
                    + g.n ** 2) / (a2 + g.n) ** 2
    assert g2_zero(g) == pytest.approx(closed, rel=1e-12)


def test_physicality_guard():
    with pytest.raises(ValueError):
        GaussianState(0.0, 0.1, 0.5).assert_physical()
    GaussianState(0.1, 0.1, 0.3).assert_physical()


# --- g2_tau ---

class FakeCorr:
    def __init__(self, n_tau, s_tau):
        self.n_tau = np.asarray(n_tau, dtype=complex)
        self.s_tau = np.asarray(s_tau, dtype=complex)


def test_g2_tau_reduces_to_g2_zero():
    g = GaussianState(0.3 - 0.2j, 0.01, 0.004 + 0.008j)
    corr = FakeCorr([g.n, 0.5 * g.n], [g.s, 0.1 * g.s])
    curve = g2_tau(g.alpha, corr)
    assert abs(curve[0] - g2_zero(g)) < 1e-12


def test_g2_tau_factorizes_at_long_times():
    corr = FakeCorr([0.01, 0.0], [0.005, 0.0])
    curve = g2_tau(0.2, corr)
    assert curve[-1] == pytest.approx(1.0, abs=1e-15)


def _exact_fourth_moment_g2_tau(p, cutoffs, tau):
    """Quantum-regression oracle for <a'(0) a'a(tau) a(0)> / n_tot^2 with the
    full displaced operator a = alpha + d (all cumulants included)."""
    sol = displaced_solution(p, cutoffs=cutoffs)
    alpha = sol.mean_field.alpha
    a_op, _ = two_mode_annihilators(*cutoffs)
    A = a_op.data + alpha * np.eye(a_op.side)
    Ad = A.conj().T
    rho = sol.rho.data
    evals, V = np.linalg.eig(sol.liouvillian.superoperator().toarray())
    init = np.linalg.inv(V) @ vec(A @ rho @ Ad)
    row = vec((Ad @ A).T) @ V
    curve = (np.exp(np.outer(tau, evals)) @ (row * init)).real
    return curve / np.trace(Ad @ A @ rho).real ** 2


def test_g2_tau_exact_for_linear_dynamics():
    # U = 0 leaves an exactly Gaussian state: the Wick expansion must agree
    # with the full fourth-moment regression to numerical precision
    p = SystemParams.from_mode_rates(3 * MHz, 5 * MHz, 25.1 * MHz, 0.0, 10 * MHz, 0.0,
                                     10.35 * MHz, 7.0 * MHz, 1.4e-3, 5e-4)
    tau = np.linspace(0.0, 120e-9, 121)
    exact = _exact_fourth_moment_g2_tau(p, (5, 5), tau)
    sol = displaced_solution(p, cutoffs=(5, 5))
    corr = two_time_correlations(sol.liouvillian, sol.rho, tau)
    wick = g2_tau(sol.mean_field.alpha, corr)
    assert np.abs(wick - exact).max() < 1e-8


@pytest.mark.slow
def test_g2_tau_matches_regression_oracle_at_sweep_conditions():
    """Four pump detunings at the tuned-resonator point: the Gaussian curve
    oscillates through 1 with the mode-splitting period and tracks the exact
    fourth-moment regression within 2% away from the deep interference dip
    (where the residual is the Gaussian-assumption error itself)."""
    tau = np.linspace(0.0, 120e-9, 241)
    crossed_below = crossed_above = False
    for da_mhz in (0.0, 7.0, 9.0, 11.0):
        p = SystemParams.from_mode_rates(da_mhz * MHz, da_mhz * MHz, 25.1 * MHz,
                                         0.25 * MHz, 8 * MHz, 0.0,
                                         10.35 * MHz, 7.0 * MHz, 1.4e-3, 0.0)
        exact = _exact_fourth_moment_g2_tau(p, (6, 6), tau)
        sol = displaced_solution(p, cutoffs=(6, 6))
        corr = two_time_correlations(sol.liouvillian, sol.rho, tau)
        wick = g2_tau(sol.mean_field.alpha, corr)
        assert np.max(np.abs(wick - exact) / np.abs(exact)) < 0.02
        crossed_below |= wick.min() < 1.0
        crossed_above |= wick.max() > 1.0
    # the mode-splitting oscillation period itself is asserted at the
    # strong-displacement conditions, where the 2 J harmonic is negligible
    assert crossed_below and crossed_above


# --- moment inversion ---

def _moment_set(xx, xy, yy, dc=(0.0, 0.0), n=10**6, **higher):
    moments = np.zeros((5, 5))
    moments[0, 0] = 1.0
    moments[2, 0] = xx
    moments[1, 1] = xy
    moments[0, 2] = yy
    for key, value in higher.items():
        i, j = key.split("_")[1:]
        moments[int(i), int(j)] = value
    return MomentSet(moments, dc, n)


def test_params_from_identical_on_off():
    n_h, n_th = 12.5, 7.8e-4
    off = _moment_set(n_h, 0.0, n_h)
    on = _moment_set(n_h, 0.0, n_h, dc=(0.0, 0.0))
    g = gaussian_params_from_moments(on, off, n_th)
    assert g.alpha == 0.0
    assert g.n == pytest.approx(n_th, abs=1e-15)
    assert g.s == 0.0


def test_params_dc_arithmetic():
    n_h = 12.5
    off = _moment_set(n_h, 0.0, n_h)
    c = 0.31
    on = _moment_set(n_h, 0.0, n_h, dc=(c, c))
    g = gaussian_params_from_moments(on, off, 0.0)
    assert g.alpha == pytest.approx(c * (1 + 1j) / math.sqrt(2.0), rel=1e-12)


def test_params_second_moment_inversion():
    n_h, n_th = 12.5, 5e-4
    n_true, s_true = 2.3e-3, 1.1e-3 - 0.7e-3j
    off = _moment_set(n_h, 0.0, n_h)
    on = _moment_set(n_h + (n_true - n_th) + s_true.real, s_true.imag,
                     n_h + (n_true - n_th) - s_true.real)
    g = gaussian_params_from_moments(on, off, n_th)
    assert g.n == pytest.approx(n_true, rel=1e-12)
    assert g.s == pytest.approx(s_true, rel=1e-12)


def test_params_flags_unphysical_occupation():
    n_h = 12.5
    off = _moment_set(n_h, 0.0, n_h, n=10**9)
    on = _moment_set(n_h - 0.1, 0.0, n_h - 0.1, n=10**9)
    with pytest.raises(CalibrationFailure):
        gaussian_params_from_moments(on, off, 0.0)


def _gaussian_moments(alpha, n, s, n_h, n_dc=True):
    """Analytic measured moments of a Gaussian state through the noisy chain
    (isserlis closure of the zero-mean AC part plus the DC displacement)."""
    sxx = n_h + n + s.real
    syy = n_h + n - s.real
    sxy = s.imag
    m = np.zeros((5, 5))
    m[0, 0] = 1.0
    m[2, 0], m[1, 1], m[0, 2] = sxx, sxy, syy
    m[4, 0] = 3 * sxx**2
    m[0, 4] = 3 * syy**2
    m[3, 1] = 3 * sxx * sxy
    m[1, 3] = 3 * syy * sxy
    m[2, 2] = sxx * syy + 2 * sxy**2
    dc = (math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag)
    return MomentSet(m, dc, 10**6)


def test_g2prime_matches_g2_for_gaussian_truth():
    n_h, n_th = 12.5, 7.8e-4
    truth = GaussianState(0.12 + 0.05j, 2.2e-3, 1.5e-3 - 0.9e-3j)
    on = _gaussian_moments(truth.alpha, truth.n, truth.s, n_h)
    off = _gaussian_moments(0.0, n_th, 0.0, n_h)
    got = g2prime_from_fourth_moments(on, off, gaussian_params_from_moments(on, off, n_th))
    # fourth cumulants cancel ~3 n_h^2 against itself, limiting precision
    assert got == pytest.approx(g2_zero(truth), rel=1e-6)


def test_g2prime_coherent_truth():
    n_h = 12.5
    truth = GaussianState(0.2, 0.0, 0.0)
    on = _gaussian_moments(truth.alpha, 0.0, 0.0, n_h)
    off = _gaussian_moments(0.0, 0.0, 0.0, n_h)
    state = gaussian_params_from_moments(on, off, 0.0)
    assert g2prime_from_fourth_moments(on, off, state) == pytest.approx(1.0, abs=1e-10)


def test_g2prime_flags_nonpositive_population():
    n_h = 12.5
    on = _gaussian_moments(0.0, -5e-3, 0.0, n_h)
    off = _gaussian_moments(0.0, 0.0, 0.0, n_h)
    with pytest.raises(ZeroPopulationError):
        g2prime_from_fourth_moments(on, off, gaussian_params_from_moments(on, off, 0.0))
