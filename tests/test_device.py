import math

import numpy as np
import pytest

from blockadesim.device import (SQUID_COS_EPS, CouplingMatrix, FluxDivergenceError,
                                ThermalChain, attenuation_chain_population, bose_einstein,
                                capacitance_from_resonance, hybridized_thermal_population,
                                kerr_nonlinearity, mode_thermal_populations, port_rates,
                                resonance_frequency, squid_inductance, zero_smallest_elements)

TWO_PI = 2.0 * math.pi
OMEGA_0 = TWO_PI * 5.878e9
PAPER_B = 1e-3 * np.array([[14.2, -52.0, 0.8, 3.9],
                           [-0.8, -3.4, -14.2, 54.0]])


# --- SQUID inductance ---

def test_squid_inductance_zero_flux():
    assert squid_inductance(0.0, 81e-12) == 81e-12


def test_squid_inductance_operating_point():
    # invert the analytic formula: cos(pi phi) = 81/337 fixes the flux ratio
    flux = math.acos(81.0 / 337.0) / math.pi
    assert flux == pytest.approx(0.4227, abs=2e-4)
    assert squid_inductance(flux, 81e-12) == pytest.approx(337e-12, rel=1e-12)


def test_squid_inductance_diverges_at_half_flux():
    with pytest.raises(FluxDivergenceError):
        squid_inductance(0.5, 81e-12)
    with pytest.raises(FluxDivergenceError):
        squid_inductance(0.5 + 1e-8, 81e-12)


# --- resonance frequency and Kerr ---

def test_resonance_frequency_roundtrip_at_operating_point():
    L, L_s = 1.09e-9, 337e-12
    omega = TWO_PI * 5.878e9
    C = capacitance_from_resonance(omega, L, L_s)
    assert C == pytest.approx(0.51e-12, rel=0.02)
    assert resonance_frequency(L, L_s, C) == pytest.approx(omega, rel=1e-12)


def test_resonance_frequency_direct_value():
    assert resonance_frequency(1e-9, 0.0, 1e-12) == pytest.approx(1.0 / math.sqrt(1e-21), rel=1e-12)


def test_resonance_frequency_scaling_law():
    base = resonance_frequency(1e-9, 0.2e-9, 1e-12)
    doubled = resonance_frequency(2e-9, 0.4e-9, 1e-12)
    assert doubled == pytest.approx(base / math.sqrt(2.0), rel=1e-12)


def test_resonance_frequency_domain_errors():
    with pytest.raises(ValueError):
        resonance_frequency(-1e-9, 0.0, 1e-12)
    with pytest.raises(ValueError):
        resonance_frequency(1e-9, 0.0, 0.0)


def test_kerr_nonlinearity_reference_value():
    L, L_s = 1.09e-9, 337e-12
    C = capacitance_from_resonance(TWO_PI * 5.878e9, L, L_s)
    U = kerr_nonlinearity(L, L_s, C)
    assert U == pytest.approx(TWO_PI * 0.25e6, rel=0.05)


def test_kerr_nonlinearity_trivial_cases():
    assert kerr_nonlinearity(1e-9, 0.0, 1e-12) == 0.0
    # scaling both inductances leaves the participation ratio, hence U, unchanged
    u1 = kerr_nonlinearity(1e-9, 0.3e-9, 1e-12)
    u2 = kerr_nonlinearity(3e-9, 0.9e-9, 1e-12)
    assert u1 == pytest.approx(u2, rel=1e-12)


# --- port rates ---

def test_port_rates_reference_values():
    rates = port_rates(CouplingMatrix(zero_smallest_elements(PAPER_B), OMEGA_0))
    expected = [0.59e6, 7.95e6, 0.59e6, 8.57e6]
    for rate, exp in zip(rates, expected):
        assert rate.gamma == pytest.approx(TWO_PI * exp, rel=0.01)
        assert rate.gamma > 0
        assert rate.alpha**2 + rate.beta**2 == pytest.approx(1.0, abs=1e-12)


def test_port_rates_total_insensitive_to_zeroing():
    full = sum(r.gamma for r in port_rates(CouplingMatrix(PAPER_B, OMEGA_0)))
    simp = sum(r.gamma for r in port_rates(CouplingMatrix(zero_smallest_elements(PAPER_B), OMEGA_0)))
    assert simp == pytest.approx(full, rel=0.01)


def test_port_rates_zero_column_flagged():
    B = np.zeros((2, 4))
    B[0, 0] = 0.01
    rates = port_rates(CouplingMatrix(B, OMEGA_0))
    assert rates[1].gamma == 0.0
    assert math.isnan(rates[1].alpha)


def test_port_rates_single_mode_column():
    B = np.zeros((2, 4))
    B[0, 0] = -0.02
    B[1, 3] = 0.05
    rates = port_rates(CouplingMatrix(B, OMEGA_0))
    assert rates[0].alpha == -1.0 and rates[0].beta == 0.0
    assert rates[3].alpha == 0.0 and rates[3].beta == 1.0


# --- thermal chains ---

def test_attenuation_chain_full_thermalization():
    chain = ThermalChain(((1e-12, 3.0),), source_population=55.0)
    assert attenuation_chain_population(chain, OMEGA_0) == pytest.approx(
        bose_einstein(OMEGA_0, 3.0), rel=1e-9)


def test_attenuation_chain_identity():
    chain = ThermalChain(((1.0, 4.0), (1.0, 0.1)), source_population=0.123)
    assert attenuation_chain_population(chain, OMEGA_0) == 0.123


def test_attenuation_chain_amplifier_backaction():
    # amplifier black body at its 2 K noise temperature through two
    # circulators, each acting as a -20 dB attenuator at base temperature
    chain = ThermalChain(((0.01, 0.01), (0.01, 0.01)),
                         source_population=bose_einstein(OMEGA_0, 2.0))
    assert attenuation_chain_population(chain, OMEGA_0) == pytest.approx(6.5e-4, rel=0.03)


def test_attenuation_chain_monotone_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(50):
        stages = tuple((rng.uniform(1e-3, 1.0), rng.uniform(0.0, 10.0))
                       for _ in range(rng.integers(1, 5)))
        src_low, src_high = sorted(rng.uniform(0.0, 30.0, size=2))
        n_low = attenuation_chain_population(ThermalChain(stages, src_low), OMEGA_0)
        n_high = attenuation_chain_population(ThermalChain(stages, src_high), OMEGA_0)
        assert n_low <= n_high + 1e-15
        bounds = [src_high] + [bose_einstein(OMEGA_0, t) for _, t in stages]
        assert min(bounds) - 1e-12 <= n_high <= max(bounds) + 1e-12


def test_chain_validation():
    with pytest.raises(ValueError):
        ThermalChain(((1.5, 4.0),), 0.0)
    with pytest.raises(ValueError):
        ThermalChain(((0.5, -1.0),), 0.0)


# --- mode thermal populations ---

def test_mode_thermal_populations_reference_value():
    gammas = [TWO_PI * 0.59e6, TWO_PI * 7.95e6, 0.0, 0.0]
    n_a, n_b = mode_thermal_populations(gammas, [1.5e-2, 6.5e-4, 0.0, 0.0],
                                        gamma_a=TWO_PI * 1.81e6, gamma_b=TWO_PI * 9.16e6,
                                        n_box=0.0)
    assert n_a == pytest.approx(1.4e-3, rel=0.035)
    assert n_b == 0.0


def test_mode_thermal_populations_convex():
    gammas = [1.0, 2.0, 3.0, 4.0]
    n_a, n_b = mode_thermal_populations(gammas, [0.25] * 4, gamma_a=0.5, gamma_b=0.1,
                                        n_box=0.25)
    assert n_a == pytest.approx(0.25, rel=1e-12)
    assert n_b == pytest.approx(0.25, rel=1e-12)
    n_a0, n_b0 = mode_thermal_populations(gammas, [0.0] * 4, 0.5, 0.1, 0.0)
    assert n_a0 == 0.0 and n_b0 == 0.0


def test_mode_thermal_populations_zero_rate_error():
    with pytest.raises(ValueError):
        mode_thermal_populations([0.0, 0.0, 1.0, 0.0], [0.0] * 4, 0.0, 0.0, 0.0)


# --- hybridized population ---

def test_hybridized_population_reference_value():
    value = hybridized_thermal_population(0.0, TWO_PI * 10e6, TWO_PI * 25.1e6,
                                          1.4e-3, 0.0)
    assert value == pytest.approx(7.3e-4, rel=0.02)


def test_hybridized_population_limits():
    assert hybridized_thermal_population(0.0, 1.0, 0.0, 0.37, 0.9) == pytest.approx(0.37, rel=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(30):
        delta, kappa, J = rng.uniform(0, 5), rng.uniform(0.1, 5), rng.uniform(0, 5)
        nstar = rng.uniform(0, 2)
        # weights sum to one: equal inputs are a fixed point for any geometry
        assert hybridized_thermal_population(delta, kappa, J, nstar, nstar) == pytest.approx(
            nstar, rel=1e-12)
    far = hybridized_thermal_population(1e6, 1.0, 3.0, 0.4, 0.9)
    assert far == pytest.approx(0.4, rel=1e-9)


# --- flux-tuning fit ---

def fit_flux_tuning(flux_ratios, omegas, C: float) -> tuple[float, float]:
    """Least-squares (L, L_s0) from flux-tuning samples at fixed capacitance.

    The lumped model gives 1/(omega^2 C) = L + L_s0/|cos(pi phi)|, which is
    linear in (L, L_s0), so one linear least-squares solve is the fit.
    """
    phi = np.asarray(flux_ratios, dtype=float)
    om = np.asarray(omegas, dtype=float)
    if phi.shape != om.shape or phi.size < 2:
        raise ValueError("need matching flux and frequency arrays with >= 2 samples")
    cos = np.abs(np.cos(np.pi * phi))
    if np.any(cos < SQUID_COS_EPS):
        raise FluxDivergenceError("flux samples too close to half-integer flux")
    inv_cos = 1.0 / cos
    design = np.column_stack([np.ones_like(inv_cos), inv_cos])
    (L, L_s0), *_ = np.linalg.lstsq(design, 1.0 / (om**2 * C), rcond=None)
    return float(L), float(L_s0)


def test_fit_flux_tuning_recovers_parameters():
    L_true, L_s0_true = 1.09e-9, 81e-12
    C = capacitance_from_resonance(TWO_PI * 5.878e9, L_true, 337e-12)
    flux = np.linspace(0.0, 0.45, 40)
    omega = np.array([resonance_frequency(L_true, squid_inductance(f, L_s0_true), C)
                      for f in flux])
    L_fit, L_s0_fit = fit_flux_tuning(flux, omega, C)
    assert L_fit == pytest.approx(L_true, rel=1e-9)
    assert L_s0_fit == pytest.approx(L_s0_true, rel=1e-9)


def test_fit_flux_tuning_with_noise():
    rng = np.random.default_rng(11)
    L_true, L_s0_true = 1.0e-9, 90e-12
    C = 0.5e-12
    flux = np.linspace(0.0, 0.44, 60)
    omega = np.array([resonance_frequency(L_true, squid_inductance(f, L_s0_true), C)
                      for f in flux])
    omega_noisy = omega * (1.0 + 1e-4 * rng.normal(size=omega.size))
    L_fit, L_s0_fit = fit_flux_tuning(flux, omega_noisy, C)
    assert L_fit == pytest.approx(L_true, rel=5e-3)
    assert L_s0_fit == pytest.approx(L_s0_true, rel=5e-2)


def test_fit_flux_tuning_survives_unscaled_input():
    # parameters near 1e-9 H against frequencies near 1e10 rad/s: the fit
    # must hold on these raw SI scales without rescaling
    rng = np.random.default_rng(2)
    L_true, L_s0_true = 0.6e-9, 0.2e-9
    C = 0.3e-12
    flux = np.linspace(0.0, 0.44, 22)
    omega = np.array([resonance_frequency(L_true, squid_inductance(f, L_s0_true), C)
                      for f in flux])
    omega_noisy = omega * (1.0 + 1e-4 * rng.normal(size=omega.size))
    L_fit, L_s0_fit = fit_flux_tuning(flux, omega_noisy, C)
    assert L_fit == pytest.approx(L_true, rel=5e-3)
    assert L_s0_fit == pytest.approx(L_s0_true, rel=5e-2)
