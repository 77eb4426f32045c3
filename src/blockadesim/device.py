"""Physical model parameters from circuit-level inputs.

Lumped-element model of the tunable resonator (series L, SQUID inductance,
C), Kerr nonlinearity from the SQUID participation ratio, port coupling
rates from the 2x4 coupling matrix, and thermal occupations folded through
cryostat attenuation chains.  Each decision is made once: the coupling
matrix the model uses is ``DeviceConfig.coupling`` and both mode
occupations come from ``mode_thermal_populations``.  All frequencies are
angular (rad/s); unit conversion happens at the configuration layer, never
here.  The module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HBAR = 1.054571817e-34      # J s
PLANCK_H = 6.62607015e-34   # J s
K_B = 1.380649e-23          # J / K
E_CHARGE = 1.602176634e-19  # C
R_K = PLANCK_H / E_CHARGE**2  # von Klitzing resistance h/e^2, ohm

SQUID_COS_EPS = 1e-6
ZEROED_COUPLINGS = 4   # B entries dropped by the single-mode-per-port simplification


class FluxDivergenceError(ValueError):
    """SQUID inductance evaluated too close to a half-integer flux quantum."""


@dataclass(frozen=True)
class CouplingMatrix:
    """Dimensionless 2x4 mode-to-port coupling matrix and its reference frequency."""

    B: np.ndarray
    omega_0: float

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.shape != (2, 4):
            raise ValueError(f"B must be 2x4, got shape {B.shape}")
        if not np.all(np.isfinite(B)):
            raise ValueError("B must be finite")
        if self.omega_0 <= 0:
            raise ValueError("omega_0 must be > 0")
        object.__setattr__(self, "B", B)


@dataclass(frozen=True)
class PortRate:
    """Loss rate of one port and the mode mixture it couples to.

    For a dark port (gamma == 0) the mixture is undefined; alpha and beta
    are then nan.
    """

    gamma: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class ThermalChain:
    """Attenuation chain seen by one port: (power factor D, temperature) stages.

    The fold starts from ``source_population`` (occupation of the field
    entering the chain) and applies the stages in order.
    """

    stages: tuple[tuple[float, float], ...]
    source_population: float

    def __post_init__(self):
        stages = tuple((float(d), float(t)) for d, t in self.stages)
        for d, t in stages:
            if not 0 < d <= 1:
                raise ValueError(f"attenuation power factor must be in (0, 1], got {d}")
            if t < 0:
                raise ValueError(f"stage temperature must be >= 0, got {t}")
        if self.source_population < 0:
            raise ValueError("source population must be >= 0")
        object.__setattr__(self, "stages", stages)


def squid_inductance(flux_ratio: float, L_s0: float) -> float:
    """SQUID inductance L_s0 / |cos(pi * flux_ratio)|.

    Raises FluxDivergenceError within SQUID_COS_EPS of a half-integer flux,
    where the lumped model diverges.
    """
    if L_s0 <= 0:
        raise ValueError(f"L_s0 must be > 0, got {L_s0}")
    c = abs(math.cos(math.pi * flux_ratio))
    if c < SQUID_COS_EPS:
        raise FluxDivergenceError(
            f"flux_ratio {flux_ratio} is within eps of a half-integer flux quantum"
        )
    return L_s0 / c


def resonance_frequency(L: float, L_s: float, C: float) -> float:
    """Series-RLC angular resonance 1/sqrt((L + L_s) C).  L_s may be 0."""
    if L <= 0 or C <= 0 or L_s < 0:
        raise ValueError(f"need L > 0, C > 0, L_s >= 0; got L={L}, L_s={L_s}, C={C}")
    return 1.0 / math.sqrt((L + L_s) * C)


def capacitance_from_resonance(omega: float, L: float, L_s: float) -> float:
    """Invert resonance_frequency for C at a known angular frequency."""
    if omega <= 0 or L <= 0 or L_s < 0:
        raise ValueError(f"need omega > 0, L > 0, L_s >= 0; got {omega}, {L}, {L_s}")
    return 1.0 / (omega**2 * (L + L_s))


def kerr_nonlinearity(L: float, L_s: float, C: float) -> float:
    """Kerr shift per photon pair, pi p^3 / (2 R_K C) with p = L_s/(L + L_s)."""
    if L <= 0 or C <= 0 or L_s < 0:
        raise ValueError(f"need L > 0, C > 0, L_s >= 0; got L={L}, L_s={L_s}, C={C}")
    p = L_s / (L + L_s)
    return math.pi * p**3 / (2.0 * R_K * C)


def port_rates(cm: CouplingMatrix) -> list[PortRate]:
    """Per-port loss rates gamma_j = (omega_0/2)(B_1j^2 + B_2j^2) and mode mixtures."""
    rates = []
    for j in range(4):
        b1, b2 = cm.B[0, j], cm.B[1, j]
        norm2 = b1 * b1 + b2 * b2
        gamma = 0.5 * cm.omega_0 * norm2
        if norm2 == 0.0:
            rates.append(PortRate(0.0, float("nan"), float("nan")))
        else:
            norm = math.sqrt(norm2)
            rates.append(PortRate(gamma, b1 / norm, b2 / norm))
    return rates


def zero_smallest_elements(B: np.ndarray) -> np.ndarray:
    """Copy of B with the ZEROED_COUPLINGS smallest |elements| set to zero.

    This is the simplification under which each port couples to a single
    mode and the jump operators reduce to plain a or b.
    """
    B = np.asarray(B, dtype=float).copy()
    flat = np.argsort(np.abs(B), axis=None)
    B.flat[flat[:ZEROED_COUPLINGS]] = 0.0
    return B


def bose_einstein(omega: float, T: float) -> float:
    """Bose-Einstein occupation of a mode at angular frequency omega, temperature T."""
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if T < 0:
        raise ValueError(f"temperature must be >= 0, got {T}")
    if T == 0:
        return 0.0
    x = HBAR * omega / (K_B * T)
    if x > 700:
        return 0.0
    return 1.0 / math.expm1(x)


def attenuation_chain_population(chain: ThermalChain, omega_0: float) -> float:
    """Fold n <- D n + (1 - D) n_BE(omega_0, T) over the chain stages in order."""
    n = chain.source_population
    for d, t in chain.stages:
        n = d * n + (1.0 - d) * bose_einstein(omega_0, t)
    return n


def mode_thermal_populations(gammas, port_populations, gamma_a: float,
                             gamma_b: float, n_box: float) -> tuple[float, float]:
    """Thermal occupations of the two modes as rate-weighted port averages.

    ``gammas`` are the four port rates as floats.  Ports 1 and 2 feed mode
    a, ports 3 and 4 feed mode b; the intrinsic channels with rates
    gamma_a, gamma_b carry the box population.
    """
    g = [float(r) for r in gammas]
    if len(g) != 4 or len(port_populations) != 4:
        raise ValueError("need four port rates and four port populations")
    if min(g) < 0 or gamma_a < 0 or gamma_b < 0:
        raise ValueError("rates must be >= 0")
    kappa_a = g[0] + g[1] + gamma_a
    kappa_b = g[2] + g[3] + gamma_b
    if kappa_a <= 0 or kappa_b <= 0:
        raise ValueError("total loss rate of each mode must be > 0")
    n = [float(p) for p in port_populations]
    n_th_a = (g[0] * n[0] + g[1] * n[1] + gamma_a * n_box) / kappa_a
    n_th_b = (g[2] * n[2] + g[3] * n[3] + gamma_b * n_box) / kappa_b
    return n_th_a, n_th_b


def hybridized_thermal_population(delta: float, kappa: float, J: float,
                                  n_th_a: float, n_th_b: float) -> float:
    """Pump-off occupation of mode a with the two modes coupled.

    Closed form for equal loss rates kappa on both modes and detuning
    delta = omega_b - omega_a; the two weights sum to one only because a
    (delta^2 + kappa^2)/(denominator) share stays on mode a.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    den = delta**2 + kappa**2 + 4.0 * J**2
    w_b = 2.0 * J**2 / den
    w_a = (delta**2 + kappa**2 + 2.0 * J**2) / den
    return w_a * n_th_a + w_b * n_th_b
