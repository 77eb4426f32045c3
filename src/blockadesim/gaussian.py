"""Gaussian-state representation and g2 formulas built from (alpha, n, s).

A displaced squeezed thermal state of the measured mode is fully described
by the mean amplitude alpha = <a>, the fluctuation occupation n = <d'd> and
the anomalous moment s = <dd> of d = a - alpha.  The zero-delay correlation
is

    g2(0) = 1 + [2|alpha|^2 (n + |s| cos phi) + |s|^2 + n^2] / (|alpha|^2 + n)^2

with phi the argument of s / alpha^2; the time-dependent generalization
follows from Wick's theorem for Gaussian fields.  Every g2(0) in the package
goes through g2_from_normal_moments, which expands <a'a'aa> of a = alpha + d
in the moments of the fluctuation d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PHYSICALITY_TOL = 1e-9
CALIBRATION_SIGMA_FLAG = 5.0   # n this many standard errors below 0 is a calibration failure


class ZeroPopulationError(ValueError):
    """g2 requested for a state with no population."""


class CalibrationFailure(RuntimeError):
    """Moment inversion produced an unphysical estimate beyond statistical slack."""


@dataclass(frozen=True)
class GaussianState:
    """(alpha, n, s) triple; physical states satisfy |s|^2 <= n(n+1).

    Estimates reconstructed from noisy data may sit slightly outside the
    physical set, so construction never raises; use assert_physical where
    a true state is required.
    """

    alpha: complex
    n: float
    s: complex

    def assert_physical(self, tol: float = PHYSICALITY_TOL) -> "GaussianState":
        if self.n < -tol:
            raise ValueError(f"negative occupation n = {self.n}")
        if abs(self.s) ** 2 > self.n * (self.n + 1.0) + tol:
            raise ValueError(f"|s|^2 = {abs(self.s)**2} exceeds n(n+1) = {self.n*(self.n+1)}")
        return self

    @property
    def n_tot(self) -> float:
        return abs(self.alpha) ** 2 + self.n


def g2_from_normal_moments(alpha: complex, n: float, s: complex, m12: complex,
                           m22: float) -> float:
    """<a'a'aa> / <a'a>^2 for a = alpha + d with <d> = 0.

    n = <d'd>, s = <dd>, m12 = <d'dd> and m22 = <d'd'dd>; the normally
    ordered expansion is

        <a'a'aa> = |alpha|^4 + 4|alpha|^2 n + 2 Re(conj(alpha)^2 s)
                   + 4 Re(conj(alpha) m12) + m22,

    where 2 |alpha|^2 |s| cos(phi) appears as 2 Re(conj(alpha)^2 s), which
    has no branch cut at alpha = 0.  Elementwise on arrays, which give an
    array; scalars give a float.  Raises ZeroPopulationError when a
    population |alpha|^2 + n is <= 0 (a NaN one gives NaN).
    """
    a2 = abs(alpha) ** 2
    n_tot = a2 + n
    if np.any(n_tot <= 0):
        raise ZeroPopulationError("total population must be > 0")
    num = (a2 * a2 + 4.0 * a2 * n + 2.0 * (np.conj(alpha) ** 2 * s).real
           + 4.0 * (np.conj(alpha) * m12).real + m22)
    g2 = num / n_tot**2
    return float(g2) if np.ndim(g2) == 0 else g2


def g2_zero(g: GaussianState) -> float:
    """Zero-delay second-order correlation of a Gaussian state.

    Wick's theorem gives <d'dd> = 0 and <d'd'dd> = 2 n^2 + |s|^2.
    """
    return g2_from_normal_moments(g.alpha, g.n, g.s, 0.0, 2.0 * g.n ** 2 + abs(g.s) ** 2)


def g2_tau(alpha: complex, corr) -> np.ndarray:
    """Gaussian g2(tau) from the two-time moments n(tau), s(tau).

    Wick expansion of <a'(0) a'(tau) a(tau) a(0)> for a Gaussian field
    a = alpha + d:

        g2(tau) = 1 + [2|alpha|^2 Re n(tau) + 2 Re(conj(alpha)^2 s(tau))
                       + |s(tau)|^2 + |n(tau)|^2] / (|alpha|^2 + n(0))^2

    which reduces to g2_zero exactly at tau = 0.
    """
    n_tau = np.asarray(corr.n_tau, dtype=complex)
    s_tau = np.asarray(corr.s_tau, dtype=complex)
    a2 = abs(alpha) ** 2
    n_tot = a2 + n_tau[0].real
    if n_tot <= 0:
        raise ZeroPopulationError("total population must be > 0")
    num = (2.0 * a2 * n_tau.real + 2.0 * (np.conj(alpha) ** 2 * s_tau).real
           + np.abs(s_tau) ** 2 + np.abs(n_tau) ** 2)
    return 1.0 + num / n_tot**2


def _second_moments(ms) -> tuple[float, float, float]:
    return ms.m[2, 0], ms.m[1, 1], ms.m[0, 2]


def _moment_stderr(on, off) -> float:
    """Rough 1-sigma error of the n estimator, for the calibration-failure flag.

    Gaussian approximation: var(<X^2>) ~ 2 <X^2>^2 / N per moment, four
    moments entering with weight 1/2 each.
    """
    var = 0.0
    for ms in (on, off):
        xx, _, yy = _second_moments(ms)
        var += 0.5 * (xx**2 + yy**2) / max(ms.n_samples, 1)
    return math.sqrt(var)


def gaussian_params_from_moments(on, off, n_th: float) -> GaussianState:
    """Invert calibrated quadrature moments into (alpha, n, s), the package's one
    inversion of second moments.

    Inputs are corrected MomentSets rescaled so the pump-off second moments
    are (n_h, n_h, 0), n_h being the amplifier-noise occupation; n_h cancels
    from every difference taken here.  n and s are pump-on minus pump-off
    second moments; the pump-off occupation offset n_th is added to n.  A
    reconstruction with n below -CALIBRATION_SIGMA_FLAG standard errors is
    flagged as a calibration failure.
    """
    xbar, ybar = on.dc
    alpha = (xbar + 1j * ybar) / math.sqrt(2.0)
    xx1, xy1, yy1 = _second_moments(on)
    xx0, xy0, yy0 = _second_moments(off)
    n = 0.5 * ((xx1 - xx0) + (yy1 - yy0)) + n_th
    s = 0.5 * ((xx1 - xx0) - (yy1 - yy0)) + 1j * (xy1 - xy0)
    if n < -CALIBRATION_SIGMA_FLAG * _moment_stderr(on, off):
        raise CalibrationFailure(f"reconstructed occupation n = {n:.3e} is more than "
                                 f"{CALIBRATION_SIGMA_FLAG} sigma negative")
    return GaussianState(alpha, float(n), complex(s))


def _higher_cumulants(ms) -> tuple[complex, float]:
    """<conj(w) w^2> and <|w|^4> - 2<|w|^2>^2 - |<w^2>|^2 of w = (X + iY)/sqrt(2)."""
    xx, xy, yy = _second_moments(ms)
    nw, sw = 0.5 * (xx + yy), 0.5 * (xx - yy) + 1j * xy   # of signal plus noise, not (n, s)
    m12 = ((ms.m[3, 0] + ms.m[1, 2]) + 1j * (ms.m[2, 1] + ms.m[0, 3])) / (2.0 * math.sqrt(2.0))
    m22 = 0.25 * (ms.m[4, 0] + 2.0 * ms.m[2, 2] + ms.m[0, 4])
    return m12, m22 - 2.0 * nw**2 - abs(sw) ** 2


def g2prime_from_fourth_moments(on, off, state: GaussianState) -> float:
    """Assumption-free g2(0) from moments up to fourth order.

    The measured field is signal plus independent Gaussian amplifier noise,
    so cumulants of order >= 2 separate and the noise drops out of pump-on
    minus pump-off cumulant differences; fourth-order cumulants of the
    noise vanish identically.  (alpha, n, s) is the estimate ``state`` from
    gaussian_params_from_moments; the moments give only <d'dd> and the
    fourth cumulant, to which <d'd'dd> adds the Gaussian 2 n^2 + |s|^2.
    Raises ZeroPopulationError when the state's population is not positive.
    """
    m12_1, k22_1 = _higher_cumulants(on)
    m12_0, k22_0 = _higher_cumulants(off)
    return g2_from_normal_moments(state.alpha, state.n, state.s, m12_1 - m12_0,
                                  k22_1 - k22_0 + 2.0 * state.n**2 + abs(state.s) ** 2)
