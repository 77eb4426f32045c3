"""Synthetic detection chain: traces, moments, mixer calibration, packets.

The measured field is the resonator signal plus independent amplifier noise
referred to the resonator output, with occupation n_h.  AC samples are
drawn white within the analysis band from the stationary 2x2 quadrature
covariance

    <X^2> = n_h + n + Re s,   <Y^2> = n_h + n - Re s,   <XY> = Im s,

the DC channel carries sqrt(2) Re alpha and sqrt(2) Im alpha, and the IQ
mixer imperfection maps ideal quadratures to raw ones as

    X_r = sqrt(G_X) X,   Y_r = sqrt(G_Y) (Y + eps X),

which on moments reads <X_r^i Y_r^j> = G_X^(i/2) G_Y^(j/2) <X^i (Y+eps X)^j>.
Calibration recovers (G_X, G_Y, eps) from pump-off data; the moment
correction is the exact algebraic inverse of the mixer map through fourth
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .blas import pool_map
from .gaussian import (CalibrationFailure, GaussianState, g2_zero,
                       g2prime_from_fourth_moments, gaussian_params_from_moments)

MOMENT_KEYS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for order in range(1, 5) for i in range(order, -1, -1) for j in [order - i]
)
MIN_PACKETS = 20


@dataclass(frozen=True)
class CalibrationConstants:
    """Detection-chain constants: power gains, mixer phase deviation, noise."""

    G_X: float
    G_Y: float
    epsilon: float
    n_h: float

    def __post_init__(self):
        if self.G_X <= 0 or self.G_Y <= 0:
            raise ValueError("gains must be > 0")
        if self.n_h <= 0:
            raise ValueError("n_h must be > 0")
        if abs(self.epsilon) >= 0.5:
            raise ValueError("|epsilon| must be < 0.5")


@dataclass(frozen=True)
class RawTraceSet:
    """One packet of digitized quadratures: AC sample arrays plus DC scalars."""

    X_r: np.ndarray
    Y_r: np.ndarray
    Xbar_r: float
    Ybar_r: float
    pump_on: bool
    packet_size: int

    def __post_init__(self):
        if len(self.X_r) != self.packet_size or len(self.Y_r) != self.packet_size:
            raise ValueError("AC arrays must have length packet_size")


@dataclass(frozen=True)
class MomentSet:
    """Quadrature moments <X^i Y^j> for 1 <= i+j <= 4 plus the DC means."""

    moments: dict[tuple[int, int], float]
    dc: tuple[float, float]
    n_samples: int

    def __post_init__(self):
        missing = [k for k in MOMENT_KEYS if k not in self.moments]
        if missing:
            raise ValueError(f"moment set is missing keys {missing}")
        if self.moments[2, 0] < 0 or self.moments[0, 2] < 0:
            raise ValueError("pure second-order moments must be >= 0")

    def m(self, i: int, j: int) -> float:
        return self.moments[(i, j)]


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Matrix square root of a (possibly semidefinite) 2x2 covariance."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        evals, vecs = np.linalg.eigh(cov)
        floor = -1e-12 * max(1.0, abs(evals).max())
        if evals.min() < floor:
            raise ValueError(f"covariance is not positive semidefinite: {evals}")
        return vecs * np.sqrt(np.clip(evals, 0.0, None))


def synth_traces(truth: GaussianState, cal: CalibrationConstants, packet_size: int,
                 pump_on: bool, seed) -> RawTraceSet:
    """Draw one raw packet from a true Gaussian state through the mixer model.

    For pump-off packets pass truth = GaussianState(0, n_th, 0).  The DC
    scalars are packet means of the noisy DC channel, so they fluctuate
    with variance n_h / packet_size around the true displacement.
    """
    packet_size = int(packet_size)
    if packet_size < 1:
        raise ValueError("packet_size must be >= 1")
    cov = np.array([
        [cal.n_h + truth.n + truth.s.real, truth.s.imag],
        [truth.s.imag, cal.n_h + truth.n - truth.s.real],
    ])
    chol = _psd_sqrt(cov)
    rng = np.random.default_rng(seed)
    xy = rng.standard_normal((packet_size, 2)) @ chol.T
    x, y = xy[:, 0], xy[:, 1]

    dc_sigma = math.sqrt(cal.n_h / packet_size)
    xbar = math.sqrt(2.0) * truth.alpha.real + rng.normal(0.0, dc_sigma)
    ybar = math.sqrt(2.0) * truth.alpha.imag + rng.normal(0.0, dc_sigma)

    sx, sy = math.sqrt(cal.G_X), math.sqrt(cal.G_Y)
    x_r = sx * x
    y_r = sy * (y + cal.epsilon * x)
    xbar_r = sx * xbar
    ybar_r = sy * (ybar + cal.epsilon * xbar)
    return RawTraceSet(x_r, y_r, float(xbar_r), float(ybar_r), bool(pump_on), packet_size)


def estimate_moments(t: RawTraceSet) -> MomentSet:
    """Sample moments of the raw traces up to fourth order, plus DC means."""
    x = np.asarray(t.X_r, dtype=float)
    y = np.asarray(t.Y_r, dtype=float)
    if x.size == 0:
        raise ValueError("cannot estimate moments from empty traces")
    xp = {0: np.ones_like(x), 1: x, 2: x * x}
    xp[3] = xp[2] * x
    xp[4] = xp[2] * xp[2]
    yp = {0: np.ones_like(y), 1: y, 2: y * y}
    yp[3] = yp[2] * y
    yp[4] = yp[2] * yp[2]
    moments = {(i, j): float(np.mean(xp[i] * yp[j])) for i, j in MOMENT_KEYS}
    return MomentSet(moments, (t.Xbar_r, t.Ybar_r), t.packet_size)


def calibrate(off_moments: MomentSet, n_h: float) -> CalibrationConstants:
    """Gains and phase deviation from pump-off moments.

    Defined so that corrected pump-off second moments come out exactly
    (n_h, n_h, 0).
    """
    xx = off_moments.m(2, 0)
    xy = off_moments.m(1, 1)
    yy = off_moments.m(0, 2)
    disc = yy * xx - xy * xy
    if xx <= 0 or disc <= 0:
        raise CalibrationFailure(
            f"pump-off moments are degenerate: <X2>={xx:.3e}, discriminant={disc:.3e}")
    g_x = xx / n_h
    g_y = disc / (n_h * xx)
    eps = xy / (n_h * math.sqrt(g_x * g_y))
    return CalibrationConstants(g_x, g_y, eps, n_h)


def correct_moments(raw: MomentSet, cal: CalibrationConstants) -> MomentSet:
    """Exact algebraic inversion of the mixer map on all moments through order 4.

    Substituting X = X_r / sqrt(G_X), Y = Y_r / sqrt(G_Y) - eps X_r / sqrt(G_X)
    gives the binomial form

        <X^i Y^j> = sum_k C(j,k) (-eps)^k <X_r^(i+k) Y_r^(j-k)>
                    / (G_X^((i+k)/2) G_Y^((j-k)/2)).
    """
    sx, sy = math.sqrt(cal.G_X), math.sqrt(cal.G_Y)
    corrected = {}
    for i, j in MOMENT_KEYS:
        total = 0.0
        for k in range(j + 1):
            total += (comb(j, k) * (-cal.epsilon) ** k * raw.m(i + k, j - k)
                      / (sx ** (i + k) * sy ** (j - k)))
        corrected[(i, j)] = total
    xbar_r, ybar_r = raw.dc
    dc = (xbar_r / sx, ybar_r / sy - cal.epsilon * xbar_r / sx)
    return MomentSet(corrected, dc, raw.n_samples)


def apply_mixer_to_moments(ideal: MomentSet, cal: CalibrationConstants) -> MomentSet:
    """Forward mixer map on moments, <X_r^i Y_r^j> = G_X^(i/2) G_Y^(j/2) <X^i (Y+eps X)^j>."""
    sx, sy = math.sqrt(cal.G_X), math.sqrt(cal.G_Y)
    raw = {}
    for i, j in MOMENT_KEYS:
        total = 0.0
        for k in range(j + 1):
            total += comb(j, k) * cal.epsilon ** k * ideal.m(i + k, j - k)
        raw[(i, j)] = sx**i * sy**j * total
    xbar, ybar = ideal.dc
    dc = (sx * xbar, sy * (ybar + cal.epsilon * xbar))
    return MomentSet(raw, dc, ideal.n_samples)


def average_moments(sets: list[MomentSet]) -> MomentSet:
    if not sets:
        raise ValueError("cannot average an empty list of moment sets")
    moments = {k: float(np.mean([ms.m(*k) for ms in sets])) for k in MOMENT_KEYS}
    dc = (float(np.mean([ms.dc[0] for ms in sets])),
          float(np.mean([ms.dc[1] for ms in sets])))
    n_samples = int(sum(ms.n_samples for ms in sets))
    return MomentSet(moments, dc, n_samples)


@dataclass(frozen=True)
class PacketStatistics:
    """Packet-averaged estimates with jackknife standard errors."""

    g2_mean: float
    g2_stderr: float
    state: GaussianState
    alpha_stderr: complex
    n_stderr: float
    s_stderr: complex
    g2_prime_mean: float
    g2_prime_stderr: float
    n_packets: int
    warnings: tuple[str, ...] = ()


def _estimates(on: MomentSet, off: MomentSet, n_th: float, n_h: float):
    state = gaussian_params_from_moments(on, off, n_th, n_h)
    g2 = g2_zero(state)
    g2p = g2prime_from_fourth_moments(on, off, state.alpha, n_th)
    return state, g2, g2p


def packet_statistics(packets: list[tuple[MomentSet, MomentSet]], n_th: float,
                      n_h: float) -> PacketStatistics:
    """Average corrected moments over packets, then compute g2 once.

    g2 is a nonlinear function of the moments, so the moments are averaged
    before evaluating it; the spread comes from a jackknife over packets.
    Below MIN_PACKETS packets the g2 sampling distribution can be visibly
    non-Gaussian, which is flagged rather than refused.
    """
    n_p = len(packets)
    if n_p < 1:
        raise ValueError("need at least one packet")
    warnings = []
    if n_p < MIN_PACKETS:
        warnings.append(
            f"only {n_p} packets (< {MIN_PACKETS}): g2 distribution may be non-Gaussian")

    ons = [on for on, _ in packets]
    offs = [off for _, off in packets]
    state, g2, g2p = _estimates(average_moments(ons), average_moments(offs), n_th, n_h)

    if n_p == 1:
        return PacketStatistics(g2, 0.0, state, 0.0, 0.0, 0.0, g2p, 0.0, 1, tuple(warnings))

    rows = []
    for i in range(n_p):
        on_i = average_moments(ons[:i] + ons[i + 1:])
        off_i = average_moments(offs[:i] + offs[i + 1:])
        st_i, g2_i, g2p_i = _estimates(on_i, off_i, n_th, n_h)
        rows.append([g2_i, st_i.alpha.real, st_i.alpha.imag, st_i.n,
                     st_i.s.real, st_i.s.imag, g2p_i])
    rows = np.array(rows)
    jk = math.sqrt((n_p - 1) / n_p) * np.sqrt(np.sum((rows - rows.mean(axis=0)) ** 2, axis=0))
    return PacketStatistics(
        g2_mean=float(g2), g2_stderr=float(jk[0]), state=state,
        alpha_stderr=complex(jk[1], jk[2]), n_stderr=float(jk[3]),
        s_stderr=complex(jk[4], jk[5]), g2_prime_mean=float(g2p),
        g2_prime_stderr=float(jk[6]), n_packets=n_p, warnings=tuple(warnings))


def _packet_pair_task(args) -> tuple[MomentSet, MomentSet]:
    truth, cal, n_th, packet_size, child = args
    s_on, s_off = child.spawn(2)
    raw_on = estimate_moments(synth_traces(truth, cal, packet_size, True, s_on))
    raw_off = estimate_moments(synth_traces(GaussianState(0.0, n_th, 0.0), cal,
                                            packet_size, False, s_off))
    cal_est = calibrate(raw_off, cal.n_h)
    return correct_moments(raw_on, cal_est), correct_moments(raw_off, cal_est)


def run_synthetic_experiment(truth: GaussianState, cal: CalibrationConstants,
                             n_th: float, n_packets: int, packet_size: int,
                             seed, workers: int = 1) -> PacketStatistics:
    """Full pipeline: synthesize on/off packets, calibrate per pair, correct, aggregate.

    The calibration is re-estimated from every pump-off packet, mirroring
    the per-point recalibration that absorbs slow drifts.  Packets are
    independent (one spawned seed each) and run through ``blas.pool_map``;
    aggregation order is fixed by packet index either way.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    tasks = [(truth, cal, n_th, packet_size, child) for child in root.spawn(int(n_packets))]
    return packet_statistics(pool_map(_packet_pair_task, tasks, workers), n_th, cal.n_h)
