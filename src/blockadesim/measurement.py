"""Synthetic detection chain: traces, moments, mixer calibration, packets.

The measured field is the resonator signal plus independent amplifier noise
referred to the resonator output, with occupation n_h.  AC samples are
drawn white within the analysis band from the stationary 2x2 quadrature
covariance

    <X^2> = n_h + n + Re s,   <Y^2> = n_h + n - Re s,   <XY> = Im s,

the DC channel carries sqrt(2) Re alpha and sqrt(2) Im alpha, and the IQ
mixer imperfection maps ideal quadratures to raw ones as

    (X_r, Y_r) = T (X, Y),   T = [[sqrt(G_X), 0], [sqrt(G_Y) eps, sqrt(G_Y)]].

Both per-packet layers work in blocks of MOMENT_BLOCK samples, so no
whole-packet temporary is made: synthesis draws and mixes one block at a
time into the (2, N) output, drawing the same random stream as one (N, 2)
draw, and moment estimation sums one power-row product per block.

Moments m[i, j] = <X^i Y^j> through fourth order form one 5x5 array, on
which T acts by one binomial sum.  Calibration recovers (G_X, G_Y, eps)
from pump-off data; the moment correction is the same map with T^-1, the
exact algebraic inverse through fourth order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from .blas import pool_map
from .gaussian import (CalibrationFailure, GaussianState, ZeroPopulationError, g2_zero,
                       g2prime_from_fourth_moments, gaussian_params_from_moments)

MAX_ORDER = 4
MIN_PACKETS = 20
MOMENT_BLOCK = 1 << 14   # samples per block in synth_traces and estimate_moments
_ORDER = np.add.outer(np.arange(MAX_ORDER + 1), np.arange(MAX_ORDER + 1))   # i + j at [i, j]


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

    @property
    def mixer(self) -> np.ndarray:
        """The mixer matrix T, (X_r, Y_r) = T (X, Y)."""
        sx, sy = math.sqrt(self.G_X), math.sqrt(self.G_Y)
        return np.array([[sx, 0.0], [sy * self.epsilon, sy]])


@dataclass(frozen=True)
class RawTraceSet:
    """One packet of digitized quadratures: AC sample arrays plus DC scalars."""

    X_r: np.ndarray
    Y_r: np.ndarray
    Xbar_r: float
    Ybar_r: float

    def __post_init__(self):
        if len(self.X_r) != len(self.Y_r):
            raise ValueError("AC arrays X_r and Y_r must have the same length")

    @property
    def packet_size(self) -> int:
        return len(self.X_r)


@dataclass(frozen=True)
class MomentSet:
    """Moments m[i, j] = <X^i Y^j> as a 5x5 array, zero where i + j > 4, plus DC means."""

    m: np.ndarray
    dc: tuple[float, float]
    n_samples: int

    def __post_init__(self):
        if np.shape(self.m) != _ORDER.shape:
            raise ValueError(f"moment array must be 5x5, got shape {np.shape(self.m)}")
        if self.m[2, 0] < 0 or self.m[0, 2] < 0:
            raise ValueError("pure second-order moments must be >= 0")


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
                 seed) -> RawTraceSet:
    """Draw one raw packet from a true Gaussian state through the mixer model.

    For pump-off packets pass truth = GaussianState(0, n_th, 0).  The DC
    scalars are packet means of the noisy DC channel, so they fluctuate
    with variance n_h / packet_size around the true displacement.

    W = T sqrt(cov) is formed once; each block of MOMENT_BLOCK samples (the
    last one also takes the remainder) is one (b, 2) standard-normal draw,
    into one reused buffer, mixed by W into its slice of the (2, N) output.
    The AC samples are bitwise those of one (N, 2) draw, and the DC draw
    follows them.
    """
    packet_size = int(packet_size)
    if packet_size < 1:
        raise ValueError("packet_size must be >= 1")
    cov = np.array([
        [cal.n_h + truth.n + truth.s.real, truth.s.imag],
        [truth.s.imag, cal.n_h + truth.n - truth.s.real],
    ])
    T = cal.mixer
    W = T @ _psd_sqrt(cov)
    rng = np.random.default_rng(seed)
    x_r, y_r = out = np.empty((2, packet_size))
    # the last block takes the remainder, so it is also the largest: a
    # one-sample block would go through gemv, which rounds differently from
    # the gemm of one (N, 2) draw
    edges = [k * MOMENT_BLOCK for k in range(max(1, packet_size // MOMENT_BLOCK))]
    edges.append(packet_size)
    normal = np.empty((packet_size - edges[-2], 2))
    for start, stop in zip(edges, edges[1:]):
        block = rng.standard_normal(out=normal[:stop - start])
        np.matmul(W, block.T, out=out[:, start:stop])

    dc = (math.sqrt(2.0) * np.array([truth.alpha.real, truth.alpha.imag])
          + rng.normal(0.0, math.sqrt(cal.n_h / packet_size), 2))
    xbar_r, ybar_r = (T @ dc).tolist()
    return RawTraceSet(x_r, y_r, xbar_r, ybar_r)


def estimate_moments(t: RawTraceSet) -> MomentSet:
    """Sample moments of the raw traces up to fourth order, plus DC means.

    Each block of MOMENT_BLOCK samples adds one product of power rows,
    [1, x, ..., x^4] [1, y, ..., y^4]^T, to a 5x5 sum.
    """
    x = np.asarray(t.X_r, dtype=float)
    y = np.asarray(t.Y_r, dtype=float)
    if x.size == 0:
        raise ValueError("cannot estimate moments from empty traces")
    rows = np.ones((2, MAX_ORDER + 1, min(x.size, MOMENT_BLOCK)))   # x and y power rows
    total = np.zeros(_ORDER.shape)
    for start in range(0, x.size, MOMENT_BLOCK):
        p = rows[:, :, :min(MOMENT_BLOCK, x.size - start)]
        p[0, 1], p[1, 1] = x[start:start + MOMENT_BLOCK], y[start:start + MOMENT_BLOCK]
        for k in range(2, MAX_ORDER + 1):
            np.multiply(p[:, k - 1], p[:, 1], out=p[:, k])
        total += p[0] @ p[1].T
    total /= x.size
    total[_ORDER > MAX_ORDER] = 0.0
    return MomentSet(total, (t.Xbar_r, t.Ybar_r), t.packet_size)


def calibrate(off_moments: MomentSet, n_h: float) -> CalibrationConstants:
    """Gains and phase deviation from pump-off moments.

    Defined so that corrected pump-off second moments come out exactly
    (n_h, n_h, 0).
    """
    xx, xy, yy = off_moments.m[2, 0], off_moments.m[1, 1], off_moments.m[0, 2]
    disc = yy * xx - xy * xy
    if xx <= 0 or disc <= 0:
        raise CalibrationFailure(
            f"pump-off moments are degenerate: <X2>={xx:.3e}, discriminant={disc:.3e}")
    return CalibrationConstants(xx / n_h, disc / (n_h * xx), xy / math.sqrt(disc), n_h)


def _mix(ms: MomentSet, T: np.ndarray) -> MomentSet:
    """Moments of (X', Y') = T (X, Y) for a lower-triangular T = [[a, 0], [c, d]]:

        <X'^i Y'^j> = <(aX)^i (cX + dY)^j>
                    = a^i sum_k C(j,k) c^k d^(j-k) <X^(i+k) Y^(j-k)>.
    """
    (a, _), (c, d) = T
    m = np.zeros_like(ms.m)
    for i in range(MAX_ORDER + 1):
        for j in range(MAX_ORDER + 1 - i):
            m[i, j] = a**i * sum(comb(j, k) * c**k * d**(j - k) * ms.m[i + k, j - k]
                                 for k in range(j + 1))
    return MomentSet(m, tuple((T @ ms.dc).tolist()), ms.n_samples)


def correct_moments(raw: MomentSet, cal: CalibrationConstants) -> MomentSet:
    """Exact algebraic inversion of the mixer map on all moments through order 4."""
    return _mix(raw, np.linalg.inv(cal.mixer))


def apply_mixer_to_moments(ideal: MomentSet, cal: CalibrationConstants) -> MomentSet:
    """Forward mixer map on moments, <X_r^i Y_r^j> = G_X^(i/2) G_Y^(j/2) <X^i (Y+eps X)^j>."""
    return _mix(ideal, cal.mixer)


# the estimates of packet_statistics, by name, in the jackknife's column order
ESTIMATES = ("alpha_re", "alpha_im", "n", "s_re", "s_im", "g2", "g2_prime")


@dataclass(frozen=True)
class PacketStatistics:
    """Packet-averaged estimates and their jackknife stderrs, keyed by ESTIMATES."""

    estimate: dict[str, float]
    stderr: dict[str, float]
    warnings: tuple[str, ...] = ()


def estimate_values(state: GaussianState, g2: float, g2_prime: float) -> np.ndarray:
    """The estimates of ESTIMATES, in its order, of a state and its g2 and g2'."""
    return np.array([state.alpha.real, state.alpha.imag, state.n, state.s.real, state.s.imag,
                     g2, g2_prime])


def _estimates(m: np.ndarray, dc: np.ndarray, counts: np.ndarray, n_packets: int,
               n_th: float) -> tuple[np.ndarray, str | None]:
    """(``estimate_values``, failure) from on/off sums over n_packets packets of
    the moment arrays m (2, 5, 5), the DC pairs dc (2, 2) and the sample counts (2,).

    A state whose population came out non-positive, as noise allows, has no
    g2: then g2 and g2' are NaN and failure is the reason, else it is None.
    """
    on, off = (MomentSet(m[k] / n_packets, tuple((dc[k] / n_packets).tolist()), int(counts[k]))
               for k in range(2))
    state = gaussian_params_from_moments(on, off, n_th)
    try:
        g2, g2p, failure = g2_zero(state), g2prime_from_fourth_moments(on, off, state), None
    except ZeroPopulationError as exc:
        g2, g2p, failure = math.nan, math.nan, str(exc)
    return estimate_values(state, g2, g2p), failure


def packet_statistics(packets: list[tuple[MomentSet, MomentSet]],
                      n_th: float) -> PacketStatistics:
    """Average corrected moments over packets, then compute g2 once.

    g2 is a nonlinear function of the moments, so the moments are averaged
    before evaluating it; the spread comes from a jackknife over packets.
    The packets' moment arrays, DC pairs and sample counts are stacked once,
    and leave-one-out replica i is (total - packet i) / (P - 1), so the P
    replicas cost O(P); each, as the full estimate, is one ``estimate_values``
    row.  Below MIN_PACKETS packets the g2 sampling distribution can be
    visibly non-Gaussian, which is flagged rather than refused.  Where the
    full estimate or a replica has no g2 (non-positive population), g2 and
    g2' come out NaN in the estimate or the stderr, and warnings give the
    reason.
    """
    n_p = len(packets)
    if n_p < 1:
        raise ValueError("need at least one packet")
    warnings = []
    if n_p < MIN_PACKETS:
        warnings.append(
            f"only {n_p} packets (< {MIN_PACKETS}): g2 distribution may be non-Gaussian")

    stacks = [np.array([[on.m, off.m] for on, off in packets]),                    # (P, 2, 5, 5)
              np.array([[on.dc, off.dc] for on, off in packets]),                  # (P, 2, 2)
              np.array([[on.n_samples, off.n_samples] for on, off in packets])]    # (P, 2)
    totals = [stack.sum(axis=0) for stack in stacks]
    values, failure = _estimates(*totals, n_p, n_th)
    estimate = dict(zip(ESTIMATES, values.tolist()))
    if failure:
        warnings.append(f"g2 and g2' are NaN: {failure} in the {n_p}-packet estimate")
    if n_p == 1:
        return PacketStatistics(estimate, dict.fromkeys(ESTIMATES, 0.0), tuple(warnings))

    replicas = [_estimates(*(total - stack[i] for total, stack in zip(totals, stacks)),
                           n_p - 1, n_th) for i in range(n_p)]
    failures = [failure for _, failure in replicas if failure]
    if failures:
        warnings.append(f"g2 and g2' stderr are NaN: {failures[0]} in {len(failures)} "
                        f"of {n_p} jackknife replicas")
    rows = np.array([row for row, _ in replicas])
    jk = math.sqrt((n_p - 1) / n_p) * np.sqrt(np.sum((rows - rows.mean(axis=0)) ** 2, axis=0))
    return PacketStatistics(estimate, dict(zip(ESTIMATES, jk.tolist())), tuple(warnings))


def _packet_pair(truth: GaussianState, cal: CalibrationConstants, n_th: float,
                 packet_size: int, child: np.random.SeedSequence) -> tuple[MomentSet, MomentSet]:
    s_on, s_off = child.spawn(2)
    raw_on = estimate_moments(synth_traces(truth, cal, packet_size, s_on))
    raw_off = estimate_moments(synth_traces(GaussianState(0.0, n_th, 0.0), cal,
                                            packet_size, s_off))
    cal_est = calibrate(raw_off, cal.n_h)
    return correct_moments(raw_on, cal_est), correct_moments(raw_off, cal_est)


def run_synthetic_experiment(truth: GaussianState, cal: CalibrationConstants,
                             n_th: float, n_packets: int, packet_size: int,
                             seed, workers: int = 1) -> PacketStatistics:
    """Full pipeline: synthesize on/off packets, calibrate per pair, correct, aggregate.

    Returns ``packet_statistics``' estimates and stderrs, keyed by ESTIMATES.
    The calibration is re-estimated from every pump-off packet, mirroring
    the per-point recalibration that absorbs slow drifts.  Packets are
    independent (one spawned seed each) and run through ``blas.pool_map``;
    aggregation order is fixed by packet index either way.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    task = partial(_packet_pair, truth, cal, n_th, packet_size)
    return packet_statistics(pool_map(task, root.spawn(int(n_packets)), workers), n_th)
