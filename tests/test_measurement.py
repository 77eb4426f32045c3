import math

import numpy as np
import pytest

from blockadesim.gaussian import (CalibrationFailure, GaussianState, g2_zero,
                                  g2prime_from_fourth_moments, gaussian_params_from_moments)
from blockadesim.measurement import (MOMENT_BLOCK, CalibrationConstants, MomentSet,
                                     RawTraceSet, apply_mixer_to_moments,
                                     calibrate, correct_moments, estimate_moments,
                                     packet_statistics, run_synthetic_experiment,
                                     synth_traces)

N_H = 12.5


def moment_array(x, y):
    """<x^i y^j> written out term by term, zero above fourth order."""
    return np.array([[np.mean(x**i * y**j) if i + j <= 4 else 0.0 for j in range(5)]
                     for i in range(5)])


def second_moment_set(xx, xy, yy):
    m = np.zeros((5, 5))
    m[0, 0], m[2, 0], m[1, 1], m[0, 2] = 1.0, xx, xy, yy
    return MomentSet(m, (0.0, 0.0), 100)


def empirical_moment_set(rng, n_points=40):
    """Genuine moments of a random point cloud, so all moment inequalities hold."""
    pts = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n_points, 2)) + rng.normal(size=2)
    x, y = pts[:, 0], pts[:, 1]
    return MomentSet(moment_array(x, y), (rng.normal(), rng.normal()), n_points)


def random_calibration(rng):
    return CalibrationConstants(math.exp(rng.normal(0, 0.5)), math.exp(rng.normal(0, 0.5)),
                                rng.uniform(-0.45, 0.45), N_H)


# --- validation ---

def test_calibration_validation():
    with pytest.raises(ValueError):
        CalibrationConstants(-1.0, 1.0, 0.0, N_H)
    with pytest.raises(ValueError):
        CalibrationConstants(1.0, 1.0, 0.6, N_H)
    with pytest.raises(ValueError):
        CalibrationConstants(1.0, 1.0, 0.0, 0.0)


def test_moment_set_requires_5x5_array():
    for shape in [(4, 4), (5, 4), (25,), (5, 5, 1)]:
        with pytest.raises(ValueError, match="5x5"):
            MomentSet(np.zeros(shape), (0.0, 0.0), 10)


# --- synthesis ---

def test_synth_zero_noise_gives_zero_traces():
    cal = CalibrationConstants(1.0, 1.0, 0.0, 1e-30)
    t = synth_traces(GaussianState(0.0, 0.0, 0.0), cal, 1000, seed=0)
    assert np.abs(t.X_r).max() < 1e-12
    assert np.abs(t.Y_r).max() < 1e-12


def test_synth_rejects_unphysical_covariance():
    cal = CalibrationConstants(1.0, 1.0, 0.0, 0.01)
    with pytest.raises(ValueError, match="positive semidefinite"):
        synth_traces(GaussianState(0.0, 0.001, 0.5), cal, 100, seed=0)


def test_synth_pump_off_variance_is_gain_times_nh():
    cal = CalibrationConstants(1.7, 0.8, 0.08, N_H)
    n = 200_000
    t = synth_traces(GaussianState(0.0, 0.0, 0.0), cal, n, seed=3)
    var = np.var(t.X_r)
    sigma = cal.G_X * N_H * math.sqrt(2.0 / n)
    assert abs(var - cal.G_X * N_H) < 5 * sigma


def test_synth_dc_measures_displacement():
    cal = CalibrationConstants(1.7, 0.8, 0.0, N_H)
    alpha = 1.0 + 0.0j
    n = 100_000
    draws = [synth_traces(GaussianState(alpha, 0.0, 0.0), cal, n, seed=s).Xbar_r
             for s in range(30)]
    mean = np.mean(draws) / math.sqrt(cal.G_X)
    sigma = math.sqrt(N_H / n / len(draws))
    assert abs(mean - math.sqrt(2.0) * alpha.real) < 5 * sigma


@pytest.mark.parametrize("n", [1, MOMENT_BLOCK - 1, MOMENT_BLOCK, MOMENT_BLOCK + 1, 40_000])
def test_synth_stream_is_one_whole_packet_draw(n):
    # blocked synthesis keeps the random stream of one (N, 2) draw, bit for bit
    cal = CalibrationConstants(1.7, 0.8, 0.08, N_H)
    truth = GaussianState(0.095 + 0.04j, 1.1e-3, 0.004 - 0.006j)
    for seed in range(3):
        cov = np.array([[N_H + truth.n + truth.s.real, truth.s.imag],
                        [truth.s.imag, N_H + truth.n - truth.s.real]])
        rng = np.random.default_rng(seed)
        x, y = (cal.mixer @ np.linalg.cholesky(cov)) @ rng.standard_normal((n, 2)).T
        dc = (math.sqrt(2.0) * np.array([truth.alpha.real, truth.alpha.imag])
              + rng.normal(0.0, math.sqrt(N_H / n), 2))
        t = synth_traces(truth, cal, n, seed)
        assert np.array_equal(t.X_r, x) and np.array_equal(t.Y_r, y)
        assert [t.Xbar_r, t.Ybar_r] == (cal.mixer @ dc).tolist()


def test_synth_peak_memory_is_its_output():
    # the (N, 2) normal draw and its mixed copy are never whole
    import tracemalloc
    cal = CalibrationConstants(1.7, 0.8, 0.08, N_H)
    n = 10**6
    tracemalloc.start()
    try:
        t = synth_traces(GaussianState(0.0, 7.8e-4, 0.0), cal, n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.X_r.nbytes + t.Y_r.nbytes == 16 * n
    assert peak <= 1.1 * 16 * n


# --- moment estimation ---

def test_estimate_moments_constant_trace():
    c = 0.7
    t = RawTraceSet(np.full(100, c), np.full(100, c), c, c)
    ms = estimate_moments(t)
    assert ms.m[1, 0] == pytest.approx(c)
    assert ms.m[2, 0] == pytest.approx(c * c)
    assert ms.m[3, 1] == pytest.approx(c**4)
    assert ms.dc == (c, c)


@pytest.mark.parametrize("n", [17, 3 * 2**14 + 17])
def test_estimate_moments_matches_direct_means(n):
    # the blocked power-row product sums in another order than np.mean, so
    # each entry is held to 1e-12 of the mean of |x^i y^j|, its summation scale
    rng = np.random.default_rng(n)
    x = 0.4 + 1.3 * rng.standard_normal(n)
    y = -0.2 + 0.8 * rng.standard_normal(n) + 0.3 * x
    ms = estimate_moments(RawTraceSet(x, y, 0.1, -0.2))
    scale = np.array([[np.mean(np.abs(x**i * y**j)) for j in range(5)] for i in range(5)])
    assert np.all(np.abs(ms.m - moment_array(x, y)) <= 1e-12 * scale)
    assert ms.m[0, 0] == 1.0


def test_estimate_moments_gaussian_kurtosis():
    rng = np.random.default_rng(4)
    n = 400_000
    t = RawTraceSet(rng.standard_normal(n), rng.standard_normal(n), 0.0, 0.0)
    ms = estimate_moments(t)
    sigma = math.sqrt(96.0 / n)  # var of the kurtosis estimator for a unit normal
    assert abs(ms.m[4, 0] - 3.0) < 5 * sigma


def test_forward_model_moments_match_analytic_covariance():
    truth = GaussianState(0.0, 2.0, 0.8 - 0.5j)
    cal = CalibrationConstants(1.5, 0.7, 0.1, 4.0)
    n = 400_000
    ms = estimate_moments(synth_traces(truth, cal, n, seed=8))
    # analytic second moments through the mixer
    sxx = cal.n_h + truth.n + truth.s.real
    syy = cal.n_h + truth.n - truth.s.real
    sxy = truth.s.imag
    want_xx = cal.G_X * sxx
    want_xy = math.sqrt(cal.G_X * cal.G_Y) * (sxy + cal.epsilon * sxx)
    want_yy = cal.G_Y * (syy + 2 * cal.epsilon * sxy + cal.epsilon**2 * sxx)
    assert abs(ms.m[2, 0] - want_xx) < 5 * want_xx * math.sqrt(2 / n)
    assert abs(ms.m[0, 2] - want_yy) < 5 * want_yy * math.sqrt(2 / n)
    scale_xy = math.sqrt(want_xx * want_yy / n) * 5
    assert abs(ms.m[1, 1] - want_xy) < scale_xy


# --- calibration ---

def test_calibrate_identity_chain():
    cal = calibrate(second_moment_set(N_H, 0.0, N_H), N_H)
    assert (cal.G_X, cal.G_Y, cal.epsilon) == (1.0, 1.0, 0.0)


def test_calibrate_recovers_truth():
    true_cal = CalibrationConstants(1.7, 0.8, 0.08, N_H)
    t = synth_traces(GaussianState(0.0, 0.0, 0.0), true_cal, 10**6, seed=12)
    est = calibrate(estimate_moments(t), N_H)
    assert est.G_X == pytest.approx(true_cal.G_X, rel=0.01)
    assert est.G_Y == pytest.approx(true_cal.G_Y, rel=0.01)
    assert est.epsilon == pytest.approx(true_cal.epsilon, abs=0.01)


def test_calibrate_zero_epsilon_consistent():
    true_cal = CalibrationConstants(1.3, 1.1, 0.0, N_H)
    t = synth_traces(GaussianState(0.0, 0.0, 0.0), true_cal, 10**6, seed=13)
    est = calibrate(estimate_moments(t), N_H)
    assert abs(est.epsilon) < 5.0 / math.sqrt(10**6)


def test_calibrate_degenerate_failure():
    # perfectly correlated quadratures
    with pytest.raises(CalibrationFailure):
        calibrate(second_moment_set(1.0, 1.0, 1.0), N_H)


# --- moment correction ---

def test_correct_moments_identity_calibration():
    rng = np.random.default_rng(20)
    ms = empirical_moment_set(rng)
    cal = CalibrationConstants(1.0, 1.0, 0.0, N_H)
    back = correct_moments(ms, cal)
    assert back.m == pytest.approx(ms.m, rel=1e-14)
    assert back.dc == pytest.approx(ms.dc)


def test_roundtrip_identity_on_random_moments():
    # acceptance-grade property: inversion after the forward mixer map is
    # the identity through fourth order
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(1000):
        ms = empirical_moment_set(rng, n_points=25)
        cal = random_calibration(rng)
        back = correct_moments(apply_mixer_to_moments(ms, cal), cal)
        ref = np.maximum(np.abs(ms.m), 1e-9)
        worst = max(worst, np.max(np.abs(back.m - ms.m) / ref))
        worst = max(worst, abs(back.dc[0] - ms.dc[0]) / max(abs(ms.dc[0]), 1e-9),
                    abs(back.dc[1] - ms.dc[1]) / max(abs(ms.dc[1]), 1e-9))
    assert worst < 1e-10


def test_second_order_correction_formula():
    # printed closed form: <Y^2> = c/G_Y - 2 eps b / sqrt(G_X G_Y) + eps^2 a / G_X
    rng = np.random.default_rng(22)
    raw = empirical_moment_set(rng)
    cal = random_calibration(rng)
    a, b, c = raw.m[2, 0], raw.m[1, 1], raw.m[0, 2]
    want = (c / cal.G_Y - 2 * cal.epsilon * b / math.sqrt(cal.G_X * cal.G_Y)
            + cal.epsilon**2 * a / cal.G_X)
    assert correct_moments(raw, cal).m[0, 2] == pytest.approx(want, rel=1e-12)


def test_full_inversion_table():
    """Every closed-form inversion formula through fourth order, written out
    independently, must agree with the binomial implementation."""
    rng = np.random.default_rng(23)
    raw = empirical_moment_set(rng)
    cal = random_calibration(rng)
    gx, gy, e = cal.G_X, cal.G_Y, cal.epsilon
    sx, sy = math.sqrt(gx), math.sqrt(gy)
    r = raw.m
    want = {
        (1, 0): r[1, 0] / sx,
        (0, 1): r[0, 1] / sy - e * r[1, 0] / sx,
        (2, 0): r[2, 0] / gx,
        (1, 1): r[1, 1] / (sx * sy) - e * r[2, 0] / gx,
        (0, 2): r[0, 2] / gy - 2 * e * r[1, 1] / (sx * sy) + e**2 * r[2, 0] / gx,
        (3, 0): r[3, 0] / gx**1.5,
        (2, 1): -(e * sy * r[3, 0] - sx * r[2, 1]) / (gx**1.5 * sy),
        (1, 2): -(-e**2 * gy * r[3, 0] + 2 * e * sx * sy * r[2, 1] - gx * r[1, 2])
                / (gx**1.5 * gy),
        (0, 3): -(e**3 * gy**1.5 * r[3, 0] - 3 * e**2 * sx * gy * r[2, 1]
                  + 3 * e * gx * sy * r[1, 2] - gx**1.5 * r[0, 3]) / (gx**1.5 * gy**1.5),
        (4, 0): r[4, 0] / gx**2,
        (3, 1): -(e * sy * r[4, 0] - sx * r[3, 1]) / (gx**2 * sy),
        (2, 2): -(-e**2 * gy * r[4, 0] + 2 * e * sx * sy * r[3, 1] - gx * r[2, 2])
                / (gx**2 * gy),
        (1, 3): -(e**3 * gy**1.5 * r[4, 0] - 3 * e**2 * sx * gy * r[3, 1]
                  + 3 * e * gx * sy * r[2, 2] - gx**1.5 * r[1, 3]) / (gx**2 * gy**1.5),
        # single negated bracket through all five terms; a printed split of
        # this line with the last two signs flipped does not invert Eq. (13)
        (0, 4): -(-e**4 * gy**2 * r[4, 0] + 4 * e**3 * sx * gy**1.5 * r[3, 1]
                  - 6 * e**2 * gx * gy * r[2, 2]
                  + 4 * e * gx**1.5 * sy * r[1, 3] - gx**2 * r[0, 4]) / (gx**2 * gy**2),
    }
    got = correct_moments(raw, cal)
    for key, value in want.items():
        assert got.m[key] == pytest.approx(value, rel=1e-11), key


def test_calibrate_then_correct_normalizes_pump_off():
    # by construction of the calibration, corrected pump-off second moments
    # are exactly (n_h, n_h, 0)
    true_cal = CalibrationConstants(1.7, 0.8, 0.08, N_H)
    raw = estimate_moments(synth_traces(GaussianState(0.0, 7.8e-4, 0.0), true_cal,
                                        10**5, seed=30))
    est = calibrate(raw, N_H)
    corrected = correct_moments(raw, est)
    assert corrected.m[2, 0] == pytest.approx(N_H, rel=1e-12)
    assert corrected.m[0, 2] == pytest.approx(N_H, rel=1e-12)
    assert abs(corrected.m[1, 1]) < 1e-12 * N_H


# --- packet statistics ---

def _corrected_pair(truth, cal, n_th, packet_size, seed_pair):
    s_on, s_off = seed_pair.spawn(2)
    raw_on = estimate_moments(synth_traces(truth, cal, packet_size, s_on))
    raw_off = estimate_moments(synth_traces(GaussianState(0.0, n_th, 0.0), cal,
                                            packet_size, s_off))
    est = calibrate(raw_off, cal.n_h)
    return correct_moments(raw_on, est), correct_moments(raw_off, est)


def test_packet_statistics_identical_packets():
    rng = np.random.SeedSequence(40)
    truth = GaussianState(0.3, 1e-3, 0.0)
    cal = CalibrationConstants(1.2, 0.9, 0.05, N_H)
    pair = _corrected_pair(truth, cal, 7.8e-4, 20_000, rng)
    stats = packet_statistics([pair] * 25, 7.8e-4)
    # identical packets: spread is zero up to averaging roundoff
    assert stats.g2_stderr <= 1e-12 * abs(stats.g2_mean)
    assert stats.n_stderr <= 1e-12 * abs(stats.state.n)
    single = packet_statistics([pair], 7.8e-4)
    assert stats.g2_mean == pytest.approx(single.g2_mean, rel=1e-12)


def test_packet_statistics_warns_below_twenty():
    rng = np.random.SeedSequence(41)
    truth = GaussianState(0.3, 1e-3, 0.0)
    cal = CalibrationConstants(1.2, 0.9, 0.05, N_H)
    pair = _corrected_pair(truth, cal, 7.8e-4, 10_000, rng)
    stats = packet_statistics([pair] * 10, 7.8e-4)
    assert any("non-Gaussian" in w for w in stats.warnings)
    stats_ok = packet_statistics([pair] * 21, 7.8e-4)
    assert not stats_ok.warnings


def test_packet_statistics_without_population_is_nan_with_a_reason():
    # noise can put the estimate's population at or below zero: g2 has no
    # value there, which is a NaN with its reason, not an exception
    off = second_moment_set(N_H, 0.0, N_H)
    low = (second_moment_set(N_H - 2e-3, 0.0, N_H - 2e-3), off)    # n = -2e-3
    high = (second_moment_set(N_H + 1e-2, 0.0, N_H + 1e-2), off)   # n = +1e-2
    stats = packet_statistics([low] * 3, 0.0)
    assert math.isnan(stats.g2_mean) and math.isnan(stats.g2_prime_mean)
    assert math.isnan(stats.g2_stderr) and math.isnan(stats.g2_prime_stderr)
    assert stats.state.n == pytest.approx(-2e-3) and stats.n_stderr == pytest.approx(0.0)
    assert any("NaN: total population must be > 0 in the 3-packet estimate" in w
               for w in stats.warnings)
    assert any("in 3 of 3 jackknife replicas" in w for w in stats.warnings)
    # the full estimate resolves, the replica without the high packet does not
    mixed = packet_statistics([high, low, low], 0.0)
    assert math.isfinite(mixed.g2_mean) and math.isfinite(mixed.g2_prime_mean)
    assert math.isnan(mixed.g2_stderr) and math.isnan(mixed.g2_prime_stderr)
    assert math.isfinite(mixed.n_stderr)
    assert any("in 1 of 3 jackknife replicas" in w for w in mixed.warnings)
    assert not any("-packet estimate" in w for w in mixed.warnings)


def _leave_one_out_stderr(packets, n_th):
    """Jackknife standard errors with each replica re-averaged from the other P - 1 packets."""
    def mean(sets):
        return MomentSet(np.mean([ms.m for ms in sets], axis=0),
                         tuple(np.mean([ms.dc for ms in sets], axis=0).tolist()),
                         sum(ms.n_samples for ms in sets))

    rows = []
    for i in range(len(packets)):
        rest = packets[:i] + packets[i + 1:]
        on, off = mean([p[0] for p in rest]), mean([p[1] for p in rest])
        st = gaussian_params_from_moments(on, off, n_th)
        rows.append([g2_zero(st), st.alpha.real, st.alpha.imag, st.n, st.s.real, st.s.imag,
                     g2prime_from_fourth_moments(on, off, st)])
    rows = np.array(rows)
    n_p = len(packets)
    return math.sqrt((n_p - 1) / n_p) * np.sqrt(np.sum((rows - rows.mean(axis=0)) ** 2, axis=0))


@pytest.mark.parametrize("n_packets", [2, 5, 25])
def test_jackknife_matches_re_averaged_replicas(n_packets):
    # total-minus-one replicas give the same standard errors as re-averaging
    # the other P - 1 packets, up to rounding
    truth = GaussianState(0.2 + 0.1j, 2e-3, 1e-3 - 0.5e-3j)
    cal = CalibrationConstants(1.2, 0.9, 0.05, 0.5)
    packets = [_corrected_pair(truth, cal, 7.8e-4, 20_000, s)
               for s in np.random.SeedSequence((90, n_packets)).spawn(n_packets)]
    stats = packet_statistics(packets, 7.8e-4)
    want = _leave_one_out_stderr(packets, 7.8e-4)
    got = [stats.g2_stderr, stats.alpha_stderr.real, stats.alpha_stderr.imag, stats.n_stderr,
           stats.s_stderr.real, stats.s_stderr.imag, stats.g2_prime_stderr]
    assert np.all(want > 0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def test_stderr_scales_with_packet_size():
    # halving the packet size should grow the jackknife stderr by ~sqrt(2);
    # a small n_h keeps the population estimate well away from zero at these
    # desk-scale packet sizes
    truth = GaussianState(0.3, 1e-3, 0.0)
    cal = CalibrationConstants(1.0, 1.0, 0.0, 0.5)
    reps = 50
    big, small = [], []
    for rep in range(reps):
        pairs_big = [_corrected_pair(truth, cal, 7.8e-4, 20_000, s)
                     for s in np.random.SeedSequence((50, rep)).spawn(8)]
        big.append(packet_statistics(pairs_big, 7.8e-4).g2_stderr)
        pairs_small = [_corrected_pair(truth, cal, 7.8e-4, 10_000, s)
                       for s in np.random.SeedSequence((51, rep)).spawn(8)]
        small.append(packet_statistics(pairs_small, 7.8e-4).g2_stderr)
    ratio = np.mean(small) / np.mean(big)
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)


def test_end_to_end_coherent_truth_unbiased():
    truth = GaussianState(0.3, 0.0, 0.0)
    cal = CalibrationConstants(1.7, 0.8, 0.08, N_H)
    runs = [run_synthetic_experiment(truth, cal, 7.8e-4, n_packets=25,
                                     packet_size=100_000, seed=s)
            for s in (60, 61, 62)]
    for stats in runs:
        assert abs(stats.g2_mean - 1.0) < 3 * stats.g2_stderr
    # bias check: the seed-averaged jackknife mean sits within one combined
    # standard error of the truth
    mean = np.mean([s.g2_mean for s in runs])
    err = np.mean([s.g2_stderr for s in runs]) / math.sqrt(len(runs))
    assert abs(mean - 1.0) < err


def test_experiment_workers_match_serial():
    truth = GaussianState(0.2, 1e-3, 0.0)
    cal = CalibrationConstants(1.2, 0.9, 0.05, 0.5)  # small n_h: tiny packets suffice
    serial = run_synthetic_experiment(truth, cal, 7.8e-4, n_packets=6,
                                      packet_size=20_000, seed=80, workers=1)
    parallel = run_synthetic_experiment(truth, cal, 7.8e-4, n_packets=6,
                                        packet_size=20_000, seed=80, workers=2)
    assert parallel.g2_mean == serial.g2_mean
    assert parallel.state == serial.state


def test_end_to_end_recovers_gaussian_state():
    truth = GaussianState(0.1 + 0.06j, 3e-3, 1.5e-3 - 2e-3j)
    cal = CalibrationConstants(1.7, 0.8, 0.08, N_H)
    stats = run_synthetic_experiment(truth, cal, 7.8e-4, n_packets=25,
                                     packet_size=200_000, seed=61)
    assert abs(stats.state.alpha.real - truth.alpha.real) < 5 * stats.alpha_stderr.real
    assert abs(stats.state.alpha.imag - truth.alpha.imag) < 5 * stats.alpha_stderr.imag
    assert abs(stats.state.n - truth.n) < 5 * stats.n_stderr
    assert abs(stats.state.s.real - truth.s.real) < 5 * stats.s_stderr.real
    assert abs(stats.state.s.imag - truth.s.imag) < 5 * stats.s_stderr.imag
    g2_t = g2_zero(truth)
    assert abs(stats.g2_mean - g2_t) < 5 * stats.g2_stderr
