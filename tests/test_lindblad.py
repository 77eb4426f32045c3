import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.sparse import csr_array, kron

import blockadesim.lindblad as lindblad_mod
from blockadesim.blas import single_threaded
from blockadesim.cli import main
from blockadesim.hilbert import DensityMatrix, two_mode_annihilators
from blockadesim.lindblad import (Liouvillian, SteadyStateError, SystemParams,
                                  _cutoff_model, _hermitian_form, _superop_layout,
                                  build_liouvillian, displaced_solution, linearized_g2,
                                  mean_field_steady_state, mode_occupation, observables,
                                  steady_state, two_time_correlations, unvec, vec)
from conftest import ptrace, thermal_state

TWO_PI = 2.0 * math.pi
MHz = TWO_PI * 1e6

# reference device operating parameters (simplified master equation)
J = 25.1 * MHz
U = 0.25 * MHz
KAPPA_A = 10.35 * MHz
KAPPA_B = 7.0 * MHz
N_TH_A = 1.4e-3


def sample_params(eta=0.0, da=0.0, db=0.0, n_th_a=N_TH_A, n_th_b=0.0, U_=U):
    return SystemParams.from_mode_rates(da, db, J, U_, eta, 0.0,
                                        KAPPA_A, KAPPA_B, n_th_a, n_th_b)


def random_density(rng, side):
    m = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def direct_master_equation_rhs(p, rho, displacement, dims):
    """Element-wise evaluation of the master equation, independent of the
    superoperator assembly path."""
    a_op, b_op = two_mode_annihilators(*dims)
    A, B = a_op.data.copy(), b_op.data.copy()
    if displacement is not None:
        A += displacement[0] * np.eye(A.shape[0])
        B += displacement[1] * np.eye(B.shape[0])
    Ad, Bd = A.conj().T, B.conj().T
    H = (-p.delta_a * Ad @ A - p.delta_b * Bd @ B + p.J * (Ad @ B + Bd @ A)
         - p.U * Bd @ Bd @ B @ B
         + p.eta_a * Ad + np.conj(p.eta_a) * A + p.eta_b * Bd + np.conj(p.eta_b) * B)
    out = -1j * (H @ rho - rho @ H)
    for rate, C, nth in ((p.kappa_a, A, p.n_th_a), (p.kappa_b, B, p.n_th_b)):
        Cd = C.conj().T
        out += 0.5 * rate * (nth + 1) * (2 * C @ rho @ Cd - Cd @ C @ rho - rho @ Cd @ C)
        out += 0.5 * rate * nth * (2 * Cd @ rho @ C - C @ Cd @ rho - rho @ C @ Cd)
    return out


def mean_field_drift_terms(p, alpha, beta):
    """The terms of d<a>/dt and d<b>/dt at amplitudes (alpha, beta), one
    per Hamiltonian term and bath, written out from the master equation."""
    terms_a = [1j * p.delta_a * alpha, -1j * p.J * beta, -1j * p.eta_a,
               -0.5 * p.kappa_a * alpha]
    terms_b = [1j * p.delta_b * beta, -1j * p.J * alpha, -1j * p.eta_b,
               2j * p.U * abs(beta) ** 2 * beta, -0.5 * p.kappa_b * beta]
    return terms_a, terms_b


def mean_field_drift_residual(p, mf):
    """Largest drift over the largest term of its equation."""
    return max(abs(sum(terms)) / max(abs(t) for t in terms)
               for terms in mean_field_drift_terms(p, mf.alpha, mf.beta))


def kerr_fixed_point_populations(p, n_max, samples=20001):
    """Every |beta|^2 of a fixed point below n_max: roots of
    |beta(n)|^2 - n, where beta(n) solves the drift with the Kerr shift
    frozen at 2Un."""
    def excess(n):
        M = np.array([[1j * p.delta_a - 0.5 * p.kappa_a, -1j * p.J],
                      [-1j * p.J, 1j * p.delta_b + 2j * p.U * n - 0.5 * p.kappa_b]])
        return abs(np.linalg.solve(M, [1j * p.eta_a, 1j * p.eta_b])[1]) ** 2 - n

    grid = np.linspace(0.0, n_max, samples)
    values = [excess(n) for n in grid]
    return [brentq(excess, grid[k], grid[k + 1], xtol=1e-14, rtol=1e-14)
            for k in range(samples - 1) if values[k] * values[k + 1] < 0]


# --- SystemParams ---

def test_params_validation():
    assert [f.name for f in fields(SystemParams)] == [
        "delta_a", "delta_b", "J", "U", "eta_a", "eta_b", "kappa_a", "kappa_b",
        "n_th_a", "n_th_b"]
    with pytest.raises(ValueError):
        SystemParams(0, 0, J, U, 0, 0, KAPPA_A, KAPPA_B, -1e-3, 0.0)
    with pytest.raises(ValueError):
        SystemParams.from_mode_rates(0, 0, J, U, 0, 0, 0.0, KAPPA_B)
    p = sample_params()
    assert p == SystemParams(0.0, 0.0, J, U, 0.0, 0.0, KAPPA_A, KAPPA_B, N_TH_A, 0.0)


# --- mean field ---

def test_mean_field_unpumped():
    mf = mean_field_steady_state(sample_params(eta=0.0))
    assert mf.alpha == 0.0 and mf.beta == 0.0


def test_mean_field_linear_limit_matches_closed_form():
    p = sample_params(eta=0.7 * MHz, da=3 * MHz, db=-2 * MHz, U_=0.0)
    mf = mean_field_steady_state(p)
    A = np.array([[1j * p.delta_a - 0.5 * p.kappa_a, -1j * p.J],
                  [-1j * p.J, 1j * p.delta_b - 0.5 * p.kappa_b]])
    alpha, beta = np.linalg.solve(A, [1j * p.eta_a, 1j * p.eta_b])
    assert abs(mf.alpha - alpha) <= 1e-12 * abs(alpha)
    assert abs(mf.beta - beta) <= 1e-12 * abs(beta)


@pytest.mark.slow
def test_mean_field_matches_full_master_equation():
    # independent oracle: <a> of the undisplaced steady state at cutoff 10
    p = sample_params(eta=15.0 * MHz, da=-1 * MHz, db=-1 * MHz)
    mf = mean_field_steady_state(p)
    rho = steady_state(build_liouvillian(p, cutoffs=(10, 10)))
    a_op, _ = two_mode_annihilators(10, 10)
    a_mean = complex(np.trace(a_op.data @ rho.data))
    assert abs(mf.alpha - a_mean) <= 0.01 * abs(a_mean)


def test_mean_field_bistability_selects_low_branch():
    # directly driven Kerr mode, red-detuned beyond the fold threshold:
    # analytic bistable drive window eta/2pi in (22.05, 50.4) MHz here
    def params(eta):
        return SystemParams.from_mode_rates(0.0, -20 * MHz, 0.0, 0.25 * MHz,
                                            0.0, eta, KAPPA_A, KAPPA_B, 0.0, 0.0)

    low = mean_field_steady_state(params(20 * MHz))
    assert not low.warnings
    # the window edges, on either side
    for eta_mhz, bistable in ((22.0, False), (22.1, True), (50.0, True), (50.5, False)):
        edge = mean_field_steady_state(params(eta_mhz * MHz))
        assert any("bistable" in w for w in edge.warnings) == bistable, eta_mhz
    mid = mean_field_steady_state(params(30 * MHz))
    assert any("bistable" in w for w in mid.warnings)
    assert abs(mid.beta) ** 2 < 15.0  # low-amplitude branch
    high = mean_field_steady_state(params(55 * MHz))
    assert not high.warnings
    assert abs(high.beta) ** 2 > 40.0  # only the upper branch survives


@pytest.mark.parametrize("eta,da,db,branches", [
    (90.5, 14.75, 7.26, 1),    # one fixed point, at |beta|^2 ~ 70, far from the linear response
    (79.0, 28.13, -5.59, 3),   # bistable with both modes detuned
], ids=["far-from-linear-response", "bistable-both-detuned"])
def test_mean_field_returns_the_lowest_fixed_point(eta, da, db, branches):
    p = sample_params(eta=eta * MHz, da=da * MHz, db=db * MHz)
    mf = mean_field_steady_state(p)
    assert mean_field_drift_residual(p, mf) <= 1e-12
    assert any("bistable" in w for w in mf.warnings) == (branches == 3)
    populations = kerr_fixed_point_populations(p, n_max=400.0)
    assert len(populations) == branches
    assert abs(mf.beta) ** 2 == pytest.approx(populations[0], rel=1e-9)


def test_mean_field_zeroes_the_drift_with_both_modes_pumped():
    p = _real_form_params("full", 15 * MHz)
    assert p.eta_b != 0
    mf = mean_field_steady_state(p)
    assert abs(mf.alpha) > 0 and abs(mf.beta) > 0
    assert mean_field_drift_residual(p, mf) <= 1e-12


# --- linearized fluctuations ---

def test_linearized_model_is_exact_without_kerr():
    # at U = 0 the master equation is linear, so its fluctuations are the
    # linearized model's: thermal, with no anomalous moment
    p = sample_params(eta=24 * MHz, U_=0.0)
    deltas = np.array([[0.0, 0.0], [-3 * MHz, 5 * MHz]])
    g2, n, s = linearized_g2(replace(p, delta_a=deltas[:, 0], delta_b=deltas[:, 1]))
    for (da, db), g2_k, n_k, s_k in zip(deltas, g2, n, s):
        dense = displaced_solution(replace(p, delta_a=da, delta_b=db), cutoffs=(5, 5)).obs
        assert abs(n_k - dense.n) <= 1e-10 * dense.n
        assert abs(s_k) <= 1e-15
        assert g2_k == pytest.approx(dense.g2_gaussian, rel=1e-10)


def test_linearized_model_masks_points_without_a_value(monkeypatch):
    # a failed mean field, an unstable linearization and a zero population
    # give NaN, and neither reaches eigvals or the solve
    tiny_kerr = sample_params(eta=24 * MHz, U_=1e-165 * MHz)
    g2, n, s = linearized_g2(replace(tiny_kerr, delta_a=np.zeros(2), delta_b=np.zeros(2)))
    assert np.isnan(g2).all() and np.isnan(n).all() and np.isnan(s).all()
    unpumped = sample_params(eta=0.0, n_th_a=0.0)
    g2, n, s = linearized_g2(replace(unpumped, delta_a=np.zeros(1), delta_b=np.zeros(1)))
    assert np.isnan(g2).all() and np.isnan(n).all()
    # with 2U|beta|^2 above kappa_b / 2 at an effective detuning of 0,
    # mode b amplifies its own fluctuations
    real_mean_field, reached = lindblad_mod._mean_field, []
    unstable_beta = math.sqrt(KAPPA_B / U)

    def patched(p):
        alpha, beta, residual, roots = real_mean_field(p)
        beta[1], residual[2] = unstable_beta, math.nan
        return alpha, beta, residual, roots

    def recording(real):
        return lambda a, *rest: reached.append(a.shape) or real(a, *rest)

    monkeypatch.setattr(lindblad_mod, "_mean_field", patched)
    monkeypatch.setattr(np.linalg, "eigvals", recording(np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "solve", recording(np.linalg.solve))
    db = np.array([0.0, -4 * U * unstable_beta ** 2, 0.0])
    g2, n, s = linearized_g2(replace(sample_params(eta=24 * MHz), delta_a=np.zeros(3),
                                     delta_b=db))
    assert np.isfinite(g2[0]) and np.isnan(g2[1:]).all()
    # the mean field's companion matrices, then R and the Lyapunov system
    assert reached == [(3, 3, 3), (2, 4, 4), (1, 16, 16)]


# --- Liouvillian construction ---

def test_liouvillian_matches_direct_evaluation():
    rng = np.random.default_rng(0)
    p = SystemParams.from_mode_rates(3 * MHz, -2 * MHz, J, U, (0.4 + 0.1j) * MHz, 0.0,
                                     KAPPA_A, KAPPA_B, N_TH_A, 2e-3)
    for disp in (None, (0.3 - 0.2j, -0.1 + 0.5j)):
        L = build_liouvillian(p, displacement=disp, cutoffs=(3, 3))
        for _ in range(5):
            rho = random_density(rng, 9)
            got = L.apply(rho)
            want = direct_master_equation_rhs(p, rho, disp, (3, 3))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_liouvillian_trace_and_hermiticity_preservation():
    rng = np.random.default_rng(1)
    p = sample_params(eta=2 * MHz, da=1 * MHz, db=1 * MHz)
    L = build_liouvillian(p, displacement=(0.2, -0.4j), cutoffs=(4, 4))
    for _ in range(5):
        rho = random_density(rng, 16)
        drho = L.apply(rho)
        assert abs(np.trace(drho)) <= 1e-10 * np.abs(drho).max()
        assert np.abs(drho - drho.conj().T).max() <= 1e-10 * np.abs(drho).max()


def test_thermal_product_state_is_fixed_point():
    # equal bath occupations: the thermal product commutes with the beam-splitter
    # coupling and is stationary even at J != 0
    nbar = 0.1
    p = SystemParams.from_mode_rates(0, 0, J, 0.0, 0, 0, KAPPA_A, KAPPA_B, nbar, nbar)
    cut = 10
    L = build_liouvillian(p, cutoffs=(cut, cut))
    rho_th = np.kron(thermal_state(cut, nbar).data, thermal_state(cut, nbar).data)
    resid = np.abs(L.apply(rho_th)).max() / (L.max_abs * np.abs(rho_th).max())
    assert resid < 1e-8  # truncated thermal tail sets the floor
    rho_ss = steady_state(L)
    fidelity = np.trace(rho_ss.data @ rho_th).real / np.trace(rho_th @ rho_th).real
    assert fidelity == pytest.approx(1.0, abs=1e-6)


def test_displaced_at_origin_equals_undisplaced():
    p = sample_params(eta=1 * MHz)
    L0 = build_liouvillian(p, displacement=None, cutoffs=(3, 3))
    L1 = build_liouvillian(p, displacement=(0.0, 0.0), cutoffs=(3, 3))
    assert np.array_equal(L0.superoperator().toarray(), L1.superoperator().toarray())


def test_displaced_frame_cancels_linear_drive():
    p = sample_params(eta=15 * MHz, da=2 * MHz, db=2 * MHz)
    mf = mean_field_steady_state(p)
    L = build_liouvillian(p, displacement=(mf.alpha, mf.beta), cutoffs=(4, 4))
    vac = np.zeros((16, 16), dtype=complex)
    vac[0, 0] = 1.0
    a_op, b_op = two_mode_annihilators(4, 4)
    drift = L.apply(vac)
    for op in (a_op, b_op):
        residual_drive = abs(np.trace(op.data @ drift))
        assert residual_drive <= 1e-9 * p.kappa_a


def test_bare_jumps_equal_the_displaced_dissipators():
    # L.apply against sum_m w_m D[c_m + s_m] rho - i[H, rho] with the shifted
    # jumps written out: a + alpha, b + beta, a' + conj(alpha), b' + conj(beta)
    p = _real_form_params("full", 15 * MHz)
    assert p.n_th_a > 0 and p.n_th_b > 0
    mf = mean_field_steady_state(p)
    alpha, beta = mf.alpha, mf.beta
    L = build_liouvillian(p, displacement=(alpha, beta), cutoffs=(4, 3))
    a_op, b_op = two_mode_annihilators(4, 3)
    eye = np.eye(12)
    A, B = a_op.data + alpha * eye, b_op.data + beta * eye
    Ad, Bd = A.conj().T, B.conj().T
    H = (-p.delta_a * Ad @ A - p.delta_b * Bd @ B + p.J * (Ad @ B + Bd @ A)
         - p.U * Bd @ Bd @ B @ B
         + p.eta_a * Ad + np.conj(p.eta_a) * A + p.eta_b * Bd + np.conj(p.eta_b) * B)
    shifted_jumps = [(p.kappa_a * (p.n_th_a + 1), a_op.data + alpha * eye),
                     (p.kappa_a * p.n_th_a, a_op.data.conj().T + np.conj(alpha) * eye),
                     (p.kappa_b * (p.n_th_b + 1), b_op.data + beta * eye),
                     (p.kappa_b * p.n_th_b, b_op.data.conj().T + np.conj(beta) * eye)]
    rng = np.random.default_rng(11)
    for _ in range(3):
        rho = random_density(rng, 12)
        want = -1j * (H @ rho - rho @ H)
        for w, c in shifted_jumps:
            cdc = c.conj().T @ c
            want += w * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc))
        assert np.abs(L.apply(rho) - want).max() <= 1e-13 * L.max_abs


@pytest.mark.parametrize("cutoffs", [(3, 3), (4, 3), (2, 2), (4, 4), (5, 5)])
@pytest.mark.parametrize("displaced", [False, True])
def test_hermitian_form_matches_the_dense_superoperator(cutoffs, displaced):
    # M = Re L + (Im L) P, P the transpose permutation of the input index
    p = _real_form_params("full", 15 * MHz if displaced else 1 * MHz)
    mf = mean_field_steady_state(p)
    L = build_liouvillian(p, displacement=(mf.alpha, mf.beta) if displaced else None,
                          cutoffs=cutoffs)
    dense = L.superoperator().toarray()
    side, joint = L.side, cutoffs[0] * cutoffs[1]
    want = (dense.real.reshape(side, joint, joint)
            + dense.imag.reshape(side, joint, joint).transpose(0, 2, 1)).reshape(side, side)
    assert np.abs(_hermitian_form(L._layout, L.entries, 1.0) - want).max() <= 1e-14 * L.max_abs


def _kron_sum(K, weights, jumps):
    """The superoperator of (K, weights, jumps) in CSR form, one sparse kron per term.

    Column stacking, vec(X rho Y) = kron(Y.T, X) vec(rho), so
    L = kron(I, K) + kron(conj K, I) + sum_m kron(w_m C_m, C_m).
    """
    eye = csr_array(np.eye(K.shape[0]))
    L = kron(eye, K, format="csr") + kron(K.conj(), eye, format="csr")
    for w, C in zip(weights, jumps):
        L = L + kron(csr_array(w * C), C, format="csr")
    return L


@pytest.mark.parametrize("mode", ["simplified", "full", "cold-b"])
@pytest.mark.parametrize("displaced", [False, True], ids=["undisplaced", "displaced"])
@pytest.mark.parametrize("cutoffs", [(3, 3), (4, 4), (6, 6), (9, 8), (10, 10), (6, 24)],
                         ids=lambda c: f"{c[0]}x{c[1]}")
def test_superoperator_matches_the_kron_sum(cutoffs, displaced, mode):
    # entry for entry, bit for bit, with the same stored pattern: the
    # layout's gather is the sum of the sparse krons of the terms.  At
    # n_th_b = 0 ("cold-b") the b' jump has zero weight and stores nothing
    eta = 15 * MHz if displaced else 1 * MHz
    if mode == "cold-b":
        p = replace(_real_form_params("simplified", eta), n_th_b=0.0)
    else:
        p = _real_form_params(mode, eta)
    mf = mean_field_steady_state(p)
    L = build_liouvillian(p, displacement=(mf.alpha, mf.beta) if displaced else None,
                          cutoffs=cutoffs)
    got, want = L.superoperator(), _kron_sum(*L.terms)
    assert got.nnz == want.nnz
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    assert np.shares_memory(got.data, L.entries)


@pytest.mark.parametrize("mode", ["simplified", "full", "cold-b"])
@pytest.mark.parametrize("displaced", [False, True], ids=["undisplaced", "displaced"])
@pytest.mark.parametrize("cutoffs", [(3, 3), (4, 4), (6, 6), (9, 8), (10, 10), (6, 24)],
                         ids=lambda c: f"{c[0]}x{c[1]}")
def test_trace_leak_from_the_entries_matches_the_terms(monkeypatch, cutoffs, displaced, mode):
    # d Tr(rho)/dt = Tr[(K + K' + sum_m w_m C_m' C_m) rho]: the sum of the
    # entries in L's trace rows, by column, is vec of that matrix's transpose.
    # K and the weights are scaled at random on their supports, so the leak
    # is of the order of max|L|, and the guard is switched off to build L
    eta = 15 * MHz if displaced else 1 * MHz
    if mode == "cold-b":
        p = replace(_real_form_params("simplified", eta), n_th_b=0.0)
    else:
        p = _real_form_params(mode, eta)
    mf = mean_field_steady_state(p)
    K, weights, jumps = build_liouvillian(
        p, displacement=(mf.alpha, mf.beta) if displaced else None, cutoffs=cutoffs).terms
    rng = np.random.default_rng(3)
    K = K * (1.0 + rng.random(K.shape) + 1j * rng.random(K.shape))
    weights = weights * (1.0 + rng.random(weights.size))
    monkeypatch.setattr(lindblad_mod, "TRACE_PRESERVATION_TOL", np.inf)
    L = Liouvillian(cutoffs, (K, weights, jumps))
    want = K + K.conj().T + np.einsum("m,mji,mjk->ik", weights, jumps, jumps)
    assert np.abs(want).max() > 0.1 * L.max_abs
    layout = L._layout
    leak = np.bincount(layout.trace_columns, weights=L.entries[layout.trace_entries].view(float),
                       minlength=2 * L.side).view(complex)
    assert np.abs(leak - vec(want.T)).max() <= 1e-14 * L.max_abs


def test_overlapping_jumps_raise():
    # a at weight kappa_a split over two copies of a: the same master
    # equation, but one stored entry would be a sum of two jump products
    K, weights, jumps = build_liouvillian(sample_params(n_th_a=0.0), cutoffs=(3, 3)).terms
    split = jumps.copy()
    split[1] = jumps[0]
    halves = weights.copy()
    halves[:2] = 0.5 * weights[0]
    with pytest.raises(ValueError, match="disjoint"):
        Liouvillian((3, 3), (K, halves, split))


def test_superoperator_build_allocates_little_beyond_its_csr():
    # the oracle size, (10, 10) undisplaced, with the layout cached: the
    # gather's source and the max|L| temporary add at most half the CSR
    def superoperator(delta):
        return build_liouvillian(sample_params(eta=15 * MHz, da=delta, db=delta),
                                 cutoffs=(10, 10)).superoperator()

    superoperator(-10 * MHz)
    tracemalloc.start()
    try:
        csr = superoperator(-5 * MHz)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)


def test_a_one_point_stack_gathers_as_a_single_point():
    # np.take would copy the layout's read-only gather index (1.4 MB at
    # displaced (10, 10)); a stack of one point indexes as a single point does
    L = build_liouvillian(sample_params(eta=15 * MHz), displacement=(0.1 + 0.2j, 0.05j),
                          cutoffs=(10, 10))
    K, weights, jumps = L.terms

    def gather_peak(K):
        tracemalloc.start()
        try:
            lindblad_mod._superop_entries(L._layout, K, weights, jumps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single, stack = gather_peak(K), gather_peak(K[None])
    assert stack - single < 0.01 * L._layout.gather.nbytes


def test_the_layout_gathers_with_intp_and_keeps_int32_for_the_csr():
    # an int32 index costs a cast to intp at every gather
    L = build_liouvillian(sample_params(eta=15 * MHz), cutoffs=(4, 4))
    layout = L._layout
    assert layout.indptr.dtype == layout.indices.dtype == np.int32
    gathers = (layout.gather, layout.left, layout.right, layout.trace_entries,
               layout.trace_columns)
    assert all(index.dtype == np.intp and not index.flags.writeable for index in gathers)
    assert np.shares_memory(L.superoperator().indices, layout.indices)


@pytest.mark.parametrize("command", ["envelope", "map", "g2-sweep"])
def test_one_superop_layout_per_cutoff_pair_in_a_sweep(tmp_path, command):
    # the packaged config solves every point displaced at cutoff 4 with one
    # set of jump weights, so a whole sweep builds one layout
    _superop_layout.cache_clear()
    assert main([command, "--out", str(tmp_path), "--workers", "1"]) == 0
    assert _superop_layout.cache_info().misses == 1


def test_a_zero_drift_shares_the_layout_of_a_nonzero_one():
    # displaced, K's a and a' coefficients are the a drift, rounding residue
    # that is exactly 0 at (-18, -18) MHz.  A displaced L keys its layout by
    # the cutoff pair's structural support, as the stacked grid does, so that
    # point shares the layout of a point whose drift is not 0
    def displaced_at(delta_mhz):
        p = sample_params(eta=15 * MHz, da=delta_mhz * MHz, db=delta_mhz * MHz)
        mf = mean_field_steady_state(p)
        return build_liouvillian(p, displacement=(mf.alpha, mf.beta))

    zero_drift, drift = displaced_at(-18.0), displaced_at(-17.0)
    a = _cutoff_model(4, 4).A
    assert not zero_drift.terms[0][a != 0].any() and drift.terms[0][a != 0].all()
    assert zero_drift._layout is drift._layout


@pytest.mark.parametrize("cutoffs", [(4, 4), (6, 6)], ids=["lu", "gmres"])
@pytest.mark.parametrize("p", [sample_params(eta=15 * MHz, da=3 * MHz, db=3 * MHz, U_=0.0),
                               sample_params(eta=0.0, da=3 * MHz, db=3 * MHz)],
                         ids=["U=0", "eta=0"])
def test_the_structural_layout_stores_zeros_that_change_nothing(p, cutoffs):
    # at U = 0 or eta = 0 part of K's basis has a zero coefficient; a
    # displaced L stores those zeros, the L of K != 0 does not, and both
    # give the same superoperator and the same steady state, bit for bit
    mf = mean_field_steady_state(p)
    structural = build_liouvillian(p, displacement=(mf.alpha, mf.beta), cutoffs=cutoffs)
    plain = Liouvillian(cutoffs, structural.terms)
    assert plain.entries.size < structural.entries.size
    assert structural.is_sparse == (cutoffs == (6, 6))
    assert (structural.superoperator() != plain.superoperator()).nnz == 0
    assert np.array_equal(steady_state(structural).data, steady_state(plain).data)


def test_jumps_must_be_real_with_a_zero_diagonal():
    K, weights, jumps = build_liouvillian(sample_params(), cutoffs=(3, 3)).terms
    diagonal = jumps.copy()
    diagonal[0] += 0.1 * np.eye(9)
    with pytest.raises(ValueError, match="zero diagonal"):
        Liouvillian((3, 3), (K, weights, diagonal))
    with pytest.raises(ValueError, match="real"):
        Liouvillian((3, 3), (K, weights, jumps * np.exp(0.3j)))


def test_max_abs_ignores_a_global_energy_offset():
    # H -> H + h I leaves L unchanged, while |K| grows with h on its diagonal
    K, weights, jumps = build_liouvillian(sample_params(eta=1 * MHz), cutoffs=(3, 3)).terms
    L = Liouvillian((3, 3), (K, weights, jumps))
    offset = Liouvillian((3, 3), (K - 1e3j * L.max_abs * np.eye(9), weights, jumps))
    assert offset.max_abs == pytest.approx(L.max_abs, rel=1e-12)
    assert offset.max_abs == pytest.approx(np.abs(offset.superoperator().data).max(), rel=1e-12)


@pytest.mark.parametrize("displaced", [False, True], ids=["undisplaced", "displaced"])
@pytest.mark.parametrize("cutoffs", [(4, 4), (6, 6), (9, 8), (10, 10), (6, 24)],
                         ids=lambda c: f"{c[0]}x{c[1]}")
def test_max_abs_is_the_superoperator_max(cutoffs, displaced):
    # acceptance 11's oracle point (delta = -10 MHz): max_abs, read from the
    # diagonal entries of L, is bit for bit the largest stored entry of the
    # same L's superoperator, whatever order the BLAS sums K in
    p = sample_params(eta=15 * MHz, da=-10 * MHz, db=-10 * MHz)
    mf = mean_field_steady_state(p)
    L = build_liouvillian(p, displacement=(mf.alpha, mf.beta) if displaced else None,
                          cutoffs=cutoffs)
    assert L.max_abs == np.abs(L.superoperator().data).max()


def test_trace_preservation_guard():
    # jump weights that no longer match the damping folded into K
    K, weights, jumps = build_liouvillian(sample_params(), cutoffs=(3, 3)).terms
    with pytest.raises(ValueError, match="trace"):
        Liouvillian((3, 3), (K, 2.0 * weights, jumps))


@pytest.mark.parametrize("cutoffs", [(10, 10), (6, 24)], ids=lambda c: f"{c[0]}x{c[1]}")
@pytest.mark.parametrize("broken", ["weights", "K-diagonal"])
def test_trace_preservation_guard_at_gmres_sizes(cutoffs, broken):
    L = build_liouvillian(sample_params(eta=15 * MHz), cutoffs=cutoffs)
    assert L.is_sparse
    K, weights, jumps = L.terms
    if broken == "weights":
        weights = 2.0 * weights
    else:
        K = K + 1e-6 * np.abs(K).max() * np.eye(K.shape[0])
    with pytest.raises(ValueError, match="trace"):
        Liouvillian(cutoffs, (K, weights, jumps))


def test_cutoff_overflow_guard():
    with pytest.raises(ValueError, match="guard"):
        build_liouvillian(sample_params(), cutoffs=(13, 13))


# --- steady state ---

def test_pump_off_occupation_near_reference_value():
    rho = steady_state(build_liouvillian(sample_params(), cutoffs=(4, 4)))
    n_a = mode_occupation(rho, 0)
    assert n_a == pytest.approx(7.8e-4, rel=0.15)


def test_pump_off_far_detuned_decouples():
    p = sample_params(db=-800 * MHz)
    n_a = mode_occupation(steady_state(build_liouvillian(p, cutoffs=(4, 4))), 0)
    assert n_a == pytest.approx(N_TH_A, rel=0.05)


def test_vacuum_steady_state():
    p = sample_params(n_th_a=0.0, n_th_b=0.0)
    rho = steady_state(build_liouvillian(p, cutoffs=(4, 4)))
    assert rho.data[0, 0].real == pytest.approx(1.0, abs=1e-8)


def test_detailed_balance_single_mode():
    # decoupled Kerr-free mode: diagonal steady state with thermal ratios
    nbar = 0.12
    p = SystemParams.from_mode_rates(0, 0, 0.0, 0.0, 0, 0, KAPPA_A, KAPPA_B, nbar, 0.0)
    rho = steady_state(build_liouvillian(p, cutoffs=(8, 2)))
    pops = np.diag(ptrace(rho, 0).data).real
    ratio = nbar / (nbar + 1.0)
    for n in range(5):
        assert pops[n + 1] / pops[n] == pytest.approx(ratio, abs=1e-6)
    off_diag = ptrace(rho, 0).data - np.diag(np.diag(ptrace(rho, 0).data))
    assert np.abs(off_diag).max() < 1e-10


def test_steady_state_reports_degenerate_null_space():
    # the zero generator: every state is stationary
    zero = (np.zeros((4, 4), dtype=complex), np.zeros(0), np.zeros((0, 4, 4)))
    with pytest.raises(SteadyStateError):
        steady_state(Liouvillian((2, 2), zero))


def test_exactly_singular_real_form_raises():
    # one decay |1> -> |0> among four levels: |2> and |3> are stationary too
    c = np.zeros((4, 4))
    c[0, 1] = 1.0
    K = -0.5 * (c.T @ c).astype(complex)
    with pytest.raises(SteadyStateError, match="LU solve failed"):
        steady_state(Liouvillian((2, 2), (K, np.array([1.0]), c[None])))


def test_sparse_path_matches_dense(monkeypatch):
    # with the crossover raised to 64, (8, 8) still runs the dense LU, while
    # (9, 8), joint dimension 72, runs GMRES
    monkeypatch.setattr(lindblad_mod, "DENSE_SUPEROP_MAX_JOINT_DIM", 64)
    p = sample_params(eta=0.5 * MHz, da=1 * MHz, db=1 * MHz)
    L_sparse = build_liouvillian(p, cutoffs=(9, 8))
    assert L_sparse.is_sparse
    rho_sparse = steady_state(L_sparse)
    rho_dense = steady_state(build_liouvillian(p, cutoffs=(8, 8)))
    n_sparse = mode_occupation(rho_sparse, 0)
    n_dense = mode_occupation(rho_dense, 0)
    assert n_sparse == pytest.approx(n_dense, rel=1e-6)


@pytest.mark.parametrize("cutoffs,sparse", [((5, 5), False), ((5, 6), True)])
def test_dense_gmres_crossover_at_joint_dimension_25(cutoffs, sparse):
    assert build_liouvillian(sample_params(), cutoffs=cutoffs).is_sparse is sparse


SOLVE_CONTRACT_TOL = 1e-11   # measured: about 1e-15 (LU) and 2e-13 (GMRES) relative


@pytest.mark.parametrize("cutoffs", [(4, 4), (5, 6)], ids=["lu", "gmres"])
def test_solve_meets_one_contract_on_both_paths(cutoffs, monkeypatch):
    # L._solve(R, trace) is X with L X / max|L| = R and Tr X = trace for
    # Hermitian R of zero trace, whichever solver runs; the residual is
    # relative to max|R| and the trace error to max|X|
    p = sample_params(eta=24 * MHz, da=-2 * MHz, db=2 * MHz)
    mf = mean_field_steady_state(p)
    L = build_liouvillian(p, displacement=(mf.alpha, mf.beta), cutoffs=cutoffs)
    assert L.is_sparse is (cutoffs == (5, 6))
    n = math.prod(cutoffs)
    rng = np.random.default_rng(30)
    A = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    R = A + A.conj().swapaxes(1, 2)
    R -= np.trace(R, axis1=1, axis2=2)[:, None, None] * np.eye(n) / n
    for trace in (0.0, 0.7):
        X = L._solve(R, trace)
        assert X.shape == R.shape
        assert np.abs(L.apply(X) / L.max_abs - R).max() <= SOLVE_CONTRACT_TOL * np.abs(R).max()
        assert (np.abs(np.trace(X, axis1=1, axis2=2) - trace).max()
                <= SOLVE_CONTRACT_TOL * np.abs(X).max())

    # steady_state checks the solve of R = 0 at trace 1, bit for bit (at the
    # one BLAS thread steady_state runs at, as GMRES's products round by count)
    checked, real = [], lindblad_mod._steady_states
    monkeypatch.setattr(lindblad_mod, "_steady_states",
                        lambda terms, raw, scale: checked.append(raw) or real(terms, raw, scale))
    steady_state(L)
    with single_threaded():
        assert np.array_equal(checked[0], L._solve(np.zeros((n, n)), 1.0)[None])


def test_gmres_solve_applies_l_once_for_the_residual(monkeypatch):
    # GMRES runs on the CSR superoperator; the matrix-free apply is left to
    # the residual check, on the solution as a stack of one
    calls = []
    real = lindblad_mod._apply

    def counting(K, weights, jumps, rho):
        calls.append(rho.shape)
        return real(K, weights, jumps, rho)

    monkeypatch.setattr(lindblad_mod, "_apply", counting)
    L = build_liouvillian(sample_params(eta=0.5 * MHz, da=1 * MHz, db=1 * MHz), cutoffs=(9, 8))
    assert L.is_sparse
    steady_state(L)
    assert calls == [(1, 72, 72)]


def _terms_at(p, cutoffs, displacement=None):
    return build_liouvillian(p, displacement=displacement, cutoffs=cutoffs).terms


def reference_terms(p, cutoffs, displacement=None):
    """(K, weights, jumps) with K from the explicit products of the shifted operators.

    The bare, real jumps a (kappa_a (n_th_a + 1)), b (kappa_b (n_th_b + 1)),
    plus a' and b' (kappa n_th) where n_th > 0; each jump's shift s (alpha,
    beta for a, b; conj(alpha), conj(beta) for a', b') goes into
    K = -iH(A + alpha, B + beta) - 1/2 sum_m w_m C_m' C_m
        + 1/2 sum_m w_m (conj(s_m) C_m - s_m C_m'),
    as D[c + s] = D[c] + 1/2 [conj(s) c - s c', .].
    """
    a_op, b_op = two_mode_annihilators(*cutoffs)
    A, B = a_op.data.real, b_op.data.real
    alpha, beta = (0.0, 0.0) if displacement is None else displacement
    eye = np.eye(A.shape[0])
    As, Bs = A + alpha * eye, B + beta * eye
    Ad, Bd = As.conj().T, Bs.conj().T
    H = (-p.delta_a * (Ad @ As) - p.delta_b * (Bd @ Bs)
         + p.J * (Ad @ Bs + Bd @ As)
         - p.U * (Bd @ Bd @ Bs @ Bs)
         + p.eta_a * Ad + np.conj(p.eta_a) * As
         + p.eta_b * Bd + np.conj(p.eta_b) * Bs)
    K = -1j * H
    weights, jumps = [], []
    for rate, C, s, n_th in ((p.kappa_a, A, alpha, p.n_th_a), (p.kappa_b, B, beta, p.n_th_b)):
        triples = [(rate * (n_th + 1.0), C, s)]
        if n_th > 0:
            triples.append((rate * n_th, C.T, np.conj(s)))
        for w, c, s_c in triples:
            K = K - (0.5 * w) * (c.T @ c) + (0.5 * w) * (np.conj(s_c) * c - s_c * c.T)
            weights.append(w)
            jumps.append(c)
    return K, np.array(weights), np.array(jumps)


@pytest.mark.parametrize("cutoffs", [(4, 4), (4, 3), (9, 8)])
@pytest.mark.parametrize("displaced", [False, True])
def test_cached_k_matches_the_explicit_products(cutoffs, displaced):
    # thermal jumps on both modes and a complex eta_b: every basis term is on
    p = _real_form_params("full", 15 * MHz if displaced else 1 * MHz)
    assert p.n_th_a > 0 and p.n_th_b > 0 and p.eta_b.imag != 0
    disp = None
    if displaced:
        mf = mean_field_steady_state(p)
        disp = (mf.alpha, mf.beta)
    L = build_liouvillian(p, displacement=disp, cutoffs=cutoffs)
    ref = Liouvillian(cutoffs, reference_terms(p, cutoffs, disp))
    rng = np.random.default_rng(7)
    for _ in range(3):
        rho = random_density(rng, cutoffs[0] * cutoffs[1])
        assert np.abs(L.apply(rho) - ref.apply(rho)).max() <= 1e-13 * L.max_abs


def test_cutoff_model_is_shared_and_read_only():
    model = _cutoff_model(4, 3)
    assert _cutoff_model(4, 3) is model
    arrays = (model.A, model.B, model.basis, model.jumps, model.moments, model.k_support)
    assert not any(array.flags.writeable for array in arrays)
    L0 = build_liouvillian(sample_params(eta=1 * MHz), cutoffs=(4, 3))
    L1 = build_liouvillian(sample_params(eta=2 * MHz, da=1 * MHz), cutoffs=(4, 3))
    assert L0.terms[2] is model.jumps and L1.terms[2] is model.jumps
    with pytest.raises(ValueError):
        model.basis[0, 0] = 1.0
    # the jumps' C'C lead the basis, so the damping of K reads them
    products = model.jumps.transpose(0, 2, 1) @ model.jumps
    assert np.array_equal(model.basis[:4], products.reshape(4, -1))
    # under 1 MB at cutoff 4
    assert sum(a.nbytes for a in _cutoff_model(4, 4).__dict__.values()) < 2 ** 20


@pytest.mark.parametrize("cutoffs", [(3, 3), (4, 3), (9, 8)])
@pytest.mark.parametrize("mode", ["simplified", "full", "damping-only"])
@pytest.mark.parametrize("displaced", [False, True])
def test_matrix_free_apply_matches_dense(cutoffs, mode, displaced):
    # n_th > 0 in every mode, so the C' jumps are present; with H = 0 the
    # largest entry of L is a diagonal one.  (9, 8) is above the dense
    # threshold, where the superoperator is only ever used sparse
    eta = 15 * MHz if displaced else 1 * MHz
    if mode == "damping-only":
        p = replace(_real_form_params("simplified", eta), delta_a=0.0, delta_b=0.0,
                    J=0.0, U=0.0)
    else:
        p = _real_form_params(mode, eta)
    disp = None
    if displaced:
        mf = mean_field_steady_state(p)
        disp = (mf.alpha, mf.beta)
    L = Liouvillian(cutoffs, _terms_at(p, cutoffs, disp))
    superop = L.superoperator()
    assert superop.shape == (L.side, L.side)
    assert L.max_abs == pytest.approx(np.abs(superop.data).max(), rel=1e-14)
    rng = np.random.default_rng(3)
    joint = cutoffs[0] * cutoffs[1]
    for _ in range(3):
        rho = random_density(rng, joint)
        want = unvec(superop @ vec(rho), joint)
        assert np.abs(L.apply(rho) - want).max() <= 1e-14 * L.max_abs


def test_matrix_free_trace_preservation_guard():
    K, weights, jumps = _terms_at(sample_params(), (3, 3))
    broken = K.copy()
    broken[1, 2] += np.abs(K).max()
    with pytest.raises(ValueError, match="trace"):
        Liouvillian((3, 3), (broken, weights, jumps))


def test_gmres_failure_raises(monkeypatch):
    # one cycle of two steps cannot solve the (9, 8) steady state
    monkeypatch.setattr(lindblad_mod, "GMRES_RESTART", 2)
    monkeypatch.setattr(lindblad_mod, "GMRES_MAX_CYCLES", 1)
    L = build_liouvillian(sample_params(eta=0.5 * MHz), cutoffs=(9, 8))
    with pytest.raises(SteadyStateError, match="GMRES"):
        steady_state(L)


def _nonnormal_system():
    """A dense non-normal A (40 x 40), b, and an inexact preconditioner: the
    inverse of A's upper triangle with its entries perturbed by 1 %."""
    side, rng = 40, np.random.default_rng(35)
    A = (np.diag(np.linspace(1.0, 10.0, side) * np.exp(1j * np.linspace(0.0, 1.0, side)))
         + np.triu(rng.normal(size=(side, side)), 1)
         + 0.3 * np.tril(rng.normal(size=(side, side)), -1))
    M = np.linalg.inv(np.triu(A) * (1.0 + 0.01 * rng.normal(size=(side, side))))
    b = rng.normal(size=side) + 1j * rng.normal(size=side)
    return A, M, b


def test_gmres_reaches_the_true_residual_with_an_inexact_preconditioner():
    A, M, b = _nonnormal_system()
    # far from normal, and far from inverted by M: measured 0.13 and 9.6
    assert np.linalg.norm(A @ A.conj().T - A.conj().T @ A) > 0.1 * np.linalg.norm(A) ** 2
    assert np.linalg.norm(np.eye(40) - A @ M, 2) > 1.0
    for precondition in (lambda r: M @ r, lambda r: r):
        x = lindblad_mod._gmres(lambda v: A @ v, precondition, b)
        assert np.linalg.norm(b - A @ x) <= lindblad_mod.GMRES_RTOL * np.linalg.norm(b)
    assert not lindblad_mod._gmres(lambda v: A @ v, lambda r: M @ r, np.zeros(40, complex)).any()


def test_gmres_raises_when_its_cycles_run_out(monkeypatch):
    A, M, b = _nonnormal_system()
    monkeypatch.setattr(lindblad_mod, "GMRES_RESTART", 3)
    monkeypatch.setattr(lindblad_mod, "GMRES_MAX_CYCLES", 2)
    calls = []
    with pytest.raises(SteadyStateError, match="GMRES did not reach"):
        lindblad_mod._gmres(lambda v: calls.append(1) or A @ v, lambda r: M @ r, b)
    # each cycle: three Arnoldi steps and the true residual at its end
    assert len(calls) == 2 * (3 + 1)


def test_gmres_raises_at_once_on_a_nan_matvec():
    A, M, b = _nonnormal_system()
    calls = []

    def nan_matvec(v):
        calls.append(1)
        return np.full_like(v, np.nan)

    with pytest.raises(SteadyStateError, match="GMRES residual is not finite"):
        lindblad_mod._gmres(nan_matvec, lambda r: M @ r, b)
    assert len(calls) == 1


def test_undriven_vacuum_on_the_matrix_free_path():
    # the vacuum is an eigenvector of K with eigenvalue 0, so one Sylvester
    # denominator lam_i + conj(lam_j) vanishes
    p = sample_params(eta=0.0, n_th_a=0.0, n_th_b=0.0)
    L = build_liouvillian(p, cutoffs=(9, 8))
    assert L.is_sparse
    assert steady_state(L).data[0, 0].real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("da, db", [(0.0, 0.0), (14.339 * MHz, -1.140 * MHz)],
                         ids=["resonant", "48MHz-optimum"])
def test_gmres_at_zero_bath_occupation_matches_dense(da, db):
    # with no thermal jump only the weak drive lifts the displaced vacuum's
    # Sylvester denominator off 0, to about 1e-11 of the largest; an eps
    # floor there stalled GMRES
    p = sample_params(eta=0.5 * MHz, da=da, db=db, n_th_a=0.0)
    gmres_obs = displaced_solution(p, cutoffs=(6, 6)).obs
    dense_obs = displaced_solution(p, cutoffs=(5, 5)).obs
    assert build_liouvillian(p, cutoffs=(6, 6)).is_sparse
    assert gmres_obs.g2_gaussian == pytest.approx(dense_obs.g2_gaussian, rel=1e-8)
    assert gmres_obs.n_tot == pytest.approx(dense_obs.n_tot, rel=1e-8)


def test_preconditioner_inverts_the_sylvester_part(monkeypatch):
    real = lindblad_mod._gmres
    captured = []

    def capturing(matvec, precondition, b):
        captured.append(precondition)
        return real(matvec, precondition, b)

    monkeypatch.setattr(lindblad_mod, "_gmres", capturing)
    L = build_liouvillian(_real_form_params("full", 1 * MHz), cutoffs=(9, 8))
    steady_state(L)
    K = L.terms[0]
    rng = np.random.default_rng(5)
    for _ in range(3):
        X = rng.normal(size=(72, 72)) + 1j * rng.normal(size=(72, 72))
        got = unvec(captured[0](vec(K @ X + X @ K.conj().T) / L.max_abs), 72)
        # one eigenbasis solve, cond(V) about 5 here: measured 8.5e-13 to 1.1e-12
        assert np.abs(got - X).max() <= 1e-11 * np.abs(X).max()


def test_singular_eigenvectors_of_k_raise(monkeypatch):
    real = np.linalg.eig

    def repeated_column(a):
        lam, V = real(a)
        V[:, 1] = V[:, 0]
        return lam, V

    monkeypatch.setattr(np.linalg, "eig", repeated_column)
    L = build_liouvillian(sample_params(eta=0.5 * MHz), cutoffs=(9, 8))
    with pytest.raises(SteadyStateError, match="preconditioner"):
        steady_state(L)



def _real_form_params(mode: str, eta: float) -> SystemParams:
    """Pumped parameters with both baths thermal (n_th > 0 adds the C' jumps).

    "simplified" pumps mode a alone; "full" switches on every drive and
    bath term of the model, a complex pump on mode b included.
    """
    if mode == "simplified":
        return sample_params(eta=eta, da=1.5 * MHz, db=-0.5 * MHz, n_th_b=3e-3)
    return SystemParams(1.5 * MHz, -0.5 * MHz, J, U, eta, (0.2 + 0.1j) * MHz,
                        KAPPA_A, KAPPA_B, 1.5e-2, 5e-4)


def _kron_sum_liouvillian(p, displacement, cutoffs):
    """The generator as a plain sum of one kron per term (column stacking)."""
    a_op, b_op = two_mode_annihilators(*cutoffs)
    eye = np.eye(a_op.side)
    A = a_op.data + (0 if displacement is None else displacement[0]) * eye
    B = b_op.data + (0 if displacement is None else displacement[1]) * eye
    Ad, Bd = A.conj().T, B.conj().T
    H = (-p.delta_a * Ad @ A - p.delta_b * Bd @ B + p.J * (Ad @ B + Bd @ A)
         - p.U * Bd @ Bd @ B @ B
         + p.eta_a * Ad + np.conj(p.eta_a) * A + p.eta_b * Bd + np.conj(p.eta_b) * B)
    L = np.kron(eye, -1j * H) + np.kron((1j * H).T, eye)
    for rate, C, nth in ((p.kappa_a, A, p.n_th_a), (p.kappa_b, B, p.n_th_b)):
        for w, c in ((rate * (nth + 1), C), (rate * nth, C.conj().T)):
            cdc = c.conj().T @ c
            L += w * (np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye))
    return L


REAL_FORM_CASES = [(cut, mode, displaced)
                   for cut in ((2, 3), (4, 4), (5, 3), (6, 6))
                   for mode in ("simplified", "full")
                   for displaced in (False, True)]


@pytest.mark.parametrize("cutoffs,mode,displaced", REAL_FORM_CASES)
def test_real_form_steady_state_matches_complex_solve(cutoffs, mode, displaced, monkeypatch):
    # undisplaced runs use a weak pump that the small cutoffs still hold; the
    # crossover is raised to 64 so that (6, 6) still runs the dense LU
    monkeypatch.setattr(lindblad_mod, "DENSE_SUPEROP_MAX_JOINT_DIM", 64)
    p = _real_form_params(mode, 15 * MHz if displaced else 1 * MHz)
    disp = None
    if displaced:
        mf = mean_field_steady_state(p)
        disp = (mf.alpha, mf.beta)
    L = build_liouvillian(p, displacement=disp, cutoffs=cutoffs)
    assert not L.is_sparse

    dense = L.superoperator().toarray()
    kron_sum = _kron_sum_liouvillian(p, disp, cutoffs)
    assert np.abs(dense - kron_sum).max() <= 1e-14 * np.abs(kron_sum).max()

    joint = cutoffs[0] * cutoffs[1]
    M = dense / np.abs(dense).max()
    M[0, :] = 0.0
    M[0, ::joint + 1] = 1.0
    rhs = np.zeros(joint * joint, dtype=complex)
    rhs[0] = 1.0
    want = unvec(np.linalg.solve(M, rhs), joint)
    want = 0.5 * (want + want.conj().T)
    want /= np.trace(want).real
    got = steady_state(L).data
    assert np.abs(got - want).max() <= 1e-12


# --- two-time correlations ---

def test_qrt_initial_value_and_decay():
    p = sample_params(eta=15 * MHz, da=2 * MHz, db=2 * MHz)
    sol = displaced_solution(p)
    tau = np.linspace(0.0, 20.0 / p.kappa_a * TWO_PI, 301)
    corr = two_time_correlations(sol.liouvillian, sol.rho, tau)
    assert corr.n_tau[0].real == pytest.approx(sol.obs.n, rel=1e-10)
    assert abs(corr.s_tau[0] - sol.obs.s) <= 1e-10 * abs(sol.obs.s)
    # displaced-frame means vanish, so both correlators mix to ~zero
    assert abs(corr.n_tau[-1]) < 1e-3 * corr.n_tau[0].real
    assert abs(corr.s_tau[-1]) < 1e-3 * abs(corr.s_tau[0])


def test_qrt_matches_dense_expm():
    # the second input has n_th_a, n_th_b > 0 and a complex eta_b, so the
    # a' and b' jumps enter the adjoint propagation too
    tau = np.linspace(0.0, 31e-9, 5)
    a_op, _ = two_mode_annihilators(3, 3)
    d = a_op.data
    for p in (sample_params(eta=4 * MHz, da=1 * MHz, db=1 * MHz),
              _real_form_params("full", 4 * MHz)):
        sol = displaced_solution(p, cutoffs=(3, 3))
        corr = two_time_correlations(sol.liouvillian, sol.rho, tau)
        rho = sol.rho.data
        for k, t in enumerate(tau):
            prop = expm(sol.liouvillian.superoperator().toarray() * t)
            for got, initial, bound in ((corr.n_tau, rho @ d.conj().T, corr.n_tau[0].real),
                                        (corr.s_tau, d @ rho, abs(corr.s_tau[0])),
                                        (corr.s_tau_alt, rho @ d, abs(corr.s_tau_alt[0]))):
                want = np.trace(d @ unvec(prop @ vec(initial), 9))
                assert abs(got[k] - want) <= 1e-8 * max(abs(want), bound)


def test_qrt_above_the_dense_threshold():
    # (9, 8), joint dimension 72, is above the crossover of 25 and solved by
    # GMRES; the propagator needs no size limit of its own
    p = sample_params(eta=15 * MHz, da=2 * MHz, db=2 * MHz)
    sol = displaced_solution(p, cutoffs=(9, 8))
    assert sol.liouvillian.is_sparse
    corr = two_time_correlations(sol.liouvillian, sol.rho, np.linspace(0.0, 4e-9, 5))
    assert corr.n_tau[0].real == pytest.approx(sol.obs.n, rel=1e-10)
    assert abs(corr.s_tau[0] - sol.obs.s) <= 1e-10 * abs(sol.obs.s)


def test_qrt_allocates_less_than_one_dense_superoperator():
    # one complex side x side array is 26.9 MB at cutoff 6; the CSR generator
    # and the 241-point propagation stay well below it
    p = sample_params(eta=8 * MHz, da=7 * MHz, db=7 * MHz)
    sol = displaced_solution(p, cutoffs=(6, 6))
    tau = np.linspace(0.0, 120e-9, 241)
    tracemalloc.start()
    try:
        two_time_correlations(sol.liouvillian, sol.rho, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sol.liouvillian.side ** 2 * 16


def test_superoperator_built_once_per_g2_tau_point(monkeypatch):
    # above joint dimension 25 GMRES and the propagator share the CSR form
    real = lindblad_mod.csr_array
    calls = []

    def counting(arg, shape):
        calls.append(shape)
        return real(arg, shape=shape)

    monkeypatch.setattr(lindblad_mod, "csr_array", counting)
    sol = displaced_solution(sample_params(eta=8 * MHz, da=7 * MHz, db=7 * MHz), cutoffs=(6, 6))
    assert sol.liouvillian.is_sparse
    two_time_correlations(sol.liouvillian, sol.rho, np.linspace(0.0, 120e-9, 241))
    assert calls == [(1296, 1296)]


def test_qrt_requires_tau_from_zero():
    p = sample_params(eta=1 * MHz)
    sol = displaced_solution(p)
    with pytest.raises(ValueError):
        two_time_correlations(sol.liouvillian, sol.rho, np.array([1e-9, 2e-9]))


def test_qrt_requires_equal_tau_steps():
    sol = displaced_solution(sample_params(eta=1 * MHz))
    for tau in ([0.0, 1e-9, 3e-9],                  # unequal steps
                [0.0, 0.0, 0.0],                    # no step at all
                [0.0, -1e-9, -2e-9],                # decreasing
                [0.0, math.nan], [0.0, math.inf], [0.0, math.nan, 2e-9]):   # not finite
        with pytest.raises(ValueError, match="equal steps"):
            two_time_correlations(sol.liouvillian, sol.rho, np.array(tau))


def test_qrt_on_the_zero_tau_point_alone():
    sol = displaced_solution(sample_params(eta=15 * MHz, da=2 * MHz, db=2 * MHz))
    corr = two_time_correlations(sol.liouvillian, sol.rho, [0.0])
    assert corr.n_tau[0].real == pytest.approx(sol.obs.n, rel=1e-12)
    assert abs(corr.s_tau[0] - sol.obs.s) <= 1e-12 * abs(sol.obs.s)
    # a subnormal step, on which theta / (|L| h) would overflow, moves nothing
    tiny = two_time_correlations(sol.liouvillian, sol.rho, [0.0, 1e-320])
    assert np.allclose(tiny.n_tau, corr.n_tau[0], rtol=1e-12, atol=0.0)


def test_qrt_output_ignores_global_rng():
    # the correlators depend on their inputs alone: the propagator's norms are
    # exact, and nothing draws from numpy's legacy global RNG
    p = sample_params(eta=8 * MHz, da=7 * MHz, db=7 * MHz)
    sol = displaced_solution(p, cutoffs=(6, 6))
    tau = np.linspace(0.0, 120e-9, 241)
    runs = []
    for seed in (0, 1):
        np.random.seed(seed)
        corr = two_time_correlations(sol.liouvillian, sol.rho, tau)
        runs.append(np.array([corr.n_tau, corr.s_tau, corr.s_tau_alt]))
        # and the caller's RNG stream is left where it was
        after = np.random.random()
        np.random.seed(seed)
        assert after == np.random.random()
    assert np.array_equal(runs[0], runs[1])


def test_qrt_propagates_once(monkeypatch):
    # one Heisenberg-picture propagation of d' yields n, s and s_alt
    real = lindblad_mod._propagate
    calls = []

    def counting(A, v, h, num):
        calls.append(v.shape)
        return real(A, v, h, num)

    monkeypatch.setattr(lindblad_mod, "_propagate", counting)
    sol = displaced_solution(sample_params(eta=15 * MHz, da=2 * MHz, db=2 * MHz))
    two_time_correlations(sol.liouvillian, sol.rho, np.linspace(0.0, 10e-9, 11))
    assert calls == [(sol.liouvillian.side,)]


def test_qrt_cauchy_schwarz_violation_raises(monkeypatch):
    real = lindblad_mod._propagate

    def growing(A, v, h, num):
        return real(A, v, h, num) * np.linspace(1.0, 2.0, num)[:, None]

    monkeypatch.setattr(lindblad_mod, "_propagate", growing)
    sol = displaced_solution(sample_params(eta=15 * MHz, da=2 * MHz, db=2 * MHz))
    with pytest.raises(SteadyStateError, match="Cauchy-Schwarz"):
        two_time_correlations(sol.liouvillian, sol.rho, np.linspace(0.0, 1e-9, 11))


@pytest.mark.parametrize("factor,match", [
    (np.exp(1e-5j), "valid occupation"),   # Im n(0) = -1e-5 n(0), inside |n(tau)| <= n(0)'s slack
    (-1.0, "valid occupation"),            # n(0) < 0
    (20.0, "physicality"),                 # |s(0)|^2 > n(0) (n(0) + 1), as |s(0)| > n(0) here
], ids=["n0-not-real", "n0-negative", "s0-unphysical"])
def test_qrt_correlators_at_tau_0_are_checked(monkeypatch, factor, match):
    real = lindblad_mod._propagate
    monkeypatch.setattr(lindblad_mod, "_propagate",
                        lambda A, v, h, num: factor * real(A, v, h, num))
    sol = displaced_solution(sample_params(eta=15 * MHz, da=2 * MHz, db=2 * MHz))
    with pytest.raises(SteadyStateError, match=match):
        two_time_correlations(sol.liouvillian, sol.rho, np.linspace(0.0, 1e-9, 11))


@pytest.mark.parametrize("cutoffs,num,stop,eta,detuning,substeps", [
    ((4, 4), 401, 200e-9, 30 * MHz, 0.0, False),     # the packaged g2-tau grid: 8 points a step
    ((6, 6), 241, 120e-9, 8 * MHz, 7 * MHz, False),  # the bench oracle's grid: 4 points a step
    ((9, 8), 21, 100e-9, 30 * MHz, 0.0, True),       # |A| h = 30 > theta: 4 substeps a point
], ids=["4-401", "6-241", "9x8-21"])
def test_propagator_matches_scipy_expm_multiply(cutoffs, num, stop, eta, detuning, substeps):
    # scipy's Al-Mohy & Higham propagator as an independent oracle; measured
    # agreement 2.0e-15 to 4.7e-15 of each row's largest entry
    from scipy.sparse.linalg import expm_multiply
    sol = displaced_solution(sample_params(eta=eta, da=detuning, db=detuning), cutoffs=cutoffs)
    A = sol.liouvillian.superoperator().conj().T.tocsr()
    v = vec(_cutoff_model(*cutoffs).A.conj().T)
    h = stop / (num - 1)
    assert (abs(A).sum(axis=1).max() * h > lindblad_mod.TAYLOR_THETA) == substeps
    W = lindblad_mod._propagate(A, v, h, num)
    np.random.seed(0)   # expm_multiply's norm estimates draw from the global RNG
    reference = expm_multiply(A, v, start=0.0, stop=stop, num=num, endpoint=True)
    assert np.array_equal(W[0], v)
    assert np.all(np.abs(W - reference).max(axis=1) <= 1e-13 * np.abs(reference).max(axis=1))


def test_propagator_series_past_the_term_cap_raises(monkeypatch):
    sol = displaced_solution(sample_params(eta=15 * MHz, da=2 * MHz, db=2 * MHz))
    A = sol.liouvillian.superoperator().conj().T.tocsr()
    v = vec(_cutoff_model(*sol.liouvillian.dims).A.conj().T)
    with pytest.raises(SteadyStateError, match="did not converge"):   # a non-finite start
        lindblad_mod._propagate(A, v * np.nan, 1e-9, 3)
    # steps of |A H| up to 60, whose terms still exceed 2^-53 of the start after 55
    monkeypatch.setattr(lindblad_mod, "TAYLOR_THETA", 60.0)
    with pytest.raises(SteadyStateError, match="did not converge"):
        two_time_correlations(sol.liouvillian, sol.rho, np.linspace(0.0, 100e-9, 101))


def test_ordering_discrepancy_reported():
    p = sample_params(eta=15 * MHz, da=2 * MHz, db=2 * MHz)
    sol = displaced_solution(p)
    tau = np.linspace(0.0, 100e-9, 101)
    corr = two_time_correlations(sol.liouvillian, sol.rho, tau)
    # the two operator orderings of the anomalous correlator agree at tau=0
    assert abs(corr.s_tau[0] - corr.s_tau_alt[0]) < 1e-10 * abs(corr.s_tau[0])
    assert corr.ordering_discrepancy >= 0.0


# --- observables ---

def test_observables_displaced_vacuum_is_coherent():
    rho = DensityMatrix((4, 4), np.diag([1.0] + [0.0] * 15).astype(complex))
    obs = observables(rho, alpha=0.3 - 0.1j)
    assert obs.n_tot == pytest.approx(abs(0.3 - 0.1j) ** 2, rel=1e-12)
    assert obs.g2_gaussian == pytest.approx(1.0, abs=1e-12)
    assert obs.g2_prime == pytest.approx(1.0, abs=1e-12)


def test_observables_thermal_fluctuations():
    nbar = 0.07
    rho = DensityMatrix((6, 2), np.kron(thermal_state(6, nbar).data,
                                        np.diag([1.0, 0.0])))
    obs = observables(rho, alpha=0.0)
    # truncated thermal state: compare against its actual moments
    pops = np.diag(thermal_state(6, nbar).data).real
    n_eff = (pops * np.arange(6)).sum()
    q_eff = (pops * np.arange(6) * (np.arange(6) - 1)).sum()
    assert obs.n_tot == pytest.approx(n_eff, rel=1e-12)
    assert obs.g2_prime == pytest.approx(q_eff / n_eff**2, rel=1e-12)
    assert obs.g2_gaussian == pytest.approx(2.0, rel=1e-3)


def test_observables_zero_population_error():
    rho = DensityMatrix((4, 4), np.diag([1.0] + [0.0] * 15).astype(complex))
    with pytest.raises(ValueError):
        observables(rho, alpha=0.0)


# --- the g2 gradient ---

# (eta, delta_a, delta_b) in MHz and the cutoffs: near the envelope optima at
# the six acceptance-7 etas, the bistable low branch at 48 MHz, and a GMRES size
GRADIENT_POINTS = [
    (8, -4.4515, 3.8792, (4, 4)), (12, -2.7775, 3.1089, (4, 4)), (16, -2.0100, 2.7619, (4, 4)),
    (24, -1.6558, 2.3861, (4, 4)), (32, 9.8808, 0.2091, (4, 4)), (48, 14.3391, -1.1404, (4, 4)),
    (48, 25.875, 7.245, (4, 4)), (24, 1.0, 2.0, (5, 6)),
]
GRADIENT_STEP = 1e-4      # of the difference stencil, in kappa_a
GRADIENT_TOL = 1e-7       # |analytic - differences| in kappa_a units: ~1e-11 dense, ~1e-8 GMRES


@pytest.mark.parametrize("eta,da,db,cutoffs", GRADIENT_POINTS)
def test_g2_gradient_matches_central_differences(eta, da, db, cutoffs):
    p = sample_params(eta=eta * MHz, da=da * MHz, db=db * MHz)
    sol = displaced_solution(p, cutoffs=cutoffs)
    assert sol.liouvillian.is_sparse is (cutoffs == (5, 6))
    assert ("bistable mean field: selected low-amplitude branch"
            in sol.mean_field.warnings) is (da > 20)
    got = KAPPA_A * lindblad_mod.g2_gradient(p, sol)

    def g2(step):
        moved = replace(p, delta_a=p.delta_a + step[0], delta_b=p.delta_b + step[1])
        return displaced_solution(moved, cutoffs=cutoffs).obs.g2_gaussian

    h = GRADIENT_STEP * KAPPA_A
    # the fourth-order central difference: (-f(2h) + 8 f(h) - 8 f(-h) + f(-2h)) / 12h
    want = [sum(w * g2(k * h * axis) for k, w in ((2, -1), (1, 8), (-1, -8), (-2, 1)))
            / (12 * GRADIENT_STEP) for axis in np.eye(2)]
    assert np.abs(got - want).max() <= GRADIENT_TOL


# --- the weak-drive oracle ---

def weak_drive_g2(p: SystemParams) -> float:
    """g2_a(0) to lowest order in eta_a, pumped on mode a alone.

    For eta_a -> 0 the state is C00 |00> + C10 |10> + C01 |01> + C20 |20> +
    C11 |11> + C02 |02> with C00 = 1, and H - i (kappa_a a'a + kappa_b b'b) / 2
    annihilates it order by order in eta_a (Bamba et al., PRA 83, 021802(R)
    (2011)): a 2 x 2 system for the one-excitation and a 3 x 3 one for the
    two-excitation amplitudes.  Then g2_a(0) = 2 |C20|^2 / |C10|^4.
    """
    e_a = -p.delta_a - 0.5j * p.kappa_a
    e_b = -p.delta_b - 0.5j * p.kappa_b
    r2 = math.sqrt(2.0)
    c10, c01 = np.linalg.solve([[e_a, p.J], [p.J, e_b]], [-p.eta_a, 0.0])
    c20, _, _ = np.linalg.solve([[2 * e_a, r2 * p.J, 0.0],
                                 [r2 * p.J, e_a + e_b, r2 * p.J],
                                 [0.0, r2 * p.J, 2 * e_b - 2 * p.U]],
                                [-r2 * p.eta_a * c10, -p.eta_a * c01, 0.0])
    return 2.0 * abs(c20) ** 2 / abs(c10) ** 4


def exact_g2(sol) -> float:
    """<a'a'aa> / <a'a>^2 of the lab-frame a = alpha + d in the displaced state."""
    A = two_mode_annihilators(*sol.rho.dims)[0].data + sol.mean_field.alpha * np.eye(
        math.prod(sol.rho.dims))
    Ad, rho = A.conj().T, sol.rho.data
    return (np.trace(Ad @ Ad @ A @ A @ rho) / np.trace(Ad @ A @ rho) ** 2).real


def test_weak_drive_limit_over_the_detuning_plane():
    # at n_th = 0 and eta = 0.1 MHz the exact and the Gaussian g2 of displaced
    # cutoff 4 meet the two-excitation answer to ~2e-5 over the +/- kappa_a grid
    # (g2 runs from 1.7e-3 to 4.1 there); a flipped Kerr or delta_b sign in K
    # moves some point by more than 0.1
    grid = np.linspace(-KAPPA_A, KAPPA_A, 11)
    for da in grid:
        for db in grid:
            p = sample_params(eta=0.1 * MHz, da=da, db=db, n_th_a=0.0)
            sol = displaced_solution(p)
            want = weak_drive_g2(p)
            assert abs(exact_g2(sol) - want) <= 5e-5, (da / MHz, db / MHz)
            assert abs(sol.obs.g2_gaussian - want) <= 5e-5, (da / MHz, db / MHz)


def test_weak_drive_gap_grows_as_eta_squared():
    # the next order in eta is eta^2: doubling the pump quadruples the gap
    gaps = []
    for eta in (0.5, 1.0):
        p = sample_params(eta=eta * MHz, n_th_a=0.0)
        gaps.append(exact_g2(displaced_solution(p)) - weak_drive_g2(p))
    assert gaps[1] / gaps[0] == pytest.approx(4.0, rel=0.01)
    assert abs(gaps[0]) > 1e-4
