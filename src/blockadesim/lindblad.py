"""Master equation of the two coupled resonators and its solvers.

The Hamiltonian in the frame rotating at the pump frequency is

    H = -delta_a a'a - delta_b b'b + J (a'b + b'a) - U b'b'bb
        + (eta_a a' + eta_a* a) + (eta_b b' + eta_b* b)

with the two thermal dissipators (kappa_a/2) D(a, n_th_a) and
(kappa_b/2) D(b, n_th_b), where

    D(c, n) rho = (n+1)(2 c rho c' - c'c rho - rho c'c)
                + n (2 c' rho c - c c' rho - rho c c').

Displaced-frame Liouvillians shift the Hamiltonian's ladder operators,
H(alpha + a, beta + b), by the mean-field amplitudes (the classical fixed
point, found in closed form from a real cubic in |beta|^2), which cancels
the linear drive terms and lets tiny Fock cutoffs (4 per mode) represent
the state.  The jumps stay the bare, real ladder operators: the shift of
each dissipator goes into the coherent part through the exact identity
D[c + s] = D[c] + 1/2 [conj(s) c - s c', .].  Linearized around the
same fixed point, the fluctuations are Gaussian, and ``linearized_g2``
gives their g2 with no Fock cutoff, on the mean field's detuning arrays.

L is kept as its generator terms (K, weights, jumps).  Everything about a
cutoff pair that no parameter point changes is built once, at its first
use, and cached read-only (``_cutoff_model``): the bare a and b, the jumps
a, a', b, b' and their C'C, the products K is linear in (a'a, b'b,
a'b + b'a, b'b'bb, b'b'b, b'bb, b'b', bb, a, a', b, b', and a a', b b' of
the thermal jumps), and the d'd, dd, d'd'dd of ``observables``.  At every
cutoff, dense or GMRES, K is one coefficient vector, formed from the
parameters, the weights and the displacement, times that cached basis.
Each Liouvillian gathers the stored entries of its superoperator once, in
the CSR order of a cached layout (``_superop_layout``), displaced the one
of its cutoff pair and jump weights (``_CutoffModel.k_support``); every
other form of L and its trace check are read from them.  Every
solve with L, in ``Liouvillian._solve`` or at a point of
``stacked_solutions``, is X with L X / max|L| = R and Tr X = trace, for
Hermitian R of zero trace, by the solver ``_solver`` sets up.  Up to
DENSE_SUPEROP_MAX_JOINT_DIM (joint dimension 25: cutoffs up to 5, the
cutoff-4 production path among them) it is one real LU in a Hermitian
basis (``_lu_solve``); above it, restarted GMRES of this module
(``_gmres``) on the CSR superoperator, preconditioned from the right by
the Sylvester part of L solved in the eigenbasis of K, so that it stops
on the true residual.
Each check is written once, in a kernel on a stack of points that gives
per point the error it raises, or None: the per-point functions run it on
a stack of one and raise that, ``stacked_solutions`` returns its message.
Two-time correlations propagate the observable on the adjoint of the same
CSR superoperator, at any cutoff, by a Taylor series on steps that each
cover several points of the uniform tau grid (``_propagate``).
The solver entry points (``steady_state``, ``displaced_solution``,
``stacked_solutions``, ``two_time_correlations``, ``g2_gradient``) run with
every loaded BLAS at one thread (``blas.single_threaded``, re-entrant), so
a library call gives the CLI's bits, as OpenBLAS's LU rounds by thread
count, and hands the caller's thread count back unchanged.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse import csr_array

from .blas import single_threaded
from .gaussian import GaussianState, g2_from_normal_moments, g2_zero
from .hilbert import DensityMatrix, state_errors, two_mode_annihilators

TRACE_PRESERVATION_TOL = 1e-8
STEADY_STATE_RESIDUAL_TOL = 1e-9
MEAN_FIELD_TOL = 1e-12
DENSE_SUPEROP_MAX_JOINT_DIM = 25   # above this the steady state comes from GMRES
# caps the CSR L with its int32 indices, the int32 real-form positions (< side^2 < 2^31)
MAX_SUPEROP_SIDE = 25_000          # and the GMRES basis of GMRES_RESTART side-long vectors
GMRES_RTOL = 1e-13                 # on the scaled, trace-fixed system
GMRES_RESTART = 60
GMRES_MAX_CYCLES = 20
CAUCHY_SCHWARZ_TOL = 1e-9          # slack of the two-time correlator bounds
EIGENBASIS_TOL = 1e-8              # max|V diag(lam) V^-1 - K/s| the preconditioner accepts
# The propagator's steps keep |A H| <= TAYLOR_THETA, so its Taylor term k is at
# most THETA^k / k! of the step's start: 9^55 / 55! = 2.4e-21, below the 2^-53
# stopping test, so the cap binds only on a non-finite series (THETA <= 10.9
# would keep that), and cancellation among the terms costs at most
# e^THETA eps = 1.8e-12 of the start, far less in practice (~1e-15).
TAYLOR_THETA = 9.0
TAYLOR_MAX_TERMS = 55
BISTABLE_WARNING = "bistable mean field: selected low-amplitude branch"


class ConvergenceError(RuntimeError):
    """A fixed point or a fit did not meet its tolerance."""


class SteadyStateError(RuntimeError):
    """Steady-state solve failed or the null space is degenerate."""


@dataclass(frozen=True)
class SystemParams:
    """All master-equation parameters, angular frequencies throughout.

    Two baths: mode a decays at kappa_a into occupation n_th_a, mode b at
    kappa_b into n_th_b; eta_a and eta_b are the complex pump amplitudes.
    """

    delta_a: float
    delta_b: float
    J: float
    U: float
    eta_a: complex
    eta_b: complex
    kappa_a: float
    kappa_b: float
    n_th_a: float = 0.0
    n_th_b: float = 0.0

    def __post_init__(self):
        if not (self.kappa_a > 0 and self.kappa_b > 0):
            raise ValueError("need kappa_a > 0 and kappa_b > 0")
        if not (self.n_th_a >= 0 and self.n_th_b >= 0):
            raise ValueError("occupations must be >= 0")

    @classmethod
    def from_mode_rates(cls, delta_a, delta_b, J, U, eta_a, eta_b,
                        kappa_a, kappa_b, n_th_a=0.0, n_th_b=0.0) -> "SystemParams":
        """The positional constructor under the name its callers use."""
        return cls(delta_a, delta_b, J, U, eta_a, eta_b, kappa_a, kappa_b, n_th_a, n_th_b)


@dataclass(frozen=True)
class MeanFieldResult:
    alpha: complex
    beta: complex
    residual: float
    warnings: tuple[str, ...] = ()


def mean_field_steady_state(p: SystemParams) -> MeanFieldResult:
    """Fixed point of the classical equations of motion, in closed form.

    Only mode b is nonlinear.  The a equation a11 alpha + a12 beta = i eta_a
    gives alpha = (i eta_a - a12 beta) / a11 (a11 = i delta_a - kappa_a / 2
    is never zero), and the b equation becomes (A + 2iU n) beta = B with
    n = |beta|^2, so n is a real root of the Kerr-bistability cubic
    n ((Re A)^2 + (Im A + 2U n)^2) = |B|^2 (Drummond & Walls, J. Phys. A
    13, 725 (1980)).  Every real root is positive and the smallest is the
    low-amplitude branch; three real roots mean bistability, and the low
    branch is returned with a warning.

    Raises ConvergenceError when the drift at the returned point exceeds
    MEAN_FIELD_TOL relative to the pump and damping scale.
    """
    return _raised(_mean_fields(_one_point(p))[0])


def _one_point(p: SystemParams) -> SystemParams:
    """p as a stack of one point, for the stack kernels."""
    return replace(p, delta_a=np.array([p.delta_a], dtype=float),
                   delta_b=np.array([p.delta_b], dtype=float))


def _raised(result):
    """A stack kernel's result for one point, or the error it holds raised."""
    if isinstance(result, Exception):
        raise result
    return result


def _mean_fields(p: SystemParams) -> list[MeanFieldResult | ConvergenceError]:
    """``mean_field_steady_state`` at each point of p's detuning arrays, or the error it raises."""
    alpha, beta, residual, real_roots = _mean_field(p)
    return [MeanFieldResult(complex(a), complex(b), float(res),
                            (BISTABLE_WARNING,) if roots == 3 else ())
            if res <= MEAN_FIELD_TOL else ConvergenceError(
                f"mean-field drift residual {res:.2e} at the closed-form fixed point "
                f"exceeds {MEAN_FIELD_TOL:.0e}")
            for a, b, res, roots in zip(alpha, beta, residual, real_roots)]


@np.errstate(over="ignore", invalid="ignore")
def _mean_field(p: SystemParams):
    """alpha, beta, the drift residual and the number of real roots of the cubic
    (see ``mean_field_steady_state``), elementwise over p's detuning arrays.
    Where U = 0 the cubic is not formed and n = 0; where B = 0 its low root
    is n = 0; where the cubic overflows (tiny |U|) n is NaN, as is the residual."""
    a11 = 1j * p.delta_a - 0.5 * p.kappa_a
    a12 = -1j * p.J
    a22 = 1j * p.delta_b - 0.5 * p.kappa_b
    A = a22 - a12 * a12 / a11
    B = 1j * p.eta_b - 1j * p.eta_a * a12 / a11
    n, real_roots = 0.0, np.ones(np.shape(A), dtype=int)
    if p.U != 0:
        # the cubic over 4U^2 is n^3 + c2 n^2 + c1 n + c0; its roots are the
        # eigenvalues of the companion matrix, which is real, so LAPACK
        # returns the real roots with an imaginary part of exactly zero
        c2, c1, c0 = A.imag / p.U, (abs(A) / (2 * p.U)) ** 2, -(abs(B) / (2 * p.U)) ** 2
        companion = np.zeros(np.shape(c2) + (3, 3))
        companion[..., 0, :] = np.stack(np.broadcast_arrays(-c2, -c1, -c0), axis=-1)
        companion[..., 1, 0] = companion[..., 2, 1] = 1.0
        finite = np.isfinite(companion).all(axis=(-2, -1))
        roots = np.linalg.eigvals(np.where(finite[..., None, None], companion, 0.0))
        real = roots.imag == 0
        n = np.where(finite, np.where(real, roots.real, np.inf).min(axis=-1), np.nan)
        real_roots = real.sum(axis=-1)
    beta = B / (A + 2j * p.U * n)
    alpha = (1j * p.eta_a - a12 * beta) / a11

    drift_a = a11 * alpha + a12 * beta - 1j * p.eta_a
    drift_b = (a22 + 2j * p.U * abs(beta) ** 2) * beta + a12 * alpha - 1j * p.eta_b
    scale = np.maximum(max(abs(p.eta_a), abs(p.eta_b)),
                       np.maximum(p.kappa_a * (1.0 + abs(alpha)), p.kappa_b * (1.0 + abs(beta))))
    return alpha, beta, np.hypot(abs(drift_a), abs(drift_b)) / scale, real_roots


@np.errstate(invalid="ignore")
def linearized_g2(p: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g2(0), n and s of mode a in the linearized (Gaussian) fluctuation model,
    elementwise over p's detuning arrays; NaN where the mean field fails its
    residual check (or is NaN), where the linearized drift has an eigenvalue
    with real part >= 0, or where the population is not positive.

    Around the mean field (alpha, beta), the fluctuations v = (da, db) obey
    dv/dt = A v + K conj(v) + noise with
    A = [[i delta_a - kappa_a/2, -iJ], [-iJ, i delta_b - kappa_b/2 + 4iU|beta|^2]]
    and K = 2iU beta^2 at (b, b) alone: the Bogoliubov model, with no Fock
    cutoff, in which the unconventional blockade is a squeezing effect
    (Lemonde et al., PRA 90, 063824 (2014)).  In the real quadratures
    y = (Re da, Re db, Im da, Im db), dy/dt = R y with
    R = [[Re(A+K), -Im(A-K)], [Im(A+K), Re(A-K)]], and the symmetrized
    covariance C solves the Lyapunov equation R C + C R^T = -D, D diagonal
    with kappa (n_th + 1/2) / 2 on each mode's two quadratures, as one
    stacked 16 x 16 real solve.  Then n = C_xx + C_pp - 1/2 and
    s = C_xx - C_pp + 2i C_xp of mode a, and g2 is ``g2_from_normal_moments``
    with the Gaussian <d'dd> = 0 and <d'd'dd> = 2 n^2 + |s|^2.  The failed
    points are masked before ``eigvals`` and the stable ones before the solve.
    """
    alpha, beta, residual, _ = _mean_field(p)
    n, s = np.full(np.shape(alpha), np.nan), np.full(np.shape(alpha), np.nan, dtype=complex)
    valid = np.flatnonzero(residual <= MEAN_FIELD_TOL)
    delta_a, delta_b = (np.broadcast_to(d, np.shape(alpha)).ravel()[valid]
                        for d in (p.delta_a, p.delta_b))
    b = beta.ravel()[valid]
    A = np.zeros((b.size, 2, 2), dtype=complex)
    A[:, 0, 0] = 1j * delta_a - 0.5 * p.kappa_a
    A[:, 0, 1] = A[:, 1, 0] = -1j * p.J
    A[:, 1, 1] = 1j * delta_b - 0.5 * p.kappa_b + 4j * p.U * abs(b) ** 2
    K = np.zeros_like(A)
    K[:, 1, 1] = 2j * p.U * b ** 2
    R = np.concatenate((np.concatenate(((A + K).real, -(A - K).imag), axis=2),
                        np.concatenate(((A + K).imag, (A - K).real), axis=2)), axis=1)
    stable = (np.linalg.eigvals(R).real < 0).all(axis=1)
    valid, R = valid[stable], R[stable]
    # vec(R C + C R^T) = (kron(R, I) + kron(I, R)) vec(C), row-major vec
    eye = np.eye(4)
    M = (R[:, :, None, :, None] * eye[None, None, :, None, :]
         + eye[None, :, None, :, None] * R[:, None, :, None, :]).reshape(-1, 16, 16)
    d = np.array([p.kappa_a * (p.n_th_a + 0.5), p.kappa_b * (p.n_th_b + 0.5)] * 2) / 2
    C = np.linalg.solve(M, np.broadcast_to(-np.diag(d).reshape(16, 1), (len(M), 16, 1)))
    C = C.reshape(-1, 4, 4)
    n.flat[valid] = C[:, 0, 0] + C[:, 2, 2] - 0.5
    s.flat[valid] = C[:, 0, 0] - C[:, 2, 2] + 2j * C[:, 0, 2]
    unpopulated = ~(abs(alpha) ** 2 + n > 0)
    n[unpopulated], s[unpopulated] = np.nan, np.nan
    return g2_from_normal_moments(alpha, n, s, 0.0, 2.0 * n ** 2 + abs(s) ** 2), n, s


# --- superoperator plumbing (column-stacking convention) ---

def vec(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, side: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((side, side), order="F")


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Generator of the master equation, kept as its terms and its entries.

    ``terms`` holds the (K, weights, jumps) of
    L rho = K rho + rho K' + sum_m w_m C_m rho C_m'; ``apply`` evaluates L
    matrix-free, as the residual check of ``_steady_states`` does.
    ``entries``, gathered once, are the stored entries of the superoperator
    in the CSR order of ``_superop_layout``; max_abs is their largest
    modulus.  The jumps are real with a zero diagonal (bare ladder
    operators; a displaced jump c + s is c with 1/2 w (conj(s) c - s c')
    added to K, as D[c + s] = D[c] + 1/2 [conj(s) c - s c', .]), and the
    weighted ones have disjoint supports; else ValueError.  ``displaced``
    says K was formed on its cutoff pair's basis, whose support
    (``_CutoffModel.k_support``) then keys the layout instead of K != 0 (a
    stored zero adds nothing to any form of L).  L raises the error of
    ``_superop_checks``.
    """

    dims: tuple[int, int]
    terms: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    displaced: InitVar[bool] = False
    entries: np.ndarray = field(init=False, repr=False)
    max_abs: float = field(init=False, repr=False)
    _layout: _SuperopLayout = field(init=False, repr=False)

    def __post_init__(self, displaced):
        K, weights, jumps = self.terms
        if np.iscomplexobj(jumps) or jumps.diagonal(0, 1, 2).any():
            raise ValueError("jumps must be real with a zero diagonal (bare ladder operators)")
        support = _cutoff_model(*self.dims).k_support if displaced else K != 0
        layout = _superop_layout(support.tobytes(), _jump_support(weights, jumps), K.shape[0])
        entries = _superop_entries(layout, K, weights, jumps)
        entries.flags.writeable = False
        (scale,), (error,) = _superop_checks(layout, entries[None])
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "max_abs", float(scale))
        object.__setattr__(self, "_layout", layout)
        _raised(error)

    @property
    def is_sparse(self) -> bool:
        """True above DENSE_SUPEROP_MAX_JOINT_DIM, where the steady state comes from GMRES."""
        return math.prod(self.dims) > DENSE_SUPEROP_MAX_JOINT_DIM

    @property
    def side(self) -> int:
        return math.prod(self.dims) ** 2

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return _apply(*self.terms, rho)

    def superoperator(self) -> csr_array:
        """The side x side superoperator in CSR form (``_csr``), read-only, built
        at the first call and kept in ``__dict__``, as ``_solve`` keeps its
        solver; shared by the GMRES solve and the two-time correlations."""
        if "_csr" not in self.__dict__:
            self.__dict__["_csr"] = _csr(self._layout, self.entries)
        return self.__dict__["_csr"]

    def _solve(self, R: np.ndarray, trace: float) -> np.ndarray:
        """X (..., n, n) with L X / max_abs = R and Tr X = trace, for Hermitian
        R (..., n, n) of zero trace, by the ``_solver`` set up at the first
        call and kept in ``__dict__``, not by a ``cached_property``, whose
        lock on Python 3.11 is shared by every Liouvillian."""
        if "_solver" not in self.__dict__:
            self.__dict__["_solver"] = _solver(self._layout, self.entries, self.max_abs,
                                               self.terms[0], self.superoperator)
        return self.__dict__["_solver"](R, trace)


@dataclass(frozen=True, eq=False)
class _SuperopLayout:
    """The stored entries of L in CSR order (see ``_superop_layout``): ``gather``
    indexes their source values, ``left`` and ``right`` the jump products'
    factors, ``trace_entries`` the entries of the trace rows and ``trace_columns``
    their columns, doubled for ``view(float)``.  All are read-only; the CSR's
    ``indptr`` and ``indices`` are int32, the rest intp, so no gather casts them."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray
    left: np.ndarray
    right: np.ndarray
    trace_entries: np.ndarray
    trace_columns: np.ndarray

    @cached_property
    def real_positions(self) -> np.ndarray:
        """Each entry's positions in M = Re L + (Im L) P, as ``entries.view(float)``
        interleaves its parts; P maps column (j, l) to (l, j).  Built at the
        layout's first dense solve, so GMRES-sized layouts never hold them."""
        n, side, cols = self.n, self.n * self.n, self.indices
        rows = np.repeat(np.arange(0, side * side, side, dtype=np.int32), np.diff(self.indptr))
        positions = np.stack((rows + cols, rows + cols % n * n + cols // n), 1).ravel()
        positions.flags.writeable = False
        return positions


@lru_cache(maxsize=16)
def _superop_layout(k_support: bytes, jump_support: bytes, n: int) -> _SuperopLayout:
    """The layout of L for the supports of K and of the w_m C_m != 0, as bytes.

    Column stacking, vec(X rho Y) = kron(Y.T, X) vec(rho), so
    L = kron(I, K) + kron(conj K, I) + sum_m kron(w_m C_m, C_m), with row
    i n + k and column j n + l.  As the jumps have a zero diagonal and
    disjoint supports, each stored entry is one value of the source
    [K, conj K, D, jump products]: K[k, l] (i = j, k != l), conj K[i, j]
    (k = l, i != j), D[i, k] = K[k, k] + conj K[i, i], or
    (w_m C_m[i, j]) C_m[k, l].  The trace rows (i = k) are r = i (n + 1).
    Keyed by the supports, so the displaced points of a sweep share one layout.
    Raises ValueError when two weighted jumps would add into one stored entry.
    """
    k_nonzero = np.frombuffer(k_support, dtype=bool).reshape(n, n)
    jump_nonzero = np.frombuffer(jump_support, dtype=bool).reshape(-1, n, n)
    if (jump_nonzero.sum(axis=0) > 1).any():
        raise ValueError("weighted jumps must have disjoint supports")
    square = n * n
    idx = np.arange(n)[:, None]
    x, y = np.nonzero(k_nonzero & ~np.eye(n, dtype=bool))
    diagonal = k_nonzero.diagonal()
    i, k = np.nonzero(diagonal[None, :] | diagonal[:, None])
    m, r, c = np.nonzero(jump_nonzero)
    a, b = np.nonzero(m[:, None] == m[None, :])
    flat = (m * n + r) * n + c
    # kron(I, K), kron(conj K, I), the diagonal D, the jump products
    rows = [idx * n + x, x[:, None] * n + idx.T, i * n + k, r[a] * n + r[b]]
    cols = [idx * n + y, y[:, None] * n + idx.T, i * n + k, c[a] * n + c[b]]
    sources = [np.tile(x * n + y, n), np.repeat(square + x * n + y, n),
               2 * square + i * n + k, 3 * square + np.arange(a.size)]
    rows, cols, sources = (np.concatenate([part.ravel() for part in parts])
                           for parts in (rows, cols, sources))
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=square))))
    trace = np.flatnonzero(rows % (n + 1) == 0)
    columns = np.stack((2 * cols[trace], 2 * cols[trace] + 1), 1).ravel()
    gathers = [sources[order], flat[a], flat[b], trace, columns]
    arrays = [indptr.astype(np.int32), cols.astype(np.int32)] + [x.astype(np.intp) for x in gathers]
    for array in arrays:
        array.flags.writeable = False
    return _SuperopLayout(n, *arrays)


def _jump_support(weights: np.ndarray, jumps: np.ndarray) -> bytes:
    """The support key of the weighted jumps for ``_superop_layout``."""
    return ((jumps != 0) & (weights != 0)[:, None, None]).tobytes()


def _superop_entries(layout: _SuperopLayout, K: np.ndarray, weights: np.ndarray,
                     jumps: np.ndarray) -> np.ndarray:
    """L's stored entries in the CSR order of ``layout``, for K of shape (n, n) or (P, n, n).

    One gather from the source [K, conj K, D, jump products], a temporary
    freed before the caller's max|entries| allocates; the jump products
    are the same for every point of a stack.
    """
    diagonal = K.diagonal(0, -2, -1)
    lead = K.shape[:-2]
    products = (weights[:, None, None] * jumps).ravel()[layout.left] * jumps.ravel()[layout.right]
    source = np.concatenate((
        K.reshape(lead + (-1,)), K.conj().reshape(lead + (-1,)),
        (diagonal[..., None, :] + diagonal.conj()[..., :, None]).reshape(lead + (-1,)),
        np.broadcast_to(products, lead + products.shape),
    ), axis=-1)
    # np.take keeps each point of a stack contiguous for view(float), but
    # copies a read-only index array: one point indexes with the gather as it is
    return source[layout.gather] if not lead else np.take(source, layout.gather, axis=-1)


def _csr(layout: _SuperopLayout, entries: np.ndarray) -> csr_array:
    """L in CSR form, on its entries and the layout's index arrays, not copied."""
    side = layout.n * layout.n
    return csr_array((entries, layout.indices, layout.indptr), shape=(side, side))


def _superop_checks(layout: _SuperopLayout, entries: np.ndarray) -> tuple[np.ndarray, list]:
    """max|L| per point of entries (P, nnz), and per point SteadyStateError for
    a zero L (a degenerate null space), ValueError when the trace leak, max
    over columns of |sum of L's trace rows (i, i)| (d Tr(rho)/dt = vec(I)' L
    vec(rho)), exceeds TRACE_PRESERVATION_TOL max|L|, or None."""
    scale = np.abs(entries).max(axis=-1, initial=0.0)
    values = np.ascontiguousarray(entries[:, layout.trace_entries]).view(float)
    width = 2 * layout.n * layout.n
    columns = layout.trace_columns + width * np.arange(len(values))[:, None]
    leak = np.bincount(columns.ravel(), weights=values.ravel(), minlength=width * len(values))
    leak = np.abs(leak.view(complex)).reshape(len(values), -1).max(axis=1)
    return scale, [SteadyStateError("zero Liouvillian has a degenerate null space") if s == 0
                   else ValueError("Liouvillian is not trace preserving")
                   if leak_s > TRACE_PRESERVATION_TOL * s else None
                   for s, leak_s in zip(scale, leak)]


def _apply(K: np.ndarray, weights: np.ndarray, jumps: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """L rho = K rho + rho K' + sum_m w_m C_m rho C_m' for rho (and K) of shape (..., n, n)."""
    out = K @ rho + rho @ K.conj().swapaxes(-1, -2)
    for w, C in zip(weights.tolist(), jumps):
        if w:
            out += w * (C @ rho @ C.T)
    return out


@dataclass(frozen=True, eq=False)
class _CutoffModel:
    """The operators of one cutoff pair that no parameter point changes.

    All arrays are real and read-only.  ``basis`` stacks the flattened
    products K is linear in, in the order of ``_k_coefficients``;
    ``jumps`` (a, a', b, b') are its rows 6-9 and A, B views of them, and
    the jumps' C'C are its rows 0-3.  ``k_support`` (n, n, bool) is where
    any of them is nonzero, every entry a K on the basis can reach.
    ``moments`` holds the transposes of d'd, dd and d'd'dd for the measured
    mode d = a, flattened, so that Tr(X rho) = X.T.ravel() @ rho.ravel().
    """

    A: np.ndarray
    B: np.ndarray
    basis: np.ndarray
    jumps: np.ndarray
    moments: np.ndarray
    k_support: np.ndarray


@lru_cache(maxsize=16)
def _cutoff_model(n_a: int, n_b: int) -> _CutoffModel:
    """The operator cache of one cutoff pair, built at its first use."""
    a_op, b_op = two_mode_annihilators(n_a, n_b)
    A, B = a_op.data.real, b_op.data.real
    At, Bt = A.T, B.T
    B2, Bt2 = B @ B, Bt @ Bt
    n = A.shape[0]
    basis = np.array([At @ A, A @ At, Bt @ B, B @ Bt, Bt2 @ B2, At @ B + Bt @ A,
                      A, At, B, Bt, Bt2 @ B, Bt @ B2, Bt2, B2]).reshape(-1, n * n)
    moments = np.array([(At @ A).T, (A @ A).T, (At @ At @ A @ A).T]).reshape(3, n * n)
    k_support = (basis != 0).any(axis=0).reshape(n, n)
    basis.flags.writeable = moments.flags.writeable = k_support.flags.writeable = False
    jumps = basis[6:10].reshape(4, n, n)
    return _CutoffModel(jumps[0], jumps[2], basis, jumps, moments, k_support)


def _k_coefficients(p: SystemParams, alpha, beta, weights: np.ndarray) -> np.ndarray:
    """The coefficients of K on the basis of ``_cutoff_model``, on the last axis.

    K = -iH(A + alpha, B + beta) - 1/2 sum_m w_m C_m' C_m
        + 1/2 sum_m w_m (conj(s_m) C_m - s_m C_m')
    for the jumps C = (a, a', b, b') with shifts s = (alpha, conj(alpha),
    beta, conj(beta)), expanded in the bare operators.  The c-number terms
    of H(A + alpha, B + beta), an energy offset that L does not see, are
    left out.  The a' and b' coefficients are the mean-field drift of
    (alpha, beta), so they vanish at the fixed point, and each pair X, X'
    has the coefficients -conj(c), c, as K + K' = -sum_m w_m C_m' C_m.
    Elementwise where the detunings and (alpha, beta) are arrays of one shape.
    """
    w_a, w_ad, w_b, w_bd = weights.tolist()
    cb = beta.conjugate()
    n_b = abs(beta) ** 2
    ad = -1j * (-p.delta_a * alpha + p.J * beta + p.eta_a) - 0.5 * (w_a - w_ad) * alpha
    bd = (-1j * (-p.delta_b * beta + p.J * alpha - 2.0 * p.U * n_b * beta + p.eta_b)
          - 0.5 * (w_b - w_bd) * beta)
    return np.stack(np.broadcast_arrays(
        -0.5 * w_a + 1j * p.delta_a,                     # a'a
        -0.5 * w_ad,                                     # a a'
        -0.5 * w_b + 1j * (p.delta_b + 4.0 * p.U * n_b),  # b'b
        -0.5 * w_bd,                                     # b b'
        1j * p.U,                                        # b'b'bb
        -1j * p.J,                                       # a'b + b'a
        -ad.conjugate(), ad,                             # a, a'
        -bd.conjugate(), bd,                             # b, b'
        2j * p.U * beta, 2j * p.U * cb,                  # b'b'b, b'bb
        1j * p.U * beta ** 2, 1j * p.U * cb ** 2,        # b'b', bb
    ), axis=-1)


def _jump_weights(p: SystemParams) -> np.ndarray:
    """The weights of the jumps a, a', b, b'."""
    return np.array([p.kappa_a * (p.n_th_a + 1.0), p.kappa_a * p.n_th_a,
                     p.kappa_b * (p.n_th_b + 1.0), p.kappa_b * p.n_th_b])


def _k_matrix(p: SystemParams, alpha, beta, weights: np.ndarray, model: _CutoffModel):
    """K (P, n, n) at p's detuning arrays: ``_k_coefficients`` times the real
    basis.  Each point is its own matrix-vector product, so a point's K does
    not depend on the points stacked with it."""
    c = _k_coefficients(p, alpha, beta, weights)[..., None, :]
    return (c.real @ model.basis + 1j * (c.imag @ model.basis)).reshape(-1, *model.A.shape)


def build_liouvillian(p: SystemParams, displacement: tuple[complex, complex] | None = None,
                      cutoffs: tuple[int, int] = (4, 4)) -> Liouvillian:
    """The (optionally displaced) Liouvillian at the given Fock cutoffs.

    Its jumps are the cached bare a, a', b, b' at weights kappa_a (n_th_a + 1),
    kappa_a n_th_a, kappa_b (n_th_b + 1), kappa_b n_th_b (all four are
    kept; a jump at zero weight stores no entry in L), and K is one
    coefficient vector times the cached basis of ``_cutoff_model``.
    """
    n_a, n_b = int(cutoffs[0]), int(cutoffs[1])
    _raised(_side_error(n_a * n_b))
    model = _cutoff_model(n_a, n_b)
    alpha, beta = np.array(displacement or (0.0, 0.0), dtype=complex)[:, None]
    weights = _jump_weights(p)
    K = _k_matrix(_one_point(p), alpha, beta, weights, model)[0]
    return Liouvillian((n_a, n_b), (K, weights, model.jumps), displaced=displacement is not None)


def _side_error(joint: int) -> ValueError | None:
    """ValueError when the superoperator side joint^2 exceeds MAX_SUPEROP_SIDE, else None."""
    side = joint * joint
    if side > MAX_SUPEROP_SIDE:
        return ValueError(f"superoperator side {side} exceeds the {MAX_SUPEROP_SIDE} guard")


def _hermitian_form(layout: _SuperopLayout, entries: np.ndarray, scale: float) -> np.ndarray:
    """The real matrix M = (Re L + (Im L) P) / scale of L, P the transpose permutation.

    One ``np.bincount`` sums the real and imaginary parts of L's entries
    into the positions ``_SuperopLayout.real_positions`` lists (M is 7 %
    nonzero at cutoff 4).
    """
    side = layout.n * layout.n
    M = np.bincount(layout.real_positions, weights=entries.view(float) / scale,
                    minlength=side * side)
    return M.reshape(side, side)


def _solver(layout: _SuperopLayout, entries: np.ndarray, scale: float, K: np.ndarray, csr):
    """``Liouvillian._solve``'s (R, trace) -> X for L with these entries, max|L| =
    scale, K term K and CSR form csr(): up to DENSE_SUPEROP_MAX_JOINT_DIM
    ``_lu_solve`` on the LU of ``_lu_factor``, above it ``_gmres_solver``."""
    if layout.n <= DENSE_SUPEROP_MAX_JOINT_DIM:
        return partial(_lu_solve, *_lu_factor(layout, entries, scale))
    return _gmres_solver(csr(), scale, K)


def _lu_factor(layout: _SuperopLayout, entries: np.ndarray, scale: float):
    """(lu, piv) of ``_hermitian_form``, row 0 the trace; SteadyStateError at a zero pivot.

    M.T is Fortran-ordered, so LAPACK factors it in place with no copy;
    ``dgetrs`` with trans=1 then solves M z = r.
    """
    joint = layout.n
    M = _hermitian_form(layout, entries, scale)
    M[0, :] = 0.0
    M[0, ::joint + 1] = 1.0
    lu, piv, info = dgetrf(M.T, overwrite_a=True)
    if info != 0:
        raise SteadyStateError(f"LU solve failed: LAPACK info {info} (a zero pivot if positive)")
    return lu, piv


def _lu_solve(lu: np.ndarray, piv: np.ndarray, R: np.ndarray, trace: float) -> np.ndarray:
    """X (..., n, n) with L X / max_abs = R and Tr X = trace, for Hermitian R
    (..., n, n) of zero trace, from the LU of ``_lu_factor``.

    Hermitian X = ((1+i) Z + (1-i) Z.T) / 2 for real Z = Re X + Im X; the
    map is an isometry (the basis E_ii, (E_ij+E_ji)/sqrt2, i(E_ij-E_ji)/sqrt2
    rotated by 45 degrees within each (ij, ji) pair).  In it L becomes the
    real matrix M = Re L + Im L P, P the transpose permutation, so M vec(Z)
    = vec(Re L(Z) + Im L(Z.T)) is the Re Y + Im Y of Y = L(X);
    ``_hermitian_form`` places it from L's entries, scaled by 1 / max_abs.
    Row 0 of M is the trace, sum_i Z_ii, so row 0 of vec(Re R + Im R) is
    set to the trace: the equation it drops follows from Tr R = 0.  One
    back-substitution solves every R of the stack.
    """
    n = R.shape[-1]
    r = (R.real + R.imag).swapaxes(-1, -2).reshape(R.shape[:-2] + (n * n,))
    r[..., 0] = trace
    Z = dgetrs(lu, piv, r.T, trans=1)[0].T.reshape(R.shape).swapaxes(-1, -2)
    return 0.5 * ((1.0 + 1.0j) * Z + (1.0 - 1.0j) * Z.swapaxes(-1, -2))


def _gmres(matvec, precondition, b: np.ndarray) -> np.ndarray:
    """x with |b - A x| <= GMRES_RTOL |b|, A = ``matvec``, by restarted GMRES
    (Saad & Schultz, SISC 7, 856 (1986)) with right preconditioning by M =
    ``precondition`` (Saad, Iterative Methods for Sparse Linear Systems, 9.3).

    A cycle of at most GMRES_RESTART steps builds an Arnoldi basis Q of the
    Krylov space of A M from the residual r, by modified Gram-Schmidt, and
    tracks min |r - A M Q y| over y with Givens rotations of the Hessenberg
    matrix; that is the true residual, so M's rounding costs iterations but
    not accuracy.  The cycle ends when it falls to the tolerance, at a
    breakdown (a zero new basis vector) or after GMRES_RESTART steps, and
    then x += M (Q y) for the one triangular solve's y.  Convergence is
    confirmed on b - A x at each cycle's end.  Raises SteadyStateError at
    once on a non-finite residual, and after GMRES_MAX_CYCLES cycles.
    """
    tol = GMRES_RTOL * np.linalg.norm(b)
    m = GMRES_RESTART
    x, r = np.zeros_like(b), b
    for cycle in range(GMRES_MAX_CYCLES + 1):
        beta = np.linalg.norm(r)
        if beta <= tol:
            return x
        if not np.isfinite(beta):
            raise SteadyStateError("GMRES residual is not finite")
        if cycle == GMRES_MAX_CYCLES:
            break
        Q = np.empty((m, b.size), dtype=complex)
        H = np.zeros((m, m), dtype=complex)
        c, s = [], []                   # the rotations, as Python numbers
        g = [complex(beta)]             # Q' r, rotated; |g[k]| is the residual after step k
        Q[0] = r / beta
        for k in range(1, m + 1):
            w = matvec(precondition(Q[k - 1]))
            column = []
            for i in range(k):
                column.append(complex(np.vdot(Q[i], w)))
                w -= column[i] * Q[i]
            h = float(np.linalg.norm(w))
            for i in range(k - 1):
                column[i], column[i + 1] = (c[i] * column[i] + s[i] * column[i + 1],
                                            c[i] * column[i + 1] - s[i].conjugate() * column[i])
            a = column[-1]
            rho = math.hypot(abs(a), h)
            c.append(abs(a) / rho if a else 0.0)
            s.append(a / abs(a) * h / rho if a else 1.0 + 0j)
            column[-1] = c[-1] * a + s[-1] * h
            H[:k, k - 1] = column
            g.append(-s[-1].conjugate() * g[-1])
            g[-2] *= c[-1]
            if not math.isfinite(abs(g[-1])):
                raise SteadyStateError("GMRES residual is not finite")
            if h == 0 or abs(g[-1]) <= tol or k == m:
                break
            Q[k] = w / h
        y = np.linalg.solve(H[:k, :k], np.array(g[:k]))
        x = x + precondition(y @ Q[:k])
        r = b - matvec(x)
    raise SteadyStateError(f"GMRES did not reach rtol {GMRES_RTOL:.0e} "
                           f"in {GMRES_MAX_CYCLES} restart cycles")


def _gmres_solver(generator: csr_array, scale: float, K: np.ndarray):
    """(R, trace) -> X of ``_solver``, by ``_gmres``, for L = generator in CSR
    form, scale = max|L| and K the K term of L.

    Each x = vec(X) solves L x / scale + v Tr(x) = vec(R) + v trace with
    v = vec(I/n): Tr(L x) = 0 for a trace-preserving L and Tr R = 0 give
    Tr(x) = trace, and then L x / scale = R.  L x / scale is the CSR, not
    copied, times x / scale (about 6-10x faster per product than
    ``L.apply`` at cutoffs 9-10).  The preconditioner, built once per
    solver, inverts the Sylvester part S(X) = K X + X K' of L / scale in the
    eigenbasis K / scale = V diag(lam) V^-1,
    X = V [(V^-1 R V^-') / (lam_i + conj lam_j)] V', four n x n products
    per call; GMRES takes care of the jump and trace terms.  As it
    preconditions from the right, the transforms' rounding (about
    cond(V)^2 eps) moves only its iteration count.  A denominator below
    sqrt(eps) times the largest is raised to that floor: the undriven
    vacuum puts an eigenvalue of K at 0, and at zero occupation a weak
    drive only lifts it to some 1e-11.  Raises SteadyStateError when V is
    singular, as the preconditioner would then not invert the Sylvester
    part, and when GMRES does not converge.
    """
    joint = K.shape[0]
    v = vec(np.eye(joint) / joint)
    diagonal = np.arange(joint) * (joint + 1)

    def matvec(x):
        return generator @ (x / scale) + v * x[diagonal].sum()

    A = K / scale
    lam, V = np.linalg.eig(A)
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(
            f"Sylvester preconditioner: the eigenvectors of K are singular ({exc})") from exc
    defect = np.abs(V @ (lam[:, None] * V_inv) - A).max()   # NaN or inf if V_inv is not finite
    if not defect <= EIGENBASIS_TOL * np.abs(A).max():
        raise SteadyStateError(f"Sylvester preconditioner: the eigenbasis of K reproduces it only "
                               f"to {defect:.1e}; its eigenvectors are near singular")
    Vh, V_inv_h = V.conj().T, V_inv.conj().T
    denom = lam[:, None] + lam.conj()[None, :]
    floor = np.sqrt(np.finfo(float).eps) * np.abs(denom).max()
    denom[np.abs(denom) < floor] = floor

    def precondition(r):
        return vec(V @ ((V_inv @ unvec(r, joint) @ V_inv_h) / denom) @ Vh)

    def solve(R, trace):
        X = np.empty(R.shape, dtype=complex)
        for index in np.ndindex(R.shape[:-2]):
            X[index] = unvec(_gmres(matvec, precondition, vec(R[index]) + v * trace), joint)
        return X

    return solve


@single_threaded()
def steady_state(L: Liouvillian) -> DensityMatrix:
    """Null vector of L with unit trace: ``L._solve`` of R = 0 at trace 1, by
    the LU or the GMRES of ``_solver``, which stays with L for ``g2_gradient``.
    Raises the solver's or ``_steady_states``' error for L."""
    joint = math.prod(L.dims)
    raw = L._solve(np.zeros((joint, joint)), 1.0)
    rho, (error,) = _steady_states(L.terms, raw[None], np.array([L.max_abs]))
    _raised(error)
    return DensityMatrix(L.dims, rho[0])


def _steady_states(terms: tuple, raw: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, list]:
    """The unit-trace Hermitian part of each solution raw (P, n, n) of L = terms
    with max|L| scale (P,), and per point SteadyStateError when raw is not
    finite or |L raw| / (max|L| |raw|) exceeds STEADY_STATE_RESIDUAL_TOL (a
    degenerate null space), ValueError from ``hilbert.state_errors``, or None."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        residual = (np.linalg.norm(_apply(*terms, raw), axis=(1, 2))
                    / (scale * np.linalg.norm(raw, axis=(1, 2))))
        rho = 0.5 * (raw + raw.conj().swapaxes(1, 2))
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    errors = [SteadyStateError("steady-state solve produced non-finite entries") if not finite
              else SteadyStateError(f"steady-state residual {res:.2e} exceeds tolerance; "
                                    "the Liouvillian null space may be degenerate")
              if not res <= STEADY_STATE_RESIDUAL_TOL else None
              for finite, res in zip(np.isfinite(raw).all(axis=(1, 2)), residual)]
    solved = [k for k, error in enumerate(errors) if error is None]
    for k, error in zip(solved, state_errors(rho[solved])):
        errors[k] = None if error is None else ValueError(error)
    return rho, errors


@dataclass(frozen=True)
class TwoTimeCorrelation:
    """Steady-state two-time moments of the displaced mode.

    n_tau[k] = <d'(t) d(t+tau_k)> and s_tau[k] = <d(t+tau_k) d(t)>;
    s_tau_alt carries the opposite operator ordering <d(t) d(t+tau_k)> of
    the anomalous correlator, whose difference from s_tau is reported
    rather than silently picked.  ``two_time_correlations`` checks their bounds.
    """

    tau: np.ndarray
    n_tau: np.ndarray
    s_tau: np.ndarray
    s_tau_alt: np.ndarray

    @property
    def ordering_discrepancy(self) -> float:
        return float(np.abs(self.s_tau - self.s_tau_alt).max())


def _propagate(A: csr_array, v: np.ndarray, h: float, num: int) -> np.ndarray:
    """The rows e^{A i h} v, i = 0 .. num-1, by Taylor series on the uniform grid
    (the scheme of Al-Mohy & Higham, SISC 33, 488 (2011), with exact norms).

    A step of length H = j h covers j = floor(TAYLOR_THETA / (|A| h)) grid
    points, or one point in s = ceil(|A| h / TAYLOR_THETA) substeps, so that
    |A| H <= TAYLOR_THETA, with |A| the infinity norm (largest absolute row
    sum) that bounds the series' terms.  Point i of a step is
    sum_k (i/j)^k P_k over the powers P_k of its start, one (j x m)(m x side)
    product.
    """
    norm_h = float(abs(A).sum(axis=1).max()) * h
    per_step = max(1, int(TAYLOR_THETA / norm_h)) if norm_h * num > TAYLOR_THETA else num
    substeps = max(1, math.ceil(norm_h / TAYLOR_THETA))
    out = np.empty((num, v.size), dtype=complex)
    out[0] = F = v
    for first in range(1, num, per_step):
        j = min(per_step, num - first)
        for _ in range(substeps - 1):
            F = _taylor_terms(A, F, h / substeps).sum(axis=0)
        terms = _taylor_terms(A, F, j * h / substeps)
        out[first:first + j] = (np.arange(1, j + 1) / j)[:, None] ** np.arange(len(terms)) @ terms
        F = out[first + j - 1]
    return out


def _taylor_terms(A: csr_array, F: np.ndarray, H: float) -> np.ndarray:
    """The terms P_k = (H A)^k F / k! of e^{H A} F, stacked (m, side), up to the
    first k with |P_{k-1}| + |P_k| <= 2^-53 |F| in the infinity norm (scipy's
    test); SteadyStateError if that has not happened by TAYLOR_MAX_TERMS."""
    terms, previous = [F], np.abs(F).max()
    tol = 2.0 ** -53 * previous
    for k in range(1, TAYLOR_MAX_TERMS + 1):
        terms.append(A @ terms[-1] * (H / k))
        size = np.abs(terms[-1]).max()
        if previous + size <= tol:
            return np.array(terms)
        previous = size
    raise SteadyStateError(f"Taylor series of the propagator did not converge in "
                           f"{TAYLOR_MAX_TERMS} terms")


@single_threaded()
def two_time_correlations(L: Liouvillian, rho_ss: DensityMatrix,
                          tau_grid) -> TwoTimeCorrelation:
    """Quantum-regression evaluation of n(tau), s(tau) on a uniform tau grid.

    Each correlator is Tr[d e^{L tau}(X)] = <w(tau), vec X> with the
    Heisenberg-picture observable w(tau) = e^{L^H tau} vec(d'), L^H the
    conjugate transpose of ``L.superoperator()``: X = d rho gives
    s(tau), rho d gives s_alt(tau) and rho d' gives n(tau).  So one
    Taylor propagation of w over the grid (``_propagate``) with the
    adjoint, converted back to CSR for its faster product, yields all
    three at any cutoff.  The grid must be finite, start at 0 and increase
    in equal steps.  Raises SteadyStateError when n(0) is not real and
    >= 0 or |s(0)|^2 > n(0) (n(0) + 1), to CAUCHY_SCHWARZ_TOL, or when
    |n(tau)| <= n(0) or |s(tau)|^2 <= n(0) (n(0) + 1) (Cauchy-Schwarz) fails
    by more than CAUCHY_SCHWARZ_TOL relative.
    """
    if L.dims != rho_ss.dims:
        raise ValueError(f"dims mismatch: {L.dims} vs {rho_ss.dims}")
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size == 0 or tau[0] != 0.0:
        raise ValueError("tau grid must be 1-d and start at 0")
    if (not np.isfinite(tau).all() or (tau.size > 1 and not tau[-1] > 0)
            or np.abs(tau - np.linspace(0.0, tau[-1], tau.size)).max() > 1e-12 * tau[-1]):
        raise ValueError("tau grid must increase in equal steps")

    d = _cutoff_model(*L.dims).A
    rho = rho_ss.data

    W = _propagate(L.superoperator().conj().T.tocsr(), vec(d.conj().T),
                   tau[-1] / max(tau.size - 1, 1), tau.size).conj()
    n_tau, s_tau, s_alt = W @ vec(rho @ d.conj().T), W @ vec(d @ rho), W @ vec(rho @ d)

    n0 = n_tau[0]
    tol = CAUCHY_SCHWARZ_TOL * max(1.0, abs(n0))
    if abs(n0.imag) > tol or n0.real < -tol:
        raise SteadyStateError(f"n_tau[0] = {n0} is not a valid occupation")
    n0 = n0.real
    if abs(s_tau[0]) ** 2 > max(n0, 0.0) * (max(n0, 0.0) + 1.0) + CAUCHY_SCHWARZ_TOL:
        raise SteadyStateError("anomalous moment s_tau[0] violates Gaussian physicality")
    eps = np.finfo(float).eps
    if (np.abs(n_tau).max() > (1.0 + CAUCHY_SCHWARZ_TOL) * n0 + eps
            or max(np.abs(s_tau).max(), np.abs(s_alt).max()) ** 2
            > (1.0 + CAUCHY_SCHWARZ_TOL) * n0 * (n0 + 1.0) + eps):
        raise SteadyStateError("a two-time correlator exceeds its Cauchy-Schwarz bound")
    return TwoTimeCorrelation(tau, n_tau, s_tau, s_alt)


@dataclass(frozen=True)
class Observables:
    """Displaced-frame steady-state observables of the measured mode."""

    n_tot: float
    g2_gaussian: float
    g2_prime: float
    n: float
    s: complex


def observables(rho_displaced: DensityMatrix, alpha: complex) -> Observables:
    """Population and the two g2(0) variants from the displaced steady state.

    n = <d'd>, s = <dd> and q = <d'd'dd> of the displaced mode d = a - alpha
    are read from the solved state.  g2_gaussian is ``g2_zero`` of
    (alpha, n, s), the Gaussian factorization of the fourth moment.
    g2_prime is ``g2_from_normal_moments`` with the solved q but with
    <d'dd> set to 0 and <d> taken as 0: it keeps the exact <d'd'dd> and
    drops the cubic term 4 Re(conj(alpha) <d'dd>) and the <d> terms, which
    matter at strong pump (0.2913 against an exact <a'a'aa>/<a'a>^2 of
    0.3303 at the 24 MHz envelope optimum).  So neither variant is the
    exact g2 of the solved state.
    """
    return _observables(alpha, *_moments(rho_displaced.dims, rho_displaced.data[None])[0])


def _moments(dims: tuple[int, int], rho: np.ndarray) -> np.ndarray:
    """The traces (n, s, q) of ``observables``' moments with each state of rho (P, n, n)."""
    return (_cutoff_model(*dims).moments @ rho.reshape(-1, math.prod(dims) ** 2, 1))[..., 0]


def _observables(alpha: complex, n, s, q) -> Observables:
    """``observables`` from the traces (n, s, q) of the moments with the state."""
    n, s, q = n.real, complex(s), q.real
    n_tot = abs(alpha) ** 2 + n
    g2_gauss = g2_zero(GaussianState(alpha, n, s))
    g2_prime = g2_from_normal_moments(alpha, n, s, 0.0, q)
    return Observables(float(n_tot), g2_gauss, g2_prime, float(n), s)


@dataclass(frozen=True)
class DisplacedSolution:
    """Mean field, displaced steady state and observables for one parameter point."""

    mean_field: MeanFieldResult
    liouvillian: Liouvillian
    rho: DensityMatrix
    obs: Observables


@single_threaded()
def displaced_solution(p: SystemParams, cutoffs: tuple[int, int] = (4, 4)) -> DisplacedSolution:
    """Mean field -> displaced Liouvillian -> steady state -> observables."""
    mf = mean_field_steady_state(p)
    L = build_liouvillian(p, displacement=(mf.alpha, mf.beta), cutoffs=cutoffs)
    rho = steady_state(L)
    obs = observables(rho, mf.alpha)
    return DisplacedSolution(mf, L, rho, obs)


@single_threaded()
def stacked_solutions(p: SystemParams, deltas, cutoffs: tuple[int, int] = (4, 4)
                      ) -> list[tuple[MeanFieldResult, Observables] | str]:
    """``displaced_solution``'s mean field and observables at each (delta_a,
    delta_b) row of deltas, p giving every other parameter, at any cutoff
    pair, or the message of the error it raises there.

    The per-point kernels run on arrays with a leading point axis (one
    stacked 3 x 3 ``eigvals``, one gather of L's entries in the layout of
    a displaced L) but the solve: per point, the ``_solver`` that
    ``L._solve`` sets up, an LU or a GMRES, and its solution of R = 0 at
    trace 1 for ``steady_state``, into one buffer of raw states.  Each
    works point by point, so a point's result does not depend on the
    points stacked with it, and is ``displaced_solution``'s.
    """
    n_a, n_b = int(cutoffs[0]), int(cutoffs[1])
    joint = n_a * n_b
    deltas = np.asarray(deltas, dtype=float).reshape(-1, 2)
    results: list = _mean_fields(replace(p, delta_a=deltas[:, 0], delta_b=deltas[:, 1]))
    points = [k for k, mf in enumerate(results) if isinstance(mf, MeanFieldResult)]
    side_error = _side_error(joint)
    if side_error or not points:
        return [str(side_error if isinstance(r, MeanFieldResult) else r) for r in results]
    alpha, beta = (np.array([getattr(results[k], name) for k in points], dtype=complex)
                   for name in ("alpha", "beta"))
    stack = replace(p, delta_a=deltas[points, 0], delta_b=deltas[points, 1])
    model, weights = _cutoff_model(n_a, n_b), _jump_weights(p)
    K = _k_matrix(stack, alpha, beta, weights, model)
    layout = _superop_layout(model.k_support.tobytes(), _jump_support(weights, model.jumps), joint)
    entries = _superop_entries(layout, K, weights, model.jumps)
    scale, errors = _superop_checks(layout, entries)
    raw, zero = np.zeros(K.shape, dtype=complex), np.zeros((joint, joint))
    for k, row in enumerate(entries):
        if errors[k] is None:
            try:
                raw[k] = _solver(layout, row, scale[k], K[k], partial(_csr, layout, row))(zero, 1.0)
            except (SteadyStateError, np.linalg.LinAlgError) as exc:
                errors[k] = exc
    solved = [k for k, error in enumerate(errors) if error is None]
    rho, checks = _steady_states((K[solved], weights, model.jumps), raw[solved], scale[solved])
    for k, error, moments in zip(solved, checks, _moments((n_a, n_b), rho)):
        errors[k] = error
        if error is None:
            mean_field = results[points[k]]
            try:
                results[points[k]] = (mean_field, _observables(mean_field.alpha, *moments))
            except ValueError as exc:   # no population
                errors[k] = exc
    for k, error in zip(points, errors):
        results[k] = error or results[k]
    return [str(r) if isinstance(r, Exception) else r for r in results]


def mode_occupation(rho: DensityMatrix, mode: int) -> float:
    """<a'a> (mode 0) or <b'b> (mode 1) of a two-mode state."""
    model = _cutoff_model(*rho.dims)
    op = model.A if mode == 0 else model.B
    return np.trace(op.T @ op @ rho.data).real


@single_threaded()
def g2_gradient(p: SystemParams, sol: DisplacedSolution) -> np.ndarray:
    """d g2_gaussian / d(delta_a, delta_b) at the solved point ``sol`` of ``p``.

    Implicit differentiation with the factorization ``steady_state`` kept
    with ``sol.liouvillian`` (``Liouvillian._solve``), for both detunings at
    once:
    - the mean-field drift vanishes along the fixed-point family, so
      d(alpha, beta) solves a 4 x 4 real system, with d drift / d delta_a
      = i alpha and d drift / d delta_b = i beta; it is solved in closed
      form after eliminating the a equation, as in
      ``mean_field_steady_state``;
    - of K's coefficients (``_k_coefficients``) only a'a, b'b, b'b'b,
      b'bb, b'b' and bb move, as the a, a', b, b' ones are the drift;
    - L rho = 0 gives L d_rho = -dL(rho), with dL(X) = dK X + X dK', so
      d_rho is ``L._solve`` of R = -dL(rho) / max_abs at trace 0 (one
      back-substitution in the kept LU for both detunings, or the same
      preconditioned GMRES), then its Hermitian part.  R is Hermitian with
      Tr R = 0, as dK + dK' = 0.  A change of max_abs scales only rows that
      vanish at the solution;
    - the chain rule through n, s, alpha and ``g2_zero``.
    """
    alpha, beta = sol.mean_field.alpha, sol.mean_field.beta
    L, model = sol.liouvillian, _cutoff_model(*sol.liouvillian.dims)
    a11 = 1j * p.delta_a - 0.5 * p.kappa_a
    a12 = -1j * p.J
    # with the a equation eliminated, A d_beta + kerr conj(d_beta) = r, kerr from |beta|^2 beta
    A = 1j * p.delta_b - 0.5 * p.kappa_b + 4j * p.U * abs(beta) ** 2 - a12 * a12 / a11
    kerr = 2j * p.U * beta ** 2
    r = np.array([1j * alpha * a12 / a11, -1j * beta])   # for delta_a, delta_b
    d_beta = (A.conjugate() * r - kerr * r.conjugate()) / (abs(A) ** 2 - abs(kerr) ** 2)
    d_alpha = (np.array([-1j * alpha, 0.0]) - a12 * d_beta) / a11

    d_coefficients = np.zeros((2, model.basis.shape[0]), dtype=complex)
    d_coefficients[:, 0] = [1j, 0.0]                                       # a'a
    d_coefficients[:, 2] = 1j * (np.array([0.0, 1.0])
                                 + 8.0 * p.U * (beta.conjugate() * d_beta).real)  # b'b
    d_coefficients[:, 10] = 2j * p.U * d_beta                              # b'b'b
    d_coefficients[:, 11] = 2j * p.U * d_beta.conjugate()                  # b'bb
    d_coefficients[:, 12] = 2j * p.U * beta * d_beta                       # b'b'
    d_coefficients[:, 13] = 2j * p.U * (beta * d_beta).conjugate()         # bb
    joint = math.prod(L.dims)
    dK = (d_coefficients.real @ model.basis
          + 1j * (d_coefficients.imag @ model.basis)).reshape(2, joint, joint)
    rho = sol.rho.data
    d_rho = L._solve(-(dK @ rho + rho @ dK.conj().transpose(0, 2, 1)) / L.max_abs, 0.0)
    d_rho = 0.5 * (d_rho + d_rho.conj().transpose(0, 2, 1))
    d_n, d_s = model.moments[:2] @ d_rho.reshape(2, -1).T
    d_n = d_n.real

    # g2 = num / n_tot^2 with num = |alpha|^4 + 4 |alpha|^2 n + 2 Re(conj(alpha)^2 s)
    # + 2 n^2 + |s|^2 (``g2_zero``)
    n, s, n_tot = sol.obs.n, sol.obs.s, sol.obs.n_tot
    a2 = abs(alpha) ** 2
    d_a2 = 2.0 * (alpha.conjugate() * d_alpha).real
    d_num = (2.0 * a2 * d_a2 + 4.0 * (d_a2 * n + a2 * d_n)
             + 2.0 * (2.0 * alpha.conjugate() * d_alpha.conjugate() * s
                      + alpha.conjugate() ** 2 * d_s).real
             + 4.0 * n * d_n + 2.0 * (s.conjugate() * d_s).real)
    return (d_num - 2.0 * sol.obs.g2_gaussian * n_tot * (d_a2 + d_n)) / n_tot ** 2
