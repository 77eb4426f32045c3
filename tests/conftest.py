import numpy as np
import pytest

from blockadesim.hilbert import DensityMatrix, DimensionError


def ptrace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one mode of a two-mode density matrix (keep = 0 for a, 1 for b)."""
    if len(rho.dims) != 2:
        raise DimensionError("ptrace expects a two-mode density matrix")
    n_a, n_b = rho.dims
    r4 = rho.data.reshape(n_a, n_b, n_a, n_b)
    if keep == 0:
        red = np.einsum("ikjk->ij", r4)
        return DensityMatrix((n_a,), red)
    if keep == 1:
        red = np.einsum("kikj->ij", r4)
        return DensityMatrix((n_b,), red)
    raise DimensionError(f"keep must be 0 or 1, got {keep}")


def thermal_state(cutoff: int, nbar: float) -> DensityMatrix:
    """Truncated single-mode thermal state, renormalized after truncation (vacuum at nbar = 0)."""
    if nbar < 0:
        raise ValueError(f"thermal occupation must be >= 0, got {nbar}")
    q = nbar / (nbar + 1.0)
    weights = q ** np.arange(cutoff)
    weights /= weights.sum()
    return DensityMatrix((int(cutoff),), np.diag(weights).astype(complex))


@pytest.fixture
def stacked_solves_fail(monkeypatch):
    """Every point of a stacked grid solve fails its checks, so ``sweep.solve_points``
    re-solves each with ``solve_point``, in grid order."""
    import blockadesim.sweep as sweep_mod
    monkeypatch.setattr(sweep_mod, "stacked_solutions",
                        lambda p, deltas, cutoffs: [None] * len(deltas))


@pytest.fixture
def fail_steady_state_on_call(monkeypatch, stacked_solves_fail):
    """Call with n to make the n-th per-point steady-state solve raise a plain
    ValueError; grid points go to the per-point path (``stacked_solves_fail``),
    so the n-th point of a serial sweep is its n-th solve."""
    import blockadesim.lindblad as lindblad_mod
    real = lindblad_mod.steady_state

    def arm(bad_call: int):
        calls = []

        def flaky(L):
            calls.append(L)
            if len(calls) == bad_call:
                raise ValueError("forced invalid density matrix")
            return real(L)

        monkeypatch.setattr(lindblad_mod, "steady_state", flaky)

    return arm
