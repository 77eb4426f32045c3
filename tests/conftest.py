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
def fail_steady_state_on_call(monkeypatch):
    """Call with n to make the n-th point through the post-solve kernel
    ``lindblad._steady_states``, which ``steady_state`` and the stacked grid
    solve share, fail with a plain ValueError; with None, every point.  The
    points of a serial sweep reach it in order, so the n-th is its n-th point."""
    import blockadesim.lindblad as lindblad_mod
    real = lindblad_mod._steady_states

    def arm(bad_point: int | None):
        seen = []

        def flaky(*args):
            rho, errors = real(*args)
            for k in range(len(errors)):
                seen.append(k)
                if bad_point is None or len(seen) == bad_point:
                    errors[k] = ValueError("forced invalid density matrix")
            return rho, errors

        monkeypatch.setattr(lindblad_mod, "_steady_states", flaky)

    return arm
