import numpy as np
import pytest

from blockadesim.hilbert import (DensityMatrix, DimensionError, Operator, annihilation,
                                 two_mode_annihilators)
from conftest import ptrace, thermal_state


def dag(m):
    return m.conj().T


def test_annihilation_qubit_truncation():
    a = annihilation(2)
    assert a.dims == (2,)
    assert np.array_equal(a.data, np.array([[0, 1], [0, 0]], dtype=complex))


def test_number_operator_diagonal():
    a = annihilation(6).data
    assert np.allclose(dag(a) @ a, np.diag(np.arange(6.0)))


def test_truncated_commutator():
    cutoff = 7
    a = annihilation(cutoff).data
    comm = a @ dag(a) - dag(a) @ a
    # identity on all but the last Fock level, where truncation bites
    assert np.allclose(np.diag(comm)[:-1], 1.0)
    assert np.isclose(np.diag(comm)[-1], 1.0 - cutoff)


def test_annihilation_rejects_small_cutoff():
    with pytest.raises(DimensionError):
        annihilation(1)


def test_tensor_factorization():
    # joint operators follow the a (x) b ordering: (i_a, i_b) -> row i_a * n_b + i_b
    a, b = two_mode_annihilators(3, 4)
    assert a.dims == b.dims == (3, 4)
    a1, b1 = annihilation(3).data, annihilation(4).data
    assert np.array_equal(a.data, np.kron(a1, np.eye(4)))
    assert np.array_equal(b.data, np.kron(np.eye(3), b1))
    assert np.abs(a.data @ b.data - np.kron(a1, b1)).max() <= 1e-12


def test_thermal_state_occupation_matches_partial_sum():
    # independent oracle: geometric-series partial sums at the truncation
    nbar, cutoff = 0.8, 30
    q = nbar / (nbar + 1.0)
    weights = np.array([q**k for k in range(cutoff)])
    expected = (weights * np.arange(cutoff)).sum() / weights.sum()
    rho = thermal_state(cutoff, nbar)
    a = annihilation(cutoff).data
    got = np.trace(dag(a) @ a @ rho.data)
    assert got.real == pytest.approx(expected, rel=1e-12)
    # converges to nbar as the cutoff grows
    rho_big = thermal_state(120, nbar)
    a_big = annihilation(120).data
    assert np.trace(dag(a_big) @ a_big @ rho_big.data).real == pytest.approx(nbar, rel=1e-9)
    # nbar = 0 is the vacuum
    vacuum = np.zeros((4, 4), dtype=complex)
    vacuum[0, 0] = 1.0
    assert np.array_equal(thermal_state(4, 0.0).data, vacuum)


def test_density_matrix_validation():
    good = DensityMatrix((2, 2), np.diag([1.0, 0.0, 0.0, 0.0]))
    assert good.validate() is good
    bad_trace = DensityMatrix((2,), np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError, match="trace"):
        bad_trace.validate()
    non_herm = DensityMatrix((2,), np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        non_herm.validate()
    neg = DensityMatrix((2,), np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        neg.validate()


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        Operator((3,), np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        Operator((2, 3), np.zeros((6, 5)))
    with pytest.raises(DimensionError):
        DensityMatrix((4,), np.zeros(4))
    op = Operator((2, 3), np.eye(6))
    assert op.side == 6 and op.data.dtype == complex


def test_ptrace_of_product_state():
    rho_a = thermal_state(4, 0.3)
    rho_b = thermal_state(5, 1.1)
    joint = DensityMatrix((4, 5), np.kron(rho_a.data, rho_b.data))
    assert np.allclose(ptrace(joint, 0).data, rho_a.data)
    assert np.allclose(ptrace(joint, 1).data, rho_b.data)


def test_two_mode_annihilators_commute():
    a, b = two_mode_annihilators(3, 4)
    a, b = a.data, b.data
    assert np.allclose(a @ b - b @ a, 0.0)
    assert np.allclose(a @ dag(b) - dag(b) @ a, 0.0)
