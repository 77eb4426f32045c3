"""Truncated Fock-space operators for one or two bosonic modes.

Operators are plain dense complex ndarrays; ``Operator`` only pairs one with
its per-mode cutoffs and checks the shape.  The mode ordering is fixed as
a (x) b everywhere; index (i_a, i_b) maps to row i_a * n_b + i_b, matching
``numpy.kron``.  The superoperators built on these operators, sparse above
the smallest cutoffs, belong to ``lindblad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8


class DimensionError(ValueError):
    """Raised when operator shapes or mode dimensions are incompatible."""


@dataclass(frozen=True)
class Operator:
    """Dense operator on a truncated Fock space.

    dims holds the per-mode cutoffs, e.g. (4,) for a single mode or (4, 4)
    for the joint space; data is the square complex matrix of side
    prod(dims).
    """

    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        data = np.ascontiguousarray(self.data, dtype=complex)
        side = math.prod(dims)
        if data.ndim != 2 or data.shape != (side, side):
            raise DimensionError(
                f"{type(self).__name__} data must be {side}x{side} for dims {dims}, "
                f"got {data.shape}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    @property
    def side(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class DensityMatrix(Operator):
    """Density matrix on a truncated Fock space.

    Valid states are Hermitian with unit trace and eigenvalues above a small
    negative floor that absorbs truncation noise; ``validate`` checks all
    three.
    """

    def validate(self) -> "DensityMatrix":
        error = state_errors(self.data[None])[0]
        if error is not None:
            raise ValueError(error)
        return self


def state_errors(data: np.ndarray) -> list[str | None]:
    """For each matrix of a stack (P, n, n), why it is not a valid density
    matrix, or None: Hermiticity to HERMITICITY_TOL relative to its largest
    entry, unit trace to TRACE_TOL and eigenvalues at or above
    EIGENVALUE_FLOOR, the first that fails.  One stacked ``eigvalsh``."""
    adjoint = data.conj().swapaxes(-1, -2)
    scale = np.maximum(np.abs(data).max(axis=(-2, -1)), 1e-300)
    deviations = np.abs(data - adjoint).max(axis=(-2, -1)) / scale
    traces = np.trace(data, axis1=-2, axis2=-1)
    lowest = np.linalg.eigvalsh(0.5 * (data + adjoint)).min(axis=-1)
    errors = []
    for herm, tr, low in zip(deviations, traces, lowest):
        if herm > HERMITICITY_TOL:
            errors.append(f"density matrix not Hermitian: deviation {herm:.2e}")
        elif abs(tr - 1.0) > TRACE_TOL:
            errors.append(f"density matrix trace {tr} differs from 1")
        elif low < EIGENVALUE_FLOOR:
            errors.append(f"density matrix has eigenvalue {low:.2e} below floor")
        else:
            errors.append(None)
    return errors


def annihilation(cutoff: int) -> Operator:
    """Single-mode annihilation operator, a|n> = sqrt(n)|n-1>, truncated at cutoff."""
    cutoff = int(cutoff)
    if cutoff < 2:
        raise DimensionError(f"cutoff must be >= 2, got {cutoff}")
    data = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1)
    return Operator((cutoff,), data)


def two_mode_annihilators(n_a: int, n_b: int) -> tuple[Operator, Operator]:
    """Joint-space (a, b) with the fixed a (x) b ordering, built at each call
    (``lindblad._cutoff_model`` keeps the solver's, one per cutoff pair)."""
    n_a, n_b = int(n_a), int(n_b)
    a = np.kron(annihilation(n_a).data, np.eye(n_b))
    b = np.kron(np.eye(n_a), annihilation(n_b).data)
    return Operator((n_a, n_b), a), Operator((n_a, n_b), b)
