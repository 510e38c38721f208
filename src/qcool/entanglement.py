"""Entanglement verdicts for two-qubit states via the partial transpose.

For 2x2 systems positivity of the partial transpose is necessary and
sufficient for separability, so the sign of the minimum PT eigenvalue is
an exact verdict and the negativity an exact measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import DensityMatrix, partial_transpose

#: Slack below zero that separates genuine negativity from
#: eigensolver noise on 4x4 problems.
VERDICT_TOL = 1e-9


@dataclass(frozen=True)
class EntanglementReport:
    min_pt_eigenvalue: float
    negativity: float
    entangled: bool


def pt_spectrum(states: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the partial transpose on the second qubit,
    for a 4x4 matrix or every matrix of a (..., 4, 4) stack: one
    `eigvalsh` call for the whole stack."""
    states = np.asarray(states, dtype=complex)
    if states.shape[-2:] != (4, 4):
        raise ValueError(f"expected two-qubit matrices, got shape {states.shape}")
    return np.linalg.eigvalsh(partial_transpose(states, (2, 2), 1))


def spectrum_negativity(lam: np.ndarray) -> np.ndarray:
    """Absolute sum of the negative entries of each ascending spectrum
    along the last axis."""
    return -np.where(lam < 0.0, lam, 0.0).sum(axis=-1) + 0.0


def report(rho: DensityMatrix) -> EntanglementReport:
    """Minimum PT eigenvalue, negativity and verdict of a two-qubit state,
    all from one PT spectrum."""
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")
    lam = pt_spectrum(rho.data)
    return EntanglementReport(
        min_pt_eigenvalue=float(lam[0]),
        negativity=float(spectrum_negativity(lam)),
        entangled=bool(lam[0] < -VERDICT_TOL),
    )


def negativity(rho: DensityMatrix) -> float:
    """Absolute sum of negative PT eigenvalues; 0 for separable states,
    1/2 for maximally entangled ones."""
    return report(rho).negativity
