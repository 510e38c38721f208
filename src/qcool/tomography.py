"""Simulated two-qubit polarization tomography.

Measurements run over the 36 product projectors built from the six
single-qubit states H, V (ground/excited), D, A (diagonal/antidiagonal)
and L, R (circular, L = (|H> + i|V>)/sqrt2).  The 36 settings group into
nine complete product bases of four outcomes each.  Counts are generated
from the Born rule (multinomial per basis group, or independent Poisson
per setting), inverted linearly through Pauli expectation values, and
projected onto the physical set by eigenvalue water-filling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import DensityMatrix, _check_hermitian, kron

_SQ2 = math.sqrt(2.0)

SINGLE_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "A": np.array([1.0, -1.0], dtype=complex) / _SQ2,
    "L": np.array([1.0, 1.0j], dtype=complex) / _SQ2,
    "R": np.array([1.0, -1.0j], dtype=complex) / _SQ2,
}

#: Eigenpairs (+1 outcome first) of Z, X, Y respectively.
BASIS_PAIRS = (("H", "V"), ("D", "A"), ("L", "R"))

#: Canonical ordering of the 36 settings, grouped into the 9 complete bases.
SETTING_LABELS: tuple[tuple[str, str], ...] = tuple(
    (e1, e2)
    for pair1 in BASIS_PAIRS
    for pair2 in BASIS_PAIRS
    for e1 in pair1
    for e2 in pair2
)

_PAULIS = (
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),   # Z
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),    # X
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex), # Y
)


def _projector(label: str) -> np.ndarray:
    v = SINGLE_KETS[label]
    return np.outer(v, v.conj())


PROJECTORS: tuple[np.ndarray, ...] = tuple(
    kron(_projector(a), _projector(b)) for a, b in SETTING_LABELS
)
_PROJECTOR_STACK = np.stack(PROJECTORS)
_I2 = np.eye(2, dtype=complex)

#: The 16 Pauli products, in the order `linear_inversion` sums them (which
#: fixes its rounding): I x I, then for each a: sigma_a x I, I x sigma_a,
#: sigma_a x sigma_b for b = Z, X, Y.
_PAULI_TERMS = np.stack(
    [np.eye(4, dtype=complex)]
    + [
        term
        for a in _PAULIS
        for term in (kron(a, _I2), kron(_I2, a), *(kron(a, b) for b in _PAULIS))
    ]
)


#: Largest shot count, a power of two that numpy's multinomial and Poisson
#: draws accept; 2**63 overflows a C long.
MAX_SHOTS = 2**62

#: Smallest shot count of the Poisson model.  A basis group's four
#: probabilities sum to 1, so the group draws no count at all (and linear
#: inversion has nothing to divide by) with probability exp(-shots); at 40
#: shots the nine groups give a failure chance of 9 exp(-40) < 4e-17.
MIN_POISSON_SHOTS = 40


@dataclass(frozen=True)
class TomographySettings:
    shots_per_setting: int
    seed: int = 0
    noise_model: str = "multinomial"

    def __post_init__(self):
        if not 1 <= self.shots_per_setting <= MAX_SHOTS:
            raise ValueError("shots_per_setting must be in [1, 2**62]")
        if self.noise_model not in ("multinomial", "poisson"):
            raise ValueError(f"unknown noise_model {self.noise_model!r}")
        if self.noise_model == "poisson" and self.shots_per_setting < MIN_POISSON_SHOTS:
            raise ValueError(f"poisson needs shots_per_setting >= {MIN_POISSON_SHOTS}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class CountTable:
    """Counts for the 36 settings, keyed by label pair in canonical order.

    Values are integer counts from an experiment; exact (non-integer)
    probabilities are accepted so that infinite-shot analyses can reuse
    the same estimator.
    """

    counts: dict[tuple[str, str], float]

    def __post_init__(self):
        if set(self.counts) != set(SETTING_LABELS):
            missing = set(SETTING_LABELS) - set(self.counts)
            extra = set(self.counts) - set(SETTING_LABELS)
            raise ValueError(f"incomplete count table (missing {missing}, extra {extra})")
        ordered = {}
        for key in SETTING_LABELS:
            v = float(self.counts[key])
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"count for {key} is {v}; must be finite and >= 0")
            ordered[key] = v
        object.__setattr__(self, "counts", ordered)

    def as_array(self) -> np.ndarray:
        return np.array([self.counts[k] for k in SETTING_LABELS], dtype=float)


def born_probabilities(rho: DensityMatrix, settings: TomographySettings) -> np.ndarray:
    """tr(Pi_i rho) for the 36 settings, in canonical order."""
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")
    probs = np.trace(_PROJECTOR_STACK @ rho.data, axis1=-2, axis2=-1).real
    return np.clip(probs, 0.0, 1.0)


def sample_counts(probs: np.ndarray, settings: TomographySettings) -> CountTable:
    """Draw a count table from setting probabilities.

    Multinomial: shots_per_setting shots per complete basis group of 4.
    Poisson: independent counts with mean shots_per_setting * p_i.
    Each group uses a generator derived from the seed by spawn key, so
    groups can be sampled in any order or concurrently.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (36,):
        raise ValueError("expected 36 probabilities")
    counts = np.zeros(36, dtype=float)
    for g in range(9):
        rng = np.random.default_rng(
            np.random.SeedSequence(int(settings.seed), spawn_key=(g,))
        )
        block = slice(4 * g, 4 * g + 4)
        p = probs[block]
        if settings.noise_model == "multinomial":
            p = p / p.sum()
            counts[block] = rng.multinomial(settings.shots_per_setting, p)
        else:
            counts[block] = rng.poisson(settings.shots_per_setting * p)
    return CountTable(dict(zip(SETTING_LABELS, counts)))


def linear_inversion(counts: CountTable) -> np.ndarray:
    """Unbiased linear estimate of the state from count frequencies.

    Pauli correlators come from their own basis group; single-qubit
    marginals are averaged over the three groups that measure them.  The
    result is Hermitian with unit trace but not necessarily positive.
    """
    c = counts.as_array().reshape(9, 4)
    totals = c.sum(axis=1)
    if np.any(totals <= 0.0):
        raise ValueError("empty basis group in count table")
    f = (c / totals[:, None]).reshape(3, 3, 2, 2)  # [a, b, outcome1, outcome2]
    sign = np.array([1.0, -1.0])
    corr = (f @ sign) @ sign
    s1 = (f.sum(axis=3) @ sign).mean(axis=1)
    s2 = (f.sum(axis=2) @ sign).mean(axis=0)
    coef = np.concatenate(([1.0], np.column_stack((s1, s2, corr)).ravel()))
    rho = (coef[:, None, None] * _PAULI_TERMS).sum(axis=0)
    return rho / 4.0


def _project_simplex(lam: np.ndarray) -> np.ndarray:
    u = np.sort(lam)[::-1]
    thresholds = (np.cumsum(u) - 1.0) / np.arange(1, lam.size + 1)
    k = np.nonzero(u - thresholds > 0)[0][-1]
    return np.maximum(lam - thresholds[k], 0.0)


def project_to_physical(m: np.ndarray) -> DensityMatrix:
    """Nearest density matrix in Frobenius norm: keep the eigenvectors,
    project the eigenvalues onto the probability simplex (clip negatives,
    shift the rest to preserve the trace).  Idempotent on valid states."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    _check_hermitian(m, 1e-10)
    if abs(np.trace(m).real - 1.0) > 1e-9:
        raise ValueError("input trace must be 1")
    vals, vecs = np.linalg.eigh(m)
    clipped = _project_simplex(vals)
    out = (vecs * clipped) @ vecs.conj().T
    n_qubits = int(round(math.log2(m.shape[0])))
    return DensityMatrix(out, (2,) * n_qubits)


def reconstruct(counts: CountTable) -> DensityMatrix:
    """Linear inversion followed by the physicality projection."""
    return project_to_physical(linear_inversion(counts))
