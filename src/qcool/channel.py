"""Builders for the incoherent-environment channel states.

The environment is a reservoir of independent qubits, each in the mixed
state (1-p_T)|psi><psi| + p_T|psi_perp><psi_perp| with p_T <= 1/2.  A
singlet probe sent through the channel produces three canonical states:

* the unconditional two-qubit output (probe kept with probability P_S,
  otherwise replaced by an environment qubit),
* the tripartite output including the auxiliary environment qubit B,
* the conditional two-qubit output heralded by projecting B.

Subsystem order is always R, A, B; basis index 0 is the ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import DensityMatrix, _check_hermitian, _tensor_view, kron, partial_trace_matrix

GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

_SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
_SINGLET = np.outer(_SINGLET_VEC, _SINGLET_VEC.conj())


@dataclass(frozen=True)
class EnvironmentSpec:
    """Thermal excitation probability of each environment qubit."""

    p_t: float

    def __post_init__(self):
        if not (isinstance(self.p_t, (int, float)) and math.isfinite(self.p_t)):
            raise ValueError("p_t must be a finite number")
        if not 0.0 <= self.p_t <= 0.5:
            raise ValueError(f"p_t={self.p_t} outside [0, 1/2]")


@dataclass(frozen=True)
class ChannelParams:
    """Success / flip / loss probability triple, summing to one."""

    p_s: float
    p_f: float
    p_l: float

    def __post_init__(self):
        for name, v in (("p_s", self.p_s), ("p_f", self.p_f), ("p_l", self.p_l)):
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")
        if abs(self.p_s + self.p_f + self.p_l - 1.0) > 1e-12:
            raise ValueError(
                f"probabilities sum to {self.p_s + self.p_f + self.p_l}, not 1"
            )


@dataclass(frozen=True)
class ThermalPoint:
    """Dimensionless level splitting over thermal energy, dE/(kB*T)."""

    delta_e_over_kt: float

    def __post_init__(self):
        v = self.delta_e_over_kt
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
            raise ValueError("delta_e_over_kt must be finite and >= 0")


def _env(p_t) -> np.ndarray:
    """diag(1-p_t, p_t) for each p_t; shape p_t.shape + (2, 2)."""
    p_t = np.asarray(p_t, dtype=float)
    e = np.zeros(p_t.shape + (2, 2), dtype=complex)
    e[..., 0, 0] = 1.0 - p_t
    e[..., 1, 1] = p_t
    return e


def env_state(spec: EnvironmentSpec) -> DensityMatrix:
    """Single environment qubit: diag(1-p_t, p_t) in the (ground, excited) basis."""
    return DensityMatrix(_env(spec.p_t), (2,))


def thermal_p(t: ThermalPoint) -> float:
    """Two-level Boltzmann occupation of the excited state.

    p_T = exp(-x) / (1 + exp(-x)) with x = dE/(kB*T); strictly decreasing
    in x, equal to 1/2 at x=0, and tending to 0 as x grows.
    """
    x = t.delta_e_over_kt
    e = math.exp(-x)
    return e / (1.0 + e)


def singlet() -> DensityMatrix:
    """Two-qubit singlet |01> - |10> (normalized), the channel probe."""
    return DensityMatrix(_SINGLET.copy(), (2, 2))


def _col(v) -> np.ndarray:
    """Probabilities as a stack of scalar factors for (..., d, d) stacks."""
    return np.asarray(v, dtype=float)[..., None, None]


def unconditional_states(p_s, p_t) -> np.ndarray:
    """Unvalidated unconditional outputs for broadcast arrays of P_S and
    p_T: P_S * singlet + (1 - P_S) * (I/2 (x) E), shape (..., 4, 4)."""
    return _col(p_s) * _SINGLET + _col(1.0 - p_s) * kron(IDENTITY2 / 2.0, _env(p_t))


def unconditional_state(p_s: float, spec: EnvironmentSpec) -> DensityMatrix:
    """Channel output without any heralding.

    P_S * singlet + (1 - P_S) * (I/2 (x) E), subsystem order R, A.
    """
    if not 0.0 <= p_s <= 1.0:
        raise ValueError(f"p_s={p_s} outside [0, 1]")
    return DensityMatrix(unconditional_states(p_s, spec.p_t), (2, 2))


def _reorder_subsystems(mat: np.ndarray, dims: tuple[int, ...], perm) -> np.ndarray:
    t, lead = _tensor_view(mat, dims, *perm)
    k, n = len(lead), len(dims)
    axes = list(range(k)) + [k + p for p in perm] + [k + n + p for p in perm]
    return t.transpose(axes).reshape(mat.shape)


def tripartite_states(p_s, p_f, p_l, p_t) -> np.ndarray:
    """Unvalidated three-qubit outputs for broadcast arrays of the channel
    probabilities and p_T, shape (..., 8, 8); see `tripartite_state`."""
    e = _env(p_t)
    term_s = kron(_SINGLET, e)                                   # (R,A) (x) B
    term_f = _reorder_subsystems(term_s, (2, 2, 2), (0, 2, 1))
    term_l = kron(kron(IDENTITY2 / 2.0, e), e)
    return _col(p_s) * term_s + _col(p_f) * term_f + _col(p_l) * term_l


def tripartite_state(params: ChannelParams, spec: EnvironmentSpec) -> DensityMatrix:
    """Three-qubit output over R, A, B.

    Mixture of: probe transmitted to A with E left on B (weight P_S),
    probe emerging at B with E on A (weight P_F), probe lost with E on
    both outputs (weight P_L).
    """
    rho = tripartite_states(params.p_s, params.p_f, params.p_l, spec.p_t)
    return DensityMatrix(rho, (2, 2, 2))


def conditional_states(p_s, p_f, p_l, p_t) -> tuple[np.ndarray, np.ndarray]:
    """Unvalidated heralded R-A states and their weights N for broadcast
    arrays of the channel probabilities and p_T; see `conditional_state`.
    Returns a (..., 4, 4) stack and the (...) weights."""
    e = _env(p_t)
    weight = (1.0 - p_t) * (1.0 - p_f) + p_f / 2.0
    sigma = _col(1.0 - p_t) * (
        _col(p_s) * _SINGLET + _col(p_l) * kron(IDENTITY2 / 2.0, e)
    ) + _col(0.5 * p_f) * kron(EXCITED, e)
    return sigma / _col(weight), weight


def conditional_state(
    params: ChannelParams, spec: EnvironmentSpec
) -> tuple[DensityMatrix, float]:
    """Heralded R-A state after projecting B onto the ground state.

    Closed form: [(1-p_T)(P_S singlet + P_L I/2 (x) E)
    + P_F/2 |excited><excited| (x) E] / N with
    N = (1-p_T)(1-P_F) + P_F/2.  Returns (state, N).
    """
    sigma, weight = conditional_states(params.p_s, params.p_f, params.p_l, spec.p_t)
    return DensityMatrix(sigma, (2, 2)), float(weight)


def projector(theta: float, phi: float = 0.0) -> np.ndarray:
    """Rank-1 projector onto cos(theta/2)|ground> + exp(i phi) sin(theta/2)|excited>."""
    v = np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)],
        dtype=complex,
    )
    return np.outer(v, v.conj())


def project_b(
    rho8: DensityMatrix, proj: np.ndarray
) -> tuple[DensityMatrix, float]:
    """Project subsystem B of an R,A,B state and trace it out.

    `proj` must be a finite rank-1 orthogonal projector (within 1e-12).  Returns
    the normalized R-A state and the pre-normalization trace, i.e. the
    heralding probability.
    """
    proj = np.asarray(proj, dtype=complex)
    if proj.shape != (2, 2):
        raise ValueError("projector must be 2x2")
    _check_hermitian(proj, 1e-12)
    if np.abs(proj @ proj - proj).max() > 1e-12 or abs(np.trace(proj).real - 1.0) > 1e-12:
        raise ValueError("projector must be a rank-1 orthogonal projector")
    if rho8.dims != (2, 2, 2):
        raise ValueError("state must have dims (2, 2, 2)")
    reduced, weight = project_b_states(rho8.data, proj)
    return DensityMatrix(reduced, (2, 2)), float(weight)


def project_b_states(rho8: np.ndarray, proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`project_b` on a (..., 8, 8) stack with an already checked
    projector: the unvalidated normalized R-A states and the weights."""
    op = kron(np.eye(4, dtype=complex), proj)
    sigma = op @ rho8 @ op
    weight = np.trace(sigma, axis1=-2, axis2=-1).real
    if (weight <= 1e-15).any():
        raise ValueError("projection has zero probability")
    return partial_trace_matrix(sigma / weight[..., None, None], (2, 2, 2), 2), weight
