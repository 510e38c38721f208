"""Dense complex-matrix kernel for small multi-qubit operators.

Everything here operates on explicit numpy arrays of dimension 2, 4 or 8.
Subsystem index 0 is always the leftmost tensor factor.  Tolerances follow
a fixed ladder: 1e-14 for algebraic identities, 1e-12 for state invariants,
1e-10 of slack below zero for positive semidefiniteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def _check_hermitian(stack, tol: float) -> None:
    """Raise ValueError unless every entry of a matrix or (..., d, d) stack
    is finite and each matrix is Hermitian within `tol` elementwise."""
    # NaN fails every comparison, so it must be caught first.
    if not np.isfinite(stack).all():
        raise ValueError("matrix has non-finite entries")
    if (np.abs(stack - stack.conj().swapaxes(-1, -2)) > tol).any():
        raise ValueError(f"matrix is not Hermitian within {tol:g}")


def check_states(stack: np.ndarray) -> None:
    """Raise ValueError unless every matrix of a (..., d, d) stack is a
    density matrix: finite entries, Hermitian within 1e-12 elementwise,
    unit trace within 1e-12 and minimum eigenvalue >= -1e-10.

    The positivity check is one `eigvalsh` call over the whole stack.
    """
    stack = np.asarray(stack, dtype=complex)
    _check_hermitian(stack, HERM_TOL)
    tr = np.trace(stack, axis1=-2, axis2=-1)
    if (np.abs(tr.real - 1.0) > TRACE_TOL).any() or (np.abs(tr.imag) > TRACE_TOL).any():
        raise ValueError("matrix does not have unit trace within 1e-12")
    if (np.linalg.eigvalsh(stack)[..., 0] < -PSD_TOL).any():
        raise ValueError("matrix is not positive semidefinite (min eig < -1e-10)")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix with declared subsystem dimensions.

    Construction runs `check_states` on the matrix as a stack of one:
    finite entries, hermiticity (<= 1e-12 elementwise), unit trace
    (<= 1e-12) and positive semidefiniteness (min eigenvalue >= -1e-10).
    The underlying array is made read-only.
    """

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        d = int(np.prod(self.dims))
        if data.shape != (d, d):
            raise ValueError(
                f"matrix shape {data.shape} does not match dims {self.dims}"
            )
        check_states(data[np.newaxis])
        data.setflags(write=False)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of matrices; tensor dims concatenate left to right.

    Leading axes are stack axes and broadcast, so a (2, 2) operator times
    an (N, 2, 2) stack gives the (N, 4, 4) stack of products.  Each entry
    is the single product a[i, j] * b[k, l], as in `np.kron`.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _tensor_view(mat: np.ndarray, dims, *subsystems: int) -> tuple[np.ndarray, tuple]:
    """A matrix or (..., d, d) stack as a tensor with axes lead + dims + dims,
    after checking the subsystem indices; returns it and the lead shape."""
    dims = tuple(dims)
    for k in subsystems:
        if not 0 <= k < len(dims):
            raise IndexError(f"subsystem index {k} out of range for dims {dims}")
    mat = np.asarray(mat, dtype=complex)
    lead = mat.shape[:-2]
    return mat.reshape(lead + dims + dims), lead


def partial_trace_matrix(mat: np.ndarray, dims, subsystem_index: int) -> np.ndarray:
    """Trace out one subsystem of a matrix, or of every matrix in a
    (..., d, d) stack, keeping the original ordering."""
    t, lead = _tensor_view(mat, dims, subsystem_index)
    k, n = len(lead), len(dims)
    t = np.trace(t, axis1=k + subsystem_index, axis2=k + n + subsystem_index)
    d = int(np.prod(dims)) // dims[subsystem_index]
    return t.reshape(lead + (d, d))


def partial_transpose(mat: np.ndarray, dims, subsystem_index: int) -> np.ndarray:
    """Transpose the indices of one subsystem only, of a matrix or of every
    matrix in a (..., d, d) stack.  Of a state the result is Hermitian and
    trace-preserving but not necessarily positive (that is the whole point)."""
    t, lead = _tensor_view(mat, dims, subsystem_index)
    k, n = len(lead), len(dims)
    d = int(np.prod(dims))
    return t.swapaxes(k + subsystem_index, k + n + subsystem_index).reshape(lead + (d, d))


def herm_eigvals(a: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Raises ValueError if the input has non-finite entries or deviates
    from Hermitian by more than 1e-10 elementwise.
    """
    a = np.asarray(a, dtype=complex)
    _check_hermitian(a, 1e-10)
    return np.linalg.eigvalsh(a)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Reduces to <phi|sigma|phi> when rho is the pure state |phi><phi|.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    s = _psd_sqrt(rho.data)
    inner = _psd_sqrt(s @ sigma.data @ s)
    f = np.trace(inner).real ** 2
    return float(min(max(f, 0.0), 1.0))
