"""Shared random-state generators and naive reference implementations.

The naive loops here are deliberately independent of the vectorized
package code so they can serve as oracles.
"""

import numpy as np

from qcool.channel import ChannelParams, project_b
from qcool.limits import LimitVerdict, SweepRecord, cond_boundary, uncond_boundary
from qcool.qmat import DensityMatrix
from qcool.tomography import PROJECTORS, CountTable


def random_density_matrix(rng, dims) -> DensityMatrix:
    """Ginibre-induced random state."""
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real, tuple(dims))


def random_pure_ket(rng, d) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_product_dm(rng) -> DensityMatrix:
    """Random pure product two-qubit state."""
    a = random_pure_ket(rng, 2)
    b = random_pure_ket(rng, 2)
    v = np.kron(a, b)
    return DensityMatrix(np.outer(v, v.conj()), (2, 2))


def random_separable_dm(rng, n_terms=6) -> DensityMatrix:
    """Random convex combination of product states."""
    weights = rng.dirichlet(np.ones(n_terms))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        rho += w * random_product_dm(rng).data
    return DensityMatrix(rho, (2, 2))


def random_unitary(rng, d) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def naive_partial_trace(mat, dims, k) -> np.ndarray:
    """Index-loop partial trace, oracle for the reshape implementation."""
    dims = list(dims)
    keep = [i for i in range(len(dims)) if i != k]
    d_out = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((d_out, d_out), dtype=complex)
    idx_all = list(np.ndindex(*dims))
    flat = {tuple(ix): n for n, ix in enumerate(idx_all)}

    def reduced_index(ix):
        n = 0
        for i in keep:
            n = n * dims[i] + ix[i]
        return n

    for row in idx_all:
        for col in idx_all:
            if row[k] == col[k]:
                out[reduced_index(row), reduced_index(col)] += mat[
                    flat[tuple(row)], flat[tuple(col)]
                ]
    return out


def naive_partial_transpose(mat, dims, k) -> np.ndarray:
    """Index-loop partial transpose, oracle for the reshape implementation."""
    dims = list(dims)
    idx_all = list(np.ndindex(*dims))
    flat = {tuple(ix): n for n, ix in enumerate(idx_all)}
    out = np.zeros_like(np.asarray(mat, dtype=complex))
    for row in idx_all:
        for col in idx_all:
            row2 = list(row)
            col2 = list(col)
            row2[k], col2[k] = col2[k], row2[k]
            out[flat[tuple(row2)], flat[tuple(col2)]] = mat[flat[tuple(row)], flat[tuple(col)]]
    return out


# Reference channel states: the closed forms entry by entry with np.kron and
# explicit index loops, the same arithmetic in the same order as the
# single-state builders had before they were stacked.

_SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
_SINGLET = np.outer(_SINGLET_VEC, _SINGLET_VEC.conj())
_HALF_I2 = np.eye(2, dtype=complex) / 2.0
_EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def _env(p_t):
    return np.diag([1.0 - p_t, p_t]).astype(complex)


def reference_unconditional(p_s, p_t) -> DensityMatrix:
    rho = p_s * _SINGLET + (1.0 - p_s) * np.kron(_HALF_I2, _env(p_t))
    return DensityMatrix(rho, (2, 2))


def reference_tripartite(p_s, p_f, p_l, p_t) -> DensityMatrix:
    e = _env(p_t)
    term_f = np.zeros((8, 8), dtype=complex)  # singlet on (R, B), E on A
    for r, a, b, r2, a2, b2 in np.ndindex(2, 2, 2, 2, 2, 2):
        term_f[4 * r + 2 * a + b, 4 * r2 + 2 * a2 + b2] = (
            _SINGLET[2 * r + b, 2 * r2 + b2] * e[a, a2]
        )
    rho = (
        p_s * np.kron(_SINGLET, e)
        + p_f * term_f
        + p_l * np.kron(np.kron(_HALF_I2, e), e)
    )
    return DensityMatrix(rho, (2, 2, 2))


def reference_conditional(p_s, p_f, p_l, p_t) -> tuple[DensityMatrix, float]:
    e = _env(p_t)
    weight = (1.0 - p_t) * (1.0 - p_f) + p_f / 2.0
    sigma = (1.0 - p_t) * (
        p_s * _SINGLET + p_l * np.kron(_HALF_I2, e)
    ) + 0.5 * p_f * np.kron(_EXCITED, e)
    return DensityMatrix(sigma / weight, (2, 2)), weight


def reference_pt_spectrum(mat) -> np.ndarray:
    """Ascending spectrum of the index-loop partial transpose on qubit 1."""
    return np.linalg.eigvalsh(naive_partial_transpose(mat, (2, 2), 1))


def reference_negativity(rho: DensityMatrix) -> float:
    lam = reference_pt_spectrum(rho.data)
    return float(-lam[lam < 0].sum() + 0.0)


def reference_critical_ps(p_t, p_l=0.0, which="unconditional", tol=1e-8) -> float:
    """Scalar bisection oracle for lanes whose bracket has a sign change:
    halvings of the bracket, each trial point one `DensityMatrix`
    (projected with `project_b` in the conditional case)."""
    if which == "unconditional":
        f = lambda ps: reference_pt_spectrum(reference_unconditional(ps, p_t).data)[0]
        lo, hi = 0.0, 1.0
    else:
        def f(ps):
            rho8 = reference_tripartite(ps, max(1.0 - ps - p_l, 0.0), p_l, p_t)
            return reference_pt_spectrum(project_b(rho8, _GROUND)[0].data)[0]
        lo, hi = 0.0, 1.0 - p_l
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def reference_sweep_record(p_t, p_l, p_s) -> SweepRecord:
    """One grid point on its own: the closed-form verdicts and, where
    feasible, the negativity of the reference heralded state."""
    ub, cb = uncond_boundary(p_t), cond_boundary(p_t * p_l)
    p_f = max(1.0 - p_s - p_l, 0.0)
    try:  # feasible: `ChannelParams` accepts the closure
        ChannelParams(p_s, p_f, p_l)
        feasible = True
    except ValueError:
        feasible = False
    if feasible:
        neg = reference_negativity(reference_conditional(p_s, p_f, p_l, p_t)[0])
    else:
        neg = float("nan")
    return SweepRecord(
        p_t, p_s, p_l, p_t * p_l, LimitVerdict(p_s > ub, p_s > cb, ub, cb), neg, feasible
    )


# Reference tomography stages: one trace per projector, and the linear
# inversion's nested loops over basis groups and Pauli terms.

_PAULIS = (
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),   # Z
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),    # X
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex), # Y
)


def reference_born_probabilities(rho: DensityMatrix) -> np.ndarray:
    probs = np.array([np.trace(p @ rho.data).real for p in PROJECTORS])
    return np.clip(probs, 0.0, 1.0)


def reference_linear_inversion(counts: CountTable) -> np.ndarray:
    c = counts.as_array().reshape(9, 4)
    f = c / c.sum(axis=1)[:, None]
    sign = np.array([1.0, -1.0])
    corr = np.zeros((3, 3))
    marg1 = np.zeros((3, 3))  # [a, b] = <sigma_a x I> estimated in group (a, b)
    marg2 = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            fg = f[3 * a + b].reshape(2, 2)
            corr[a, b] = np.einsum("i,j,ij->", sign, sign, fg)
            marg1[a, b] = fg.sum(axis=1) @ sign
            marg2[a, b] = fg.sum(axis=0) @ sign
    s1 = marg1.mean(axis=1)
    s2 = marg2.mean(axis=0)

    eye = np.eye(2, dtype=complex)
    rho = np.eye(4, dtype=complex)
    for a in range(3):
        rho += s1[a] * np.kron(_PAULIS[a], eye)
        rho += s2[a] * np.kron(eye, _PAULIS[a])
        for b in range(3):
            rho += corr[a, b] * np.kron(_PAULIS[a], _PAULIS[b])
    return rho / 4.0
