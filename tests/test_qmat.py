import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcool.channel import EnvironmentSpec, env_state, singlet, tripartite_state, ChannelParams, unconditional_state
from qcool.qmat import (
    DensityMatrix,
    check_states,
    fidelity,
    herm_eigvals,
    kron,
    partial_trace,
    partial_trace_matrix,
    partial_transpose,
    partial_transpose_matrix,
)

from helpers import (
    naive_partial_trace,
    naive_partial_transpose,
    random_density_matrix,
    random_separable_dm,
)

I2 = np.eye(2, dtype=complex)


class TestDensityMatrix:
    def test_valid_construction(self):
        dm = DensityMatrix(np.diag([0.7, 0.3]), (2,))
        assert dm.dim == 2
        assert dm.dims == (2,)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]), (2,))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(np.diag([1.2, -0.2]), (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(np.eye(4) / 4, (2,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m, (2,))

    def test_data_is_read_only(self):
        dm = DensityMatrix(np.diag([0.5, 0.5]), (2,))
        with pytest.raises(ValueError):
            dm.data[0, 0] = 1.0

    def test_random_states_satisfy_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dm = random_density_matrix(rng, (2, 2))
            assert np.abs(dm.data - dm.data.conj().T).max() <= 1e-12
            assert abs(np.trace(dm.data).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(dm.data)[0] >= -1e-10


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal_product(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.7, 0.3]))
        assert np.allclose(out, np.diag([0.7, 0.3, 0.0, 0.0]), atol=1e-15)

    def test_trace_multiplicative(self):
        rho = singlet().data
        e = env_state(EnvironmentSpec(0.2)).data
        assert abs(np.trace(kron(rho, e)) - 1.0) <= 1e-14

    def test_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() <= 1e-14


class TestPartialTrace:
    def test_product_state(self):
        e = env_state(EnvironmentSpec(0.3))
        rho = DensityMatrix(kron(singlet().data, e.data), (2, 2, 2))
        reduced = partial_trace(rho, 2)
        assert reduced.dims == (2, 2)
        assert np.abs(reduced.data - singlet().data).max() <= 1e-14

    def test_singlet_marginals_maximally_mixed(self):
        for k in (0, 1):
            reduced = partial_trace(singlet(), k)
            assert np.abs(reduced.data - I2 / 2).max() <= 1e-14

    def test_tripartite_reduces_to_unconditional(self):
        # Oracle: explicit 8x8 built inline, reduced and compared to the
        # directly built two-qubit output.
        p_s, p_f, p_l, p_t = 0.35, 0.25, 0.4, 0.15
        e = np.diag([1 - p_t, p_t]).astype(complex)
        sv = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        sing = np.outer(sv, sv)
        term_f = np.zeros((8, 8), dtype=complex)
        for r in range(2):
            for b in range(2):
                for r2 in range(2):
                    for b2 in range(2):
                        for a in range(2):
                            for a2 in range(2):
                                term_f[4 * r + 2 * a + b, 4 * r2 + 2 * a2 + b2] = (
                                    sing[2 * r + b, 2 * r2 + b2] * e[a, a2]
                                )
        rho8 = (
            p_s * np.kron(sing, e)
            + p_f * term_f
            + p_l * np.kron(np.kron(I2 / 2, e), e)
        )
        reduced = partial_trace(DensityMatrix(rho8, (2, 2, 2)), 2)
        expected = p_s * sing + (1 - p_s) * np.kron(I2 / 2, e)
        assert np.abs(reduced.data - expected).max() <= 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        for dims in [(2, 2), (2, 2, 2)]:
            for k in range(len(dims)):
                rho = random_density_matrix(rng, dims)
                reduced = partial_trace(rho, k)
                assert abs(np.trace(reduced.data) - np.trace(rho.data)) <= 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(rng, (2, 2, 2))
        for k in range(3):
            expected = naive_partial_trace(rho.data, (2, 2, 2), k)
            got = partial_trace_matrix(rho.data, (2, 2, 2), k)
            assert np.abs(got - expected).max() <= 1e-14

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            partial_trace(singlet(), 2)


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_density_matrix(rng, (2, 2))
            for k in (0, 1):
                twice = partial_transpose_matrix(
                    partial_transpose(rho, k), (2, 2), k
                )
                assert np.abs(twice - rho.data).max() <= 1e-14

    def test_product_state_stays_positive(self):
        rng = np.random.default_rng(6)
        sigma = random_density_matrix(rng, (2,)).data
        chi = random_density_matrix(rng, (2,)).data
        rho = DensityMatrix(kron(sigma, chi), (2, 2))
        pt = partial_transpose(rho, 1)
        assert np.abs(pt - kron(sigma, chi.T)).max() <= 1e-14
        assert np.linalg.eigvalsh(pt)[0] >= -1e-12

    def test_singlet_spectrum(self):
        lam = herm_eigvals(partial_transpose(singlet(), 1))
        assert np.allclose(lam, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        rho = random_density_matrix(rng, (2, 2, 2))
        for k in range(3):
            expected = naive_partial_transpose(rho.data, (2, 2, 2), k)
            got = partial_transpose_matrix(rho.data, (2, 2, 2), k)
            assert np.abs(got - expected).max() <= 1e-14

    def test_separable_mixtures_stay_ppt(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rho = random_separable_dm(rng)
            lam = np.linalg.eigvalsh(partial_transpose(rho, 1))
            assert lam[0] >= -1e-10

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            partial_transpose(singlet(), 5)


class TestHermEigvals:
    def test_identity(self):
        assert np.allclose(herm_eigvals(np.eye(4)), [1, 1, 1, 1])

    def test_diagonal_sorted_ascending(self):
        assert np.allclose(herm_eigvals(np.diag([0.7, 0.3])), [0.3, 0.7])

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_density_matrix(rng, (2, 2, 2)).data
            assert abs(herm_eigvals(rho).sum() - np.trace(rho).real) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(10)
        rho = random_density_matrix(rng, (2, 2))
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-10

    def test_orthogonal_pure_states(self):
        h = DensityMatrix(np.diag([1.0, 0.0]), (2,))
        v = DensityMatrix(np.diag([0.0, 1.0]), (2,))
        assert fidelity(h, v) <= 1e-14

    def test_pure_state_overlap(self):
        # Oracle: direct contraction <psi-| rho |psi-> for the mixed output
        # at P_S = 0.5, p_T = 0.5.
        rho = unconditional_state(0.5, EnvironmentSpec(0.5))
        sv = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        overlap = (sv.conj() @ rho.data @ sv).real
        assert abs(overlap - 0.625) <= 1e-12
        assert abs(fidelity(singlet(), rho) - 0.625) <= 1e-10

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_density_matrix(rng, (2, 2))
            b = random_density_matrix(rng, (2, 2))
            f1, f2 = fidelity(a, b), fidelity(b, a)
            assert abs(f1 - f2) <= 1e-9
            assert 0.0 <= f1 <= 1.0

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(random_density_matrix(rng, (2, 2)), random_density_matrix(rng, (2,)))


def test_tripartite_partial_trace_matches_module_builder():
    params = ChannelParams(0.3, 0.3, 0.4)
    spec = EnvironmentSpec(0.25)
    reduced = partial_trace(tripartite_state(params, spec), 2)
    expected = unconditional_state(params.p_s, spec)
    assert np.abs(reduced.data - expected.data).max() <= 1e-12


def _corrupt(mat, kind):
    out = mat.copy()
    if kind == "nan":
        out[1, 1] = np.nan
    elif kind == "non-hermitian":
        out[0, 1] += 1e-9
    else:  # not PSD: a trace-one matrix with a -0.1 eigenvalue
        out = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    return out


class TestCheckStates:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(0, 11),
        st.sampled_from(["nan", "non-hermitian", "not psd"]),
    )
    def test_one_bad_matrix_rejects_the_stack(self, seed, n, k, kind):
        rng = np.random.default_rng(seed)
        stack = np.array([random_density_matrix(rng, (2, 2)).data for _ in range(n)])
        check_states(stack)
        stack[k % n] = _corrupt(stack[k % n], kind)
        match = {"nan": "non-finite", "non-hermitian": "Hermitian", "not psd": "semidefinite"}
        with pytest.raises(ValueError, match=match[kind]):
            check_states(stack)

    def test_empty_stack_accepted(self):
        check_states(np.zeros((0, 4, 4), dtype=complex))

    def test_rejects_bad_trace_in_stack(self):
        stack = np.array([np.eye(4) / 4, np.eye(4) / 2])
        with pytest.raises(ValueError, match="trace"):
            check_states(stack)


class TestStackedKernels:
    def test_stacks_match_single_matrices(self):
        rng = np.random.default_rng(5)
        rhos = [random_density_matrix(rng, (2, 2, 2)).data for _ in range(5)]
        stack = np.array(rhos)
        for k in range(3):
            traced = partial_trace_matrix(stack, (2, 2, 2), k)
            transposed = partial_transpose_matrix(stack, (2, 2, 2), k)
            for i, rho in enumerate(rhos):
                assert np.array_equal(traced[i], naive_partial_trace(rho, (2, 2, 2), k))
                assert np.array_equal(transposed[i], naive_partial_transpose(rho, (2, 2, 2), k))
        e = np.array([np.diag([1.0 - p, p]) for p in (0.0, 0.2, 0.5)])
        products = kron(I2 / 2, e)
        assert products.shape == (3, 4, 4)
        for i in range(3):
            assert np.array_equal(products[i], np.kron(I2 / 2, e[i]))
