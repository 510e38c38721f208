import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcool.channel import EnvironmentSpec, singlet, unconditional_state
from qcool.entanglement import negativity, pt_spectrum, report
from qcool.limits import uncond_boundary
from qcool.qmat import DensityMatrix, kron, partial_transpose

from helpers import (
    random_density_matrix,
    random_product_dm,
    random_unitary,
    reference_negativity,
    reference_pt_spectrum,
)


class TestNegativity:
    def test_maximally_mixed_is_zero(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert negativity(rho) == 0.0

    def test_singlet_is_half(self):
        assert abs(negativity(singlet()) - 0.5) <= 1e-12

    def test_boundary_family_near_zero(self):
        # P_S = 3/13 is the critical point at p_T = 0.1; the rounded value
        # 0.2308 sits within 1e-4 of the boundary.
        rho = unconditional_state(0.2308, EnvironmentSpec(0.1))
        assert negativity(rho) <= 1e-4

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            negativity(DensityMatrix(np.eye(2) / 2, (2,)))


class TestIsEntangled:
    def test_singlet(self):
        assert report(singlet()).entangled

    def test_product_state(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            assert not report(random_product_dm(rng)).entangled

    def test_hot_environment_above_third(self):
        assert report(unconditional_state(0.4, EnvironmentSpec(0.5))).entangled


class TestReport:
    def test_fields_consistent(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            rho = random_density_matrix(rng, (2, 2))
            rep = report(rho)
            lam = np.linalg.eigvalsh(partial_transpose(rho.data, rho.dims, 1))
            assert abs(rep.min_pt_eigenvalue - lam[0]) <= 1e-14
            assert abs(rep.negativity - max(0.0, -lam[lam < 0].sum())) <= 1e-14
            assert rep.entangled == (lam[0] < -1e-9)
            assert rep.negativity >= 0.0


class TestProperties:
    def test_convex_under_mixing(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            a = random_density_matrix(rng, (2, 2))
            b = random_density_matrix(rng, (2, 2))
            lam = rng.uniform()
            mix = DensityMatrix(lam * a.data + (1 - lam) * b.data, (2, 2))
            assert negativity(mix) <= lam * negativity(a) + (1 - lam) * negativity(b) + 1e-10

    def test_invariant_under_local_rotations(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            rho = random_density_matrix(rng, (2, 2))
            u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = DensityMatrix(u @ rho.data @ u.conj().T, (2, 2))
            assert abs(negativity(rotated) - negativity(rho)) <= 1e-10

    def test_verdict_matches_analytic_boundary_on_grid(self):
        # >= 10^4 points of the unconditional family, vectorized PT spectra.
        p_ts = np.linspace(0.005, 0.5, 100)
        p_ss = np.linspace(0.001, 0.999, 100)
        sv = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        sing = np.outer(sv, sv)
        _, grid_ps = np.meshgrid(p_ts, p_ss, indexing="ij")
        envs = np.zeros((100, 100, 4, 4), dtype=complex)
        for i, p_t in enumerate(p_ts):
            envs[i, :] = np.kron(np.eye(2) / 2, np.diag([1 - p_t, p_t]))
        states = grid_ps[..., None, None] * sing + (1 - grid_ps[..., None, None]) * envs
        # partial transpose of the second qubit on the stacked array
        pts = (
            states.reshape(100, 100, 2, 2, 2, 2)
            .transpose(0, 1, 2, 5, 4, 3)
            .reshape(100, 100, 4, 4)
        )
        min_eigs = np.linalg.eigvalsh(pts)[..., 0]
        boundary = np.array([uncond_boundary(p) for p in p_ts])[:, None]
        analytic = grid_ps > boundary
        numeric = min_eigs < -1e-9
        assert np.array_equal(analytic, numeric)


class TestStackedSpectrum:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16))
    def test_stack_equals_index_loop_spectra(self, seed, n):
        rng = np.random.default_rng(seed)
        states = [random_density_matrix(rng, (2, 2)) for _ in range(n)]
        if n > 1:
            states[1] = singlet()
        spectra = pt_spectrum(np.array([rho.data for rho in states]))
        assert spectra.shape == (n, 4)
        for lam, rho in zip(spectra, states):
            assert np.array_equal(lam, reference_pt_spectrum(rho.data))
            assert negativity(rho) == reference_negativity(rho)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            pt_spectrum(np.zeros((3, 8, 8)))
