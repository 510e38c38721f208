import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcool.channel import (
    ChannelParams,
    EnvironmentSpec,
    GROUND,
    EXCITED,
    ThermalPoint,
    conditional_state,
    conditional_states,
    env_state,
    project_b,
    project_b_states,
    projector,
    singlet,
    thermal_p,
    tripartite_state,
    tripartite_states,
    unconditional_state,
    unconditional_states,
)
from qcool.entanglement import negativity
from qcool.qmat import kron, partial_trace, partial_transpose

from helpers import reference_conditional, reference_tripartite, reference_unconditional

I2 = np.eye(2, dtype=complex)


class TestEnvironmentSpec:
    def test_defaults(self):
        spec = EnvironmentSpec(0.2)
        assert spec.basis == ("H", "V")

    @pytest.mark.parametrize("bad", [-0.1, 0.51, 1.0, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            EnvironmentSpec(bad)

    def test_rejects_degenerate_basis(self):
        with pytest.raises(ValueError):
            EnvironmentSpec(0.1, basis=("H", "H"))


class TestChannelParams:
    def test_valid(self):
        ChannelParams(0.2, 0.3, 0.5)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            ChannelParams(0.5, 0.5, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ChannelParams(1.2, -0.4, 0.2)


class TestEnvState:
    def test_ground_only(self):
        assert np.array_equal(env_state(EnvironmentSpec(0.0)).data, GROUND)

    def test_maximally_mixed(self):
        assert np.allclose(env_state(EnvironmentSpec(0.5)).data, I2 / 2)

    def test_definition(self):
        assert np.allclose(env_state(EnvironmentSpec(0.2)).data, np.diag([0.8, 0.2]))


class TestThermalP:
    def test_zero_temperature_limit(self):
        assert thermal_p(ThermalPoint(50.0)) < 1e-20

    def test_infinite_temperature_limit(self):
        assert thermal_p(ThermalPoint(0.0)) == 0.5

    def test_ln3_gives_quarter(self):
        # Oracle: normalized two-level Boltzmann ratio evaluated directly.
        x = math.log(3.0)
        expected = math.exp(-x) / (math.exp(0.0) + math.exp(-x))
        assert abs(expected - 0.25) <= 1e-15
        assert abs(thermal_p(ThermalPoint(x)) - 0.25) <= 1e-15

    def test_strictly_decreasing_and_bounded(self):
        xs = np.linspace(0.0, 20.0, 200)
        ps = [thermal_p(ThermalPoint(x)) for x in xs]
        assert all(b < a for a, b in zip(ps, ps[1:]))
        assert all(0.0 < p <= 0.5 for p in ps)

    def test_rejects_negative_ratio(self):
        with pytest.raises(ValueError):
            ThermalPoint(-0.1)


class TestSinglet:
    def test_pure(self):
        rho = singlet().data
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-14

    def test_marginals(self):
        for k in (0, 1):
            assert np.abs(partial_trace(singlet(), k).data - I2 / 2).max() <= 1e-14

    def test_negativity_half(self):
        assert abs(negativity(singlet()) - 0.5) <= 1e-12


class TestUnconditionalState:
    def test_full_success_is_singlet(self):
        rho = unconditional_state(1.0, EnvironmentSpec(0.3))
        assert np.abs(rho.data - singlet().data).max() <= 1e-14

    def test_full_loss_hot_is_maximally_mixed(self):
        rho = unconditional_state(0.0, EnvironmentSpec(0.5))
        assert np.allclose(rho.data, np.eye(4) / 4)

    def test_boundary_point_has_zero_min_pt_eigenvalue(self):
        rho = unconditional_state(1.0 / 3.0, EnvironmentSpec(0.5))
        lam = np.linalg.eigvalsh(partial_transpose(rho, 1))
        assert abs(lam[0]) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unconditional_state(1.1, EnvironmentSpec(0.1))


class TestTripartiteState:
    def test_full_success(self):
        spec = EnvironmentSpec(0.2)
        rho = tripartite_state(ChannelParams(1.0, 0.0, 0.0), spec)
        expected = kron(singlet().data, env_state(spec).data)
        assert np.abs(rho.data - expected).max() <= 1e-14

    def test_full_loss(self):
        spec = EnvironmentSpec(0.3)
        rho = tripartite_state(ChannelParams(0.0, 0.0, 1.0), spec)
        e = env_state(spec).data
        expected = kron(kron(I2 / 2, e), e)
        assert np.abs(rho.data - expected).max() <= 1e-14

    def test_reduces_to_unconditional(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p_s, p_f, p_l = rng.dirichlet([1.0, 1.0, 1.0])
            spec = EnvironmentSpec(rng.uniform(0.0, 0.5))
            reduced = partial_trace(
                tripartite_state(ChannelParams(p_s, p_f, p_l), spec), 2
            )
            expected = unconditional_state(p_s, spec)
            assert np.abs(reduced.data - expected.data).max() <= 1e-12


class TestConditionalState:
    def test_no_flip_substitution(self):
        # With P_F = 0 the heralded state is the P_S/P_L mixture itself.
        spec = EnvironmentSpec(0.3)
        params = ChannelParams(0.6, 0.0, 0.4)
        state, weight = conditional_state(params, spec)
        expected = 0.6 * singlet().data + 0.4 * kron(I2 / 2, env_state(spec).data)
        assert abs(weight - 0.7) <= 1e-15
        assert np.abs(state.data - expected).max() <= 1e-12

    def test_full_success(self):
        state, weight = conditional_state(ChannelParams(1.0, 0.0, 0.0), EnvironmentSpec(0.2))
        assert np.abs(state.data - singlet().data).max() <= 1e-14
        assert abs(weight - 0.8) <= 1e-15

    def test_matches_projection_oracle(self):
        params = ChannelParams(0.3, 0.3, 0.4)
        spec = EnvironmentSpec(0.25)
        closed, weight = conditional_state(params, spec)
        projected, w = project_b(tripartite_state(params, spec), GROUND)
        assert np.abs(closed.data - projected.data).max() <= 1e-12
        assert abs(weight - w) <= 1e-12

    def test_normalization_formula(self):
        # N = (1 - p_T)(1 - P_F) + P_F / 2; for (1/2, 1/2, 0) at p_T = 0
        # this gives 3/4.
        _, weight = conditional_state(ChannelParams(0.5, 0.5, 0.0), EnvironmentSpec(0.0))
        assert abs(weight - 0.75) <= 1e-15

    def test_random_draw_equivalence(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            p_s, p_f, p_l = rng.dirichlet([1.0, 1.0, 1.0])
            spec = EnvironmentSpec(rng.uniform(0.0, 0.5))
            params = ChannelParams(p_s, p_f, p_l)
            closed, weight = conditional_state(params, spec)
            projected, w = project_b(tripartite_state(params, spec), GROUND)
            assert np.abs(closed.data - projected.data).max() <= 1e-12
            assert abs(weight - w) <= 1e-12


class TestProjectB:
    def test_product_state_projection(self):
        spec = EnvironmentSpec(0.2)
        rho8 = tripartite_state(ChannelParams(1.0, 0.0, 0.0), spec)
        state, weight = project_b(rho8, GROUND)
        assert np.abs(state.data - singlet().data).max() <= 1e-12
        assert abs(weight - 0.8) <= 1e-12

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p_s, p_f, p_l = rng.dirichlet([1.0, 1.0, 1.0])
            spec = EnvironmentSpec(rng.uniform(0.01, 0.49))
            rho8 = tripartite_state(ChannelParams(p_s, p_f, p_l), spec)
            _, w1 = project_b(rho8, GROUND)
            _, w2 = project_b(rho8, EXCITED)
            assert abs(w1 + w2 - 1.0) <= 1e-12

    def test_ground_weight_equals_normalization(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            p_s, p_f, p_l = rng.dirichlet([1.0, 1.0, 1.0])
            p_t = rng.uniform(0.0, 0.5)
            rho8 = tripartite_state(ChannelParams(p_s, p_f, p_l), EnvironmentSpec(p_t))
            _, w = project_b(rho8, GROUND)
            assert abs(w - ((1 - p_t) * (1 - p_f) + p_f / 2)) <= 1e-12

    @pytest.mark.parametrize(
        "bad",
        [
            np.eye(2) / 2,                     # rank deficient, trace 1 but not idempotent
            np.eye(2),                         # trace 2
            np.array([[1.0, 0.2], [0.0, 0.0]]),  # not Hermitian
        ],
    )
    def test_rejects_invalid_projector(self, bad):
        rho8 = tripartite_state(ChannelParams(0.5, 0.3, 0.2), EnvironmentSpec(0.1))
        with pytest.raises(ValueError):
            project_b(rho8, bad)

    def test_angle_projector_accepted(self):
        rho8 = tripartite_state(ChannelParams(0.5, 0.3, 0.2), EnvironmentSpec(0.1))
        state, weight = project_b(rho8, projector(1.1, 0.7))
        assert 0.0 < weight < 1.0
        assert state.dims == (2, 2)


class TestOptimalProjector:
    def test_ground_beats_excited_below_half(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            p_s, p_f, p_l = rng.dirichlet([1.0, 1.0, 1.0])
            p_t = rng.uniform(0.0, 0.49)
            rho8 = tripartite_state(ChannelParams(p_s, p_f, p_l), EnvironmentSpec(p_t))
            n_ground = negativity(project_b(rho8, GROUND)[0])
            n_excited = negativity(project_b(rho8, EXCITED)[0])
            assert n_ground >= n_excited - 1e-12

    def test_ground_beats_general_projector_grid(self):
        rng = np.random.default_rng(26)
        thetas = np.linspace(0.0, math.pi, 7)
        phis = np.linspace(0.0, 2.0 * math.pi, 5)
        for _ in range(10):
            p_s, p_f, p_l = rng.dirichlet([1.0, 1.0, 1.0])
            p_t = rng.uniform(0.0, 0.49)
            rho8 = tripartite_state(ChannelParams(p_s, p_f, p_l), EnvironmentSpec(p_t))
            n_ground = negativity(project_b(rho8, GROUND)[0])
            for th in thetas:
                for ph in phis:
                    n = negativity(project_b(rho8, projector(th, ph))[0])
                    assert n <= n_ground + 1e-10

    def test_degenerate_at_half(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            p_s, p_f, p_l = rng.dirichlet([1.0, 1.0, 1.0])
            rho8 = tripartite_state(ChannelParams(p_s, p_f, p_l), EnvironmentSpec(0.5))
            n_ground = negativity(project_b(rho8, GROUND)[0])
            n_excited = negativity(project_b(rho8, EXCITED)[0])
            assert abs(n_ground - n_excited) <= 1e-10


#: A channel point (P_S, P_F, P_L, p_T): P_S and a share of the rest for
#: P_L, P_F closing the sum, p_T on its whole range.
CHANNEL_POINTS = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.5)
).map(lambda t: (t[0], max(1.0 - t[0] - (1.0 - t[0]) * t[1], 0.0), (1.0 - t[0]) * t[1], t[2]))


class TestStackedBuilders:
    """The stacked builders give, matrix by matrix, the same bits as the
    single-state builders and as the reference arithmetic."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(CHANNEL_POINTS, min_size=1, max_size=12))
    def test_stack_equals_single_states(self, points):
        p_s, p_f, p_l, p_t = np.array(points).T
        cond, weights = conditional_states(p_s, p_f, p_l, p_t)
        tri = tripartite_states(p_s, p_f, p_l, p_t)
        uncond = unconditional_states(p_s, p_t)
        heralded, h_weights = project_b_states(tri, GROUND)
        for i, point in enumerate(points):
            params, spec = ChannelParams(*point[:3]), EnvironmentSpec(point[3])
            single, weight = conditional_state(params, spec)
            ref, ref_weight = reference_conditional(*point)
            assert cond[i].tobytes() == single.data.tobytes() == ref.data.tobytes()
            assert weights[i] == weight == ref_weight
            rho8 = tripartite_state(params, spec)
            assert tri[i].tobytes() == rho8.data.tobytes()
            assert tri[i].tobytes() == reference_tripartite(*point).data.tobytes()
            rho = unconditional_state(point[0], spec)
            assert uncond[i].tobytes() == rho.data.tobytes()
            assert uncond[i].tobytes() == reference_unconditional(point[0], point[3]).data.tobytes()
            projected, p_weight = project_b(rho8, GROUND)
            assert heralded[i].tobytes() == projected.data.tobytes()
            assert h_weights[i] == p_weight
