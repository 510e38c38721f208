import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcool.channel import ChannelParams, EnvironmentSpec, conditional_state, singlet
from qcool.entanglement import negativity
from qcool.qmat import DensityMatrix, fidelity
from qcool.tomography import (
    BASIS_PAIRS,
    SETTING_LABELS,
    CountTable,
    TomographySettings,
    born_probabilities,
    linear_inversion,
    project_to_physical,
    reconstruct,
    sample_counts,
)

from helpers import (
    random_density_matrix,
    random_unitary,
    reference_born_probabilities,
    reference_linear_inversion,
)

SETTINGS = TomographySettings(shots_per_setting=1000, seed=0)


def exact_table(rho) -> CountTable:
    """Infinite-shot table: exact Born probabilities as counts."""
    return CountTable(dict(zip(SETTING_LABELS, born_probabilities(rho, SETTINGS))))


class TestSettingLayout:
    def test_exactly_36_settings_in_9_groups(self):
        assert len(SETTING_LABELS) == 36
        for g in range(9):
            group = SETTING_LABELS[4 * g: 4 * g + 4]
            firsts = {a for a, _ in group}
            seconds = {b for _, b in group}
            assert firsts in [set(p) for p in BASIS_PAIRS]
            assert seconds in [set(p) for p in BASIS_PAIRS]

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            TomographySettings(shots_per_setting=0)
        with pytest.raises(ValueError):
            TomographySettings(shots_per_setting=10, noise_model="gaussian")

    def test_shot_bounds(self):
        # numpy's draws accept 2**62 shots; a Poisson group below 40 shots
        # draws no count at all too often for linear inversion.
        assert TomographySettings(shots_per_setting=2**62).shots_per_setting == 2**62
        assert TomographySettings(shots_per_setting=1).shots_per_setting == 1
        assert TomographySettings(shots_per_setting=40, noise_model="poisson")
        with pytest.raises(ValueError, match="shots_per_setting"):
            TomographySettings(shots_per_setting=2**62 + 1)
        with pytest.raises(ValueError, match="shots_per_setting"):
            TomographySettings(shots_per_setting=39, noise_model="poisson")


class TestBornProbabilities:
    def test_singlet_parallel_outcome_vanishes(self):
        probs = dict(zip(SETTING_LABELS, born_probabilities(singlet(), SETTINGS)))
        assert probs[("H", "H")] <= 1e-14
        assert abs(probs[("H", "V")] - 0.5) <= 1e-14

    def test_maximally_mixed_uniform(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert np.allclose(born_probabilities(rho, SETTINGS), 0.25, atol=1e-14)

    def test_group_completeness(self):
        rng = np.random.default_rng(71)
        probs = born_probabilities(random_density_matrix(rng, (2, 2)), SETTINGS)
        for g in range(9):
            assert abs(probs[4 * g: 4 * g + 4].sum() - 1.0) <= 1e-12

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            born_probabilities(DensityMatrix(np.eye(2) / 2, (2,)), SETTINGS)


class TestSampleCounts:
    def test_multinomial_groups_sum_to_shots(self):
        probs = born_probabilities(singlet(), SETTINGS)
        counts = sample_counts(probs, SETTINGS).as_array()
        for g in range(9):
            assert counts[4 * g: 4 * g + 4].sum() == SETTINGS.shots_per_setting

    def test_zero_probability_draws_zero(self):
        probs = born_probabilities(singlet(), SETTINGS)
        table = sample_counts(probs, SETTINGS)
        assert table.counts[("H", "H")] == 0

    def test_deterministic(self):
        probs = born_probabilities(singlet(), SETTINGS)
        assert sample_counts(probs, SETTINGS) == sample_counts(probs, SETTINGS)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(72)
        rho = random_density_matrix(rng, (2, 2))
        sett = TomographySettings(shots_per_setting=10**7, seed=5)
        probs = born_probabilities(rho, sett)
        freq = sample_counts(probs, sett).as_array() / sett.shots_per_setting
        sigma = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / sett.shots_per_setting)
        assert np.all(np.abs(freq - probs) <= 5.0 * sigma)

    def test_poisson_model(self):
        sett = TomographySettings(shots_per_setting=10**5, seed=6, noise_model="poisson")
        probs = born_probabilities(singlet(), sett)
        counts = sample_counts(probs, sett).as_array()
        # group totals fluctuate around shots under Poisson sampling
        totals = counts.reshape(9, 4).sum(axis=1)
        assert np.all(np.abs(totals - 1e5) <= 5.0 * math.sqrt(1e5))
        assert sample_counts(probs, sett) == sample_counts(probs, sett)


class TestCountTable:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="incomplete"):
            CountTable({("H", "H"): 1.0})

    def test_rejects_negative(self):
        counts = dict.fromkeys(SETTING_LABELS, 1.0)
        counts[("H", "V")] = -2.0
        with pytest.raises(ValueError):
            CountTable(counts)


class TestLinearInversion:
    def test_exact_round_trip_singlet(self):
        m = linear_inversion(exact_table(singlet()))
        assert np.abs(m - singlet().data).max() <= 1e-12

    def test_exact_round_trip_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert np.abs(linear_inversion(exact_table(rho)) - rho.data).max() <= 1e-12

    def test_exact_round_trip_heralded_states(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            p_s, p_f, p_l = rng.dirichlet([1, 1, 1])
            rho, _ = conditional_state(
                ChannelParams(p_s, p_f, p_l), EnvironmentSpec(rng.uniform(0, 0.5))
            )
            m = linear_inversion(exact_table(rho))
            assert np.abs(m - rho.data).max() <= 1e-12

    def test_exact_round_trip_random_states(self):
        rng = np.random.default_rng(74)
        for _ in range(100):
            rho = random_density_matrix(rng, (2, 2))
            m = linear_inversion(exact_table(rho))
            assert np.abs(m - rho.data).max() <= 1e-10

    def test_output_hermitian_unit_trace_even_when_noisy(self):
        probs = born_probabilities(singlet(), SETTINGS)
        sett = TomographySettings(shots_per_setting=50, seed=77)
        m = linear_inversion(sample_counts(probs, sett))
        assert np.abs(m - m.conj().T).max() <= 1e-12
        assert abs(np.trace(m).real - 1.0) <= 1e-12

    def test_rejects_empty_group(self):
        counts = dict.fromkeys(SETTING_LABELS, 0.0)
        with pytest.raises(ValueError, match="empty basis group"):
            linear_inversion(CountTable(counts))


def drawn_state(kind: str, seed: int) -> DensityMatrix:
    """A random state, or a heralded state turned by a random local unitary."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_density_matrix(rng, (2, 2))
    p_s, p_f, p_l = rng.dirichlet([1, 1, 1])
    rho, _ = conditional_state(ChannelParams(p_s, p_f, p_l), EnvironmentSpec(rng.uniform(0, 0.5)))
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    return DensityMatrix(u @ rho.data @ u.conj().T, (2, 2))


STATE_KINDS = st.sampled_from(("random", "turned heralded"))
SEEDS = st.integers(0, 2**32 - 1)


class TestMatchesReference:
    """The stacked Born and inversion stages return the reference loops'
    floats exactly."""

    @settings(max_examples=200, deadline=None)
    @given(STATE_KINDS, SEEDS)
    def test_born_probabilities(self, kind, seed):
        rho = drawn_state(kind, seed)
        assert np.array_equal(born_probabilities(rho, SETTINGS), reference_born_probabilities(rho))

    @settings(max_examples=200, deadline=None)
    @given(
        STATE_KINDS,
        SEEDS,
        st.sampled_from(("exact", "multinomial", "poisson")),
        st.integers(40, 10**7),
    )
    def test_linear_inversion(self, kind, seed, table, shots):
        probs = born_probabilities(drawn_state(kind, seed), SETTINGS)
        if table == "exact":
            counts = CountTable(dict(zip(SETTING_LABELS, probs)))
        else:
            sett = TomographySettings(shots_per_setting=shots, seed=seed, noise_model=table)
            counts = sample_counts(probs, sett)
        assert np.array_equal(linear_inversion(counts), reference_linear_inversion(counts))


def naive_simplex_projection(lam):
    """Try every support size; return the unique feasible water-filling."""
    lam = np.asarray(lam, dtype=float)
    best = None
    for k in range(1, lam.size + 1):
        top = np.sort(lam)[::-1][:k]
        shift = (top.sum() - 1.0) / k
        candidate = np.maximum(lam - shift, 0.0)
        support = candidate > 0
        if support.sum() == k and abs(candidate.sum() - 1.0) <= 1e-12:
            best = candidate
    return best


class TestProjectToPhysical:
    def test_idempotent_on_valid_states(self):
        rng = np.random.default_rng(75)
        for _ in range(20):
            rho = random_density_matrix(rng, (2, 2))
            out = project_to_physical(rho.data)
            assert np.abs(out.data - rho.data).max() <= 1e-12

    def test_clip_example(self):
        out = project_to_physical(np.diag([1.2, -0.2, 0.0, 0.0]))
        assert np.allclose(out.data, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-14)

    def test_matches_naive_water_filling(self):
        rng = np.random.default_rng(76)
        for _ in range(200):
            lam = rng.normal(0.25, 0.5, size=4)
            lam = lam - (lam.sum() - 1.0) / 4.0  # trace 1, possibly negative parts
            out = project_to_physical(np.diag(lam))
            expected = naive_simplex_projection(lam)
            assert np.abs(np.sort(out.data.diagonal().real) - np.sort(expected)).max() <= 1e-10

    def test_output_always_positive(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (g + g.conj().T) / 2
            h = h - np.eye(4) * (np.trace(h).real - 1.0) / 4.0
            out = project_to_physical(h)
            assert np.linalg.eigvalsh(out.data)[0] >= -1e-12

    def test_contraction_toward_valid_states(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            truth = random_density_matrix(rng, (2, 2))
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (g + g.conj().T) / 2
            h = h - np.eye(4) * (np.trace(h).real - 1.0) / 4.0
            out = project_to_physical(h)
            assert (
                np.linalg.norm(out.data - truth.data)
                <= np.linalg.norm(h - truth.data) + 1e-12
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            project_to_physical(np.array([[1.0, 0.5], [0.0, 0.0]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            project_to_physical(np.eye(4))

    def test_rejects_non_finite(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            project_to_physical(m)


class TestReconstruct:
    def test_zero_noise_recovers_truth(self):
        rng = np.random.default_rng(79)
        rho = random_density_matrix(rng, (2, 2))
        out = reconstruct(exact_table(rho))
        assert np.abs(out.data - rho.data).max() <= 1e-10

    def test_high_shot_fidelity(self):
        truth, _ = conditional_state(ChannelParams(0.4, 0.2, 0.4), EnvironmentSpec(0.1))
        sett = TomographySettings(shots_per_setting=10**6, seed=80)
        out = reconstruct(sample_counts(born_probabilities(truth, sett), sett))
        assert fidelity(truth, out) >= 0.999
        assert abs(negativity(out) - negativity(truth)) <= 0.01

    def test_error_scales_as_inverse_sqrt_shots(self):
        truth, _ = conditional_state(ChannelParams(0.5, 0.2, 0.3), EnvironmentSpec(0.2))
        shot_ladder = [10**3, 10**4, 10**5, 10**6, 10**7]
        errors = []
        for shots in shot_ladder:
            errs = []
            for rep in range(4):
                sett = TomographySettings(shots_per_setting=shots, seed=81 + rep)
                out = reconstruct(sample_counts(born_probabilities(truth, sett), sett))
                errs.append(np.linalg.norm(out.data - truth.data))
            errors.append(np.mean(errs))
        slope = np.polyfit(np.log10(shot_ladder), np.log10(errors), 1)[0]
        assert -0.6 <= slope <= -0.4
