import math

import numpy as np
import pytest

from qcool.channel import ChannelParams, EnvironmentSpec, conditional_state
from qcool.entanglement import report
from qcool.limits import cond_boundary
from qcool.photonics import (
    CoincidenceTally,
    RateConfig,
    accessible_bounds,
    heralded_state_estimate,
    merge_tallies,
    mix_detections,
    params_from_ratio,
    poisson_arrivals,
    rate_ratio,
    simulate_streams,
    stream_rng,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

# Standard fixture: heavy noise coupling for fast triple yield.  The
# proportionality constant between empirical P_L/P_S and the rate ratio was
# measured once for this family by the calibration fit in
# test_ladders_are_linear_in_each_rate; it tracks 1 + R_singlet/(2 R_S).
FIXTURE = dict(rate_singlet=1e5, rate_singles=2e5, rate_noise=4e5, tau=1e-6)
CALIBRATION_CONST = 1.25


def fixture_config(**overrides):
    kw = {**FIXTURE, **overrides}
    return RateConfig(kw["rate_singlet"], kw["rate_singles"], kw["rate_noise"], kw["tau"])


def two_ps_plus_pl_sigma(tally):
    """Standard error of the empirical 2 P_S + P_L - 1 = P_S - P_F."""
    emp = tally.empirical_params
    n = tally.n_triple
    return math.sqrt((emp.p_s + emp.p_f - (emp.p_s - emp.p_f) ** 2) / n)


def linear_fit(xs, ys):
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    pred = a @ coef
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    return coef, 1.0 - ss_res / ss_tot


class TestRateConfig:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            RateConfig(-1.0, 0.0, 0.0, 1e-9)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            RateConfig(1.0, 1.0, 1.0, 0.0)

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_warns_on_large_rate_tau_product(self):
        with pytest.warns(UserWarning, match="exceeds") as record:
            RateConfig(1e6, 0.0, 0.0, 1e-6)
        # the warning points at the caller, not the generated __init__
        assert record[0].filename == __file__


class TestRateRatio:
    def test_zero_noise(self):
        assert rate_ratio(RateConfig(1e3, 1e4, 0.0, 1e-9)) == 0.0

    def test_arithmetic(self):
        assert abs(rate_ratio(RateConfig(1e3, 1e4, 1e5, 1e-9)) - 1e-3) <= 1e-18

    def test_linear_in_tau(self):
        r1 = rate_ratio(RateConfig(1e3, 1e4, 1e5, 1e-9))
        r2 = rate_ratio(RateConfig(1e3, 1e4, 1e5, 2e-9))
        assert abs(r2 - 2.0 * r1) <= 1e-18

    def test_zero_singlet_rate(self):
        with pytest.raises(ValueError):
            rate_ratio(RateConfig(0.0, 1.0, 1.0, 1e-9))


class TestParamsFromRatio:
    def test_zero(self):
        p = params_from_ratio(0.0)
        assert (p.p_s, p.p_f, p.p_l) == (0.5, 0.5, 0.0)

    def test_large_ratio_limit(self):
        p = params_from_ratio(1e9)
        assert p.p_s < 1e-8 and p.p_l > 1.0 - 1e-8

    def test_arithmetic(self):
        p = params_from_ratio(2.0)
        assert (p.p_s, p.p_f, p.p_l) == (0.25, 0.25, 0.5)

    def test_constraint_exact(self):
        for r in (0.0, 0.3, 1.0, 7.5):
            p = params_from_ratio(r)
            assert 2.0 * p.p_s + p.p_l == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            params_from_ratio(-0.1)


class TestAccessibleBounds:
    def test_arithmetic(self):
        assert accessible_bounds(0.1, 0.5) == (0.2, 1.8)

    def test_vanishing_ps(self):
        first, _ = accessible_bounds(1e-9, 0.5)
        assert first <= 2e-9

    def test_attenuation_doubles_first_bound(self):
        b1, _ = accessible_bounds(0.1, 0.5)
        b2, _ = accessible_bounds(0.1, 0.25)
        assert abs(b2 - 2.0 * b1) <= 1e-15

    def test_large_r_singlet_unbounded_second(self):
        _, second = accessible_bounds(0.1, 1.5)
        assert math.isinf(second)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            accessible_bounds(0.1, 0.0)


class TestPoissonArrivals:
    def test_count_near_mean(self):
        for rate, duration, seed in ((1e4, 10.0, 1), (5e3, 50.0, 2), (2e5, 2.0, 3)):
            times = poisson_arrivals(rate, duration, stream_rng(seed, 0))
            mean = rate * duration
            assert abs(times.size - mean) <= 4.0 * math.sqrt(mean)

    def test_sorted_and_in_range(self):
        times = poisson_arrivals(1e4, 5.0, stream_rng(9, 0))
        assert np.all(np.diff(times) > 0)
        assert times[0] >= 0.0 and times[-1] < 5.0

    def test_zero_rate(self):
        assert poisson_arrivals(0.0, 10.0, stream_rng(0, 0)).size == 0

    def test_deterministic(self):
        a = poisson_arrivals(1e4, 5.0, stream_rng(4, 3))
        b = poisson_arrivals(1e4, 5.0, stream_rng(4, 3))
        assert np.array_equal(a, b)


class TestStreamRng:
    def test_streams_independent_of_added_streams(self):
        # drawing from stream 0 is unaffected by whether stream 5 exists
        a = stream_rng(123, 0).random(8)
        _ = stream_rng(123, 5).random(8)
        b = stream_rng(123, 0).random(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        assert not np.array_equal(stream_rng(1, 0).random(4), stream_rng(1, 1).random(4))

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            stream_rng(-1, 0)


class TestSimulateStreams:
    def test_deterministic_bit_for_bit(self):
        cfg = fixture_config()
        a = simulate_streams(cfg, 1.0, seed=7)
        b = simulate_streams(cfg, 1.0, seed=7)
        assert a == b

    def test_seed_changes_outcome(self):
        cfg = fixture_config()
        assert simulate_streams(cfg, 1.0, seed=7) != simulate_streams(cfg, 1.0, seed=8)

    def test_no_noise_no_singles_yields_no_triples(self):
        cfg = RateConfig(1e3, 0.0, 0.0, 1e-8)
        tally = simulate_streams(cfg, 50.0, seed=11)
        assert tally.n_triple == 0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            simulate_streams(fixture_config(), 0.0, seed=0)

    def test_counts_partition_triples(self):
        tally = simulate_streams(fixture_config(), 2.0, seed=21)
        assert tally.n_success + tally.n_flip + tally.n_loss == tally.n_triple
        emp = tally.empirical_params
        assert abs(emp.p_s + emp.p_f + emp.p_l - 1.0) <= 1e-12

    def test_flip_success_symmetry(self):
        # P_F / P_S -> 1 from the 50:50 splitter; 3 binomial errors at >= 1e4 triples
        tally = simulate_streams(fixture_config(), 4.0, seed=22)
        assert tally.n_triple >= 10_000
        emp = tally.empirical_params
        assert abs(emp.p_f / emp.p_s - 1.0) <= 3.0 * (
            two_ps_plus_pl_sigma(tally) / emp.p_s
        )

    def test_two_ps_plus_pl_constraint(self):
        tally = simulate_streams(fixture_config(), 4.0, seed=23)
        emp = tally.empirical_params
        dev = abs(2.0 * emp.p_s + emp.p_l - 1.0)
        assert dev <= 3.0 * two_ps_plus_pl_sigma(tally)

    def test_loss_ratio_tracks_rate_ratio(self):
        cfg = fixture_config()
        tally = simulate_streams(cfg, 4.0, seed=24)
        emp = tally.empirical_params
        const = (emp.p_l / emp.p_s) / rate_ratio(cfg)
        assert abs(const - CALIBRATION_CONST) / CALIBRATION_CONST <= 0.1


class TestTimeTagDump:
    def test_dump_format_and_counts(self, tmp_path):
        path = tmp_path / "tags.txt"
        cfg = RateConfig(2e4, 1e4, 3e4, 1e-7)
        simulate_streams(cfg, 0.5, seed=31, time_tag_path=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# time_ps detector provenance"
        dets = {"R": 0, "A": 0, "B": 0}
        last = -1
        for line in lines[1:]:
            t, det, prov = line.split()
            assert int(t) >= last
            last = int(t)
            dets[det] += 1
            assert prov in ("signal", "noise", "single")
        # every detector produced clicks at these rates
        assert min(dets.values()) > 0
        # R clicks come from pairs plus residual singles
        mean_r = (cfg.rate_singlet + cfg.rate_singles) * 0.5
        assert abs(dets["R"] - mean_r) <= 5.0 * math.sqrt(mean_r)


class TestMergeTallies:
    def test_merge_adds_counts_and_durations(self):
        cfg = fixture_config()
        a = simulate_streams(cfg, 1.0, seed=41)
        b = simulate_streams(cfg, 1.0, seed=42)
        m = merge_tallies(a, b)
        assert m.n_triple == a.n_triple + b.n_triple
        assert m.duration == 2.0

    def test_merge_associative(self):
        cfg = fixture_config()
        a, b, c = (simulate_streams(cfg, 0.5, seed=s) for s in (51, 52, 53))
        assert merge_tallies(merge_tallies(a, b), c) == merge_tallies(a, merge_tallies(b, c))

    def test_merge_rejects_different_rates(self):
        a = simulate_streams(fixture_config(), 0.5, seed=54)
        b = simulate_streams(fixture_config(tau=2e-6), 0.5, seed=55)
        with pytest.raises(ValueError):
            merge_tallies(a, b)


class TestMixDetections:
    def make_pair(self, duration=2.0, seeds=(61, 62)):
        g = simulate_streams(fixture_config(), duration, seed=seeds[0])
        e = simulate_streams(fixture_config(), duration, seed=seeds[1])
        return g, e

    def test_zero_p_t_resamples_ground_only(self):
        g, e = self.make_pair()
        mixed = mix_detections(g, e, 0.0, seed=63)
        assert mixed.n_triple == g.n_triple
        emp_g, emp_m = g.empirical_params, mixed.empirical_params
        se = 4.0 * math.sqrt(emp_g.p_s * (1 - emp_g.p_s) / g.n_triple)
        assert abs(emp_m.p_s - emp_g.p_s) <= 2.0 * se

    def test_half_p_t_targets_average_count(self):
        g, e = self.make_pair()
        mixed = mix_detections(g, e, 0.5, seed=64)
        assert mixed.n_triple == round((g.n_triple + e.n_triple) / 2)

    def test_deterministic(self):
        g, e = self.make_pair()
        assert mix_detections(g, e, 0.25, 65) == mix_detections(g, e, 0.25, 65)

    def test_matches_direct_mixed_simulation(self):
        # 3 sigma equivalence against a direct run with mixed noise; since
        # polarization never filters a click, that is a run of the same rates.
        g, e = self.make_pair(duration=4.0, seeds=(66, 67))
        mixed = mix_detections(g, e, 0.25, seed=68)
        direct = simulate_streams(fixture_config(), 4.0, seed=69)
        assert min(mixed.n_triple, direct.n_triple) >= 10_000
        em, ed = mixed.empirical_params, direct.empirical_params
        for pm, pd in zip((em.p_s, em.p_f, em.p_l), (ed.p_s, ed.p_f, ed.p_l)):
            se = math.sqrt(
                pm * (1 - pm) / mixed.n_triple + pd * (1 - pd) / direct.n_triple
            )
            assert abs(pm - pd) <= 3.0 * se

    def test_rejects_mismatched_rates(self):
        g, _ = self.make_pair()
        e = simulate_streams(fixture_config(tau=2e-6), 2.0, seed=70)
        with pytest.raises(ValueError):
            mix_detections(g, e, 0.2, 71)

    def test_rejects_out_of_range_p_t(self):
        g, e = self.make_pair()
        with pytest.raises(ValueError):
            mix_detections(g, e, 0.6, 74)


class TestHeraldedStateEstimate:
    def test_pure_success_gives_singlet(self):
        tally = CoincidenceTally(1000, 0, 0, 0, fixture_config(), 1.0)
        state = heralded_state_estimate(tally, EnvironmentSpec(0.2))
        sv = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        assert np.abs(state.data - np.outer(sv, sv)).max() <= 1e-12

    def test_matches_conditional_state_oracle(self):
        tally = CoincidenceTally(500, 500, 0, 0, fixture_config(), 1.0)
        state = heralded_state_estimate(tally, EnvironmentSpec(0.0))
        expected, weight = conditional_state(ChannelParams(0.5, 0.5, 0.0), EnvironmentSpec(0.0))
        assert np.abs(state.data - expected.data).max() <= 1e-12
        # normalization from the closed form: (1-p)(1-P_F) + P_F/2
        assert abs(weight - 0.75) <= 1e-15

    def test_verdict_matches_closed_form_at_matched_parameters(self):
        spec = EnvironmentSpec(0.5)
        for n_s, n_f, n_l in ((330, 330, 340), (250, 250, 500)):
            tally = CoincidenceTally(n_s, n_f, n_l, 0, fixture_config(), 1.0)
            emp = tally.empirical_params
            state = heralded_state_estimate(tally, spec)
            assert report(state).entangled == (emp.p_s > cond_boundary(spec.p_t * emp.p_l))

    def test_empty_tally_rejected(self):
        tally = CoincidenceTally(0, 0, 0, 0, fixture_config(), 1.0)
        with pytest.raises(ValueError):
            heralded_state_estimate(tally, EnvironmentSpec(0.1))


@pytest.mark.slow
def test_ladders_are_linear_in_each_rate():
    """P_L/P_S is linear in tau, R_N, R_S and in 1/R_singlet (R^2 >= 0.99,
    >= 1e5 triples per point), and the per-point proportionality constant
    stays within 10% of the stored calibration value."""
    base = FIXTURE

    def run(rate_singlet, rate_singles, rate_noise, tau, duration, seed):
        cfg = RateConfig(rate_singlet, rate_singles, rate_noise, tau)
        tally = simulate_streams(cfg, duration, seed=seed)
        assert tally.n_triple >= 100_000
        emp = tally.empirical_params
        return rate_ratio(cfg), emp.p_l / emp.p_s

    ladders = {
        "tau": [
            run(base["rate_singlet"], base["rate_singles"], base["rate_noise"], tau, dur, seed)
            for tau, dur, seed in (
                (0.4e-6, 60, 1000), (0.7e-6, 36, 1001), (1.0e-6, 27, 1002), (1.3e-6, 22, 1003),
            )
        ],
        "rate_noise": [
            run(base["rate_singlet"], base["rate_singles"], rn, base["tau"], dur, seed)
            for rn, dur, seed in (
                (1.6e5, 68, 1100), (2.4e5, 42, 1101), (3.2e5, 31, 1102), (4.0e5, 25, 1103),
            )
        ],
        "rate_singles": [
            run(base["rate_singlet"], rs, base["rate_noise"], base["tau"], dur, seed)
            for rs, dur, seed in (
                (1.0e5, 27, 1200), (2.0e5, 26, 1201), (3.0e5, 25, 1202), (4.0e5, 25, 1203),
            )
        ],
        "rate_singlet": [
            run(rp, base["rate_singles"], base["rate_noise"], base["tau"], dur, seed)
            for rp, dur, seed in (
                (0.5e5, 40, 1300), (1.0e5, 26, 1301), (1.5e5, 21, 1302), (2.0e5, 17, 1303),
            )
        ],
    }
    for name, points in ladders.items():
        xs = np.array([r for r, _ in points])
        ys = np.array([y for _, y in points])
        (slope, _), r2 = linear_fit(xs, ys)
        assert r2 >= 0.99, f"{name} ladder R^2 = {r2}"
        assert slope > 0.0
    # stability of the per-point constant on the tau ladder
    consts = [y / r for r, y in ladders["tau"]]
    for c in consts:
        assert abs(c - CALIBRATION_CONST) / CALIBRATION_CONST <= 0.10
    assert (max(consts) - min(consts)) / min(consts) <= 0.10
