import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcool.limits import (
    BracketError,
    GridSpec,
    cond_approx_ok,
    cond_boundary,
    critical_ps_numeric,
    evaluate_point,
    high_temp_boundary,
    sweep,
    uncond_approx_ok,
    uncond_boundary,
)

from helpers import reference_critical_ps


class TestUncondBoundary:
    def test_zero_excitation(self):
        assert uncond_boundary(0.0) == 0.0

    def test_hot_limit_is_one_third(self):
        assert abs(uncond_boundary(0.5) - 1.0 / 3.0) <= 1e-12

    def test_tenth(self):
        assert abs(uncond_boundary(0.1) - 3.0 / 13.0) <= 1e-12

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 0.5, 500)
        ys = [uncond_boundary(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            uncond_boundary(0.6)
        with pytest.raises(ValueError):
            uncond_boundary(-0.01)

    def test_small_p_asymptotics(self):
        for p in (1e-3, 1e-4, 1e-5):
            assert abs(uncond_boundary(p) / math.sqrt(p) - 1.0) <= 0.05


class TestUncondApprox:
    def test_no_excitation_always_ok(self):
        assert uncond_approx_ok(0.01, 0.0)

    def test_boundary_ratio_one_is_false(self):
        assert not uncond_approx_ok(0.1, 0.01)

    def test_agrees_with_exact_in_regime(self):
        p_s, p_t = 0.02, 1e-4
        assert uncond_approx_ok(p_s, p_t)
        assert p_s > uncond_boundary(p_t)

    def test_zero_ps_with_excitation(self):
        assert not uncond_approx_ok(0.0, 0.3)


class TestCondBoundary:
    def test_zero_error(self):
        assert cond_boundary(0.0) == 0.0

    def test_quarter(self):
        assert abs(cond_boundary(0.25) - 0.3256939094329986) <= 1e-12

    def test_maximum_at_one_third(self):
        # Oracle: dense grid maximization over [0, 1].
        xs = np.linspace(0.0, 1.0, 100001)
        ys = (np.sqrt(xs * (4.0 - 3.0 * xs)) - xs) / 2.0
        k = int(np.argmax(ys))
        assert abs(xs[k] - 1.0 / 3.0) <= 2e-5
        assert abs(ys[k] - 1.0 / 3.0) <= 1e-9
        assert abs(cond_boundary(1.0 / 3.0) - 1.0 / 3.0) <= 1e-12

    def test_never_exceeds_one_third(self):
        xs = np.linspace(0.0, 1.0, 2000)
        for x in xs:
            assert cond_boundary(x) <= 1.0 / 3.0 + 1e-12

    def test_small_x_asymptotics(self):
        for x in (1e-3, 1e-4, 1e-5):
            assert abs(cond_boundary(x) / math.sqrt(x) - 1.0) <= 0.05

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cond_boundary(1.1)


class TestCondApprox:
    def test_no_loss_always_ok(self):
        assert cond_approx_ok(0.01, 0.4, 0.0)

    def test_regime_agreement(self):
        assert cond_approx_ok(0.03, 1e-3, 0.5)
        assert 0.03 > cond_boundary(1e-3 * 0.5)

    def test_ratio_above_one(self):
        assert not cond_approx_ok(0.02, 1e-3, 0.5)  # ratio 1.25


class TestHighTempBoundary:
    def test_zero(self):
        assert high_temp_boundary(0.0) == 0.0

    def test_arithmetic(self):
        assert abs(high_temp_boundary(0.02) - 0.1) <= 1e-15

    def test_agrees_with_exact_for_small_loss(self):
        for p_l in (0.001, 0.005, 0.01):
            exact = cond_boundary(0.5 * p_l)
            approx = high_temp_boundary(p_l)
            assert abs(approx - exact) / exact <= 0.05


class TestCriticalPsNumeric:
    def test_unconditional_tenth(self):
        got = critical_ps_numeric(0.1, which="unconditional")
        assert abs(got - 3.0 / 13.0) <= 1e-6

    def test_conditional_matches_closed_form(self):
        got = critical_ps_numeric(0.5, 0.5, which="conditional")
        assert abs(got - cond_boundary(0.25)) <= 1e-6

    def test_vanishes_with_excitation(self):
        got = critical_ps_numeric(1e-4, 0.3, which="conditional")
        assert got <= 1e-2

    def test_product_dependence(self):
        a = critical_ps_numeric(0.1, 0.4, which="conditional")
        b = critical_ps_numeric(0.2, 0.2, which="conditional")
        assert abs(a - b) <= 1e-6
        assert abs(a - cond_boundary(0.04)) <= 1e-6

    def test_never_entangled_reports_bracket_error(self):
        with pytest.raises(BracketError, match="never entangled"):
            critical_ps_numeric(0.5, 0.9, which="conditional")

    @pytest.mark.parametrize("p_t", [0.0025, 0.01, 0.137, 0.31, 0.5])
    def test_unconditional_equals_scalar_reference(self, p_t):
        assert critical_ps_numeric(p_t) == reference_critical_ps(p_t)

    @pytest.mark.parametrize("p_t, p_l", [
        (0.01, 0.012), (0.01, 0.6), (0.2, 0.3), (0.37, 0.05), (0.5, 0.012), (0.5, 0.6),
    ])
    def test_conditional_equals_scalar_reference(self, p_t, p_l):
        got = critical_ps_numeric(p_t, p_l, which="conditional")
        assert got == reference_critical_ps(p_t, p_l, which="conditional")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            critical_ps_numeric(0.0)
        with pytest.raises(ValueError):
            critical_ps_numeric(0.1, 1.0, which="conditional")
        with pytest.raises(ValueError):
            critical_ps_numeric(0.1, 0.0, which="sideways")


class TestBoundaryRelations:
    def test_conditional_below_unconditional_where_attainable(self):
        # The comparison is meaningful only where the unconditional
        # boundary itself fits inside the probability simplex.
        for p_t in np.linspace(0.01, 0.5, 30):
            for p_l in np.linspace(0.0, 0.99, 30):
                if uncond_boundary(p_t) + p_l <= 1.0:
                    assert cond_boundary(p_t * p_l) <= uncond_boundary(p_t) + 1e-12

    def test_heralding_never_hurts_verdicts_on_feasible_points(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            p_t = rng.uniform(0.01, 0.5)
            p_l = rng.uniform(0.0, 1.0)
            p_s = rng.uniform(0.0, 1.0 - p_l)
            if p_s > uncond_boundary(p_t):
                assert p_s > cond_boundary(p_t * p_l)


class TestGridSpec:
    def test_from_ranges(self):
        grid = GridSpec.from_ranges((0.0, 0.5, 3), (0.2, 0.2, 1), (0.0, 1.0, 2))
        assert grid.p_t_values == (0.0, 0.25, 0.5)
        assert grid.p_l_values == (0.2,)
        assert grid.p_s_values == (0.0, 1.0)

    def test_empty_axis_gives_empty_grid(self):
        grid = GridSpec.from_ranges((0.0, 0.5, 0), (0.0, 0.5, 2), (0.0, 1.0, 2))
        assert grid.points() == []

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GridSpec.from_ranges((0.0, 0.9, 3), (0.0, 0.5, 1), (0.0, 1.0, 1))


class TestSweep:
    def test_empty_grid(self):
        grid = GridSpec((), (), ())
        assert sweep(grid) == []

    def test_singleton_hot_point(self):
        grid = GridSpec((0.5,), (0.0,), (0.4,))
        records = sweep(grid)
        assert len(records) == 1
        assert records[0].verdicts.unconditional_ok
        assert records[0].feasible

    def test_singleton_conditional_only_point(self):
        p_s = cond_boundary(0.06) + 0.01
        grid = GridSpec((0.3,), (0.2,), (p_s,))
        rec = sweep(grid)[0]
        assert rec.verdicts.conditional_ok
        assert rec.verdicts.unconditional_ok == (p_s > uncond_boundary(0.3))
        assert not rec.verdicts.unconditional_ok

    def test_ordering_lexicographic(self):
        grid = GridSpec((0.4, 0.1), (0.3, 0.0), (0.9, 0.2))
        keys = [(r.p_l, r.p_t, r.p_s) for r in sweep(grid)]
        assert keys == sorted(keys)

    def test_infeasible_points_flagged_not_dropped(self):
        grid = GridSpec((0.2,), (0.8,), (0.1, 0.5))
        records = sweep(grid)
        assert len(records) == 2
        feasible = {r.p_s: r.feasible for r in records}
        assert feasible[0.1] and not feasible[0.5]
        bad = [r for r in records if not r.feasible][0]
        assert math.isnan(bad.numeric_negativity)

    @pytest.mark.parametrize("p_t, p_l, p_s", [(0.2, 0.5, 0.500000000001), (0.0, 1.0, 1e-12)])
    def test_closure_edge_is_infeasible(self, p_t, p_l, p_s):
        # P_S + P_L rounds to within 1e-12 of 1, but the closure P_F = 0
        # misses `ChannelParams`'s 1e-12 sum check by rounding.
        rec = evaluate_point(p_t, p_l, p_s)
        assert not rec.feasible
        assert math.isnan(rec.numeric_negativity)

    @pytest.mark.parametrize(
        "p_t, p_l, p_s, name",
        [(0.1, 1.5, 0.0, "p_l"), (0.1, 0.0, 1.5, "p_s"), (0.1, 0.2, math.nan, "p_s")],
    )
    def test_point_outside_domain_rejected(self, p_t, p_l, p_s, name):
        with pytest.raises(ValueError, match=name):
            evaluate_point(p_t, p_l, p_s)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.0, 0.5), min_size=1, max_size=3),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    )
    @example(p_t=[0.0], p_l=[1.0], p_s=[1e-12])
    def test_unsorted_axes_evaluated_in_lexicographic_order(self, p_t, p_l, p_s):
        expected = [
            evaluate_point(t, l, s) for l, t, s in sorted(itertools.product(p_l, p_t, p_s))
        ]
        # repr compares NaN fields of infeasible records as equal text
        assert repr(sweep(GridSpec(p_t, p_l, p_s))) == repr(expected)

    def test_record_fields(self):
        rec = evaluate_point(0.25, 0.4, 0.35)
        assert rec.p_tl == 0.25 * 0.4
        assert rec.feasible

    def test_negativity_consistent_with_verdict(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p_t = rng.uniform(0.01, 0.5)
            p_l = rng.uniform(0.0, 0.9)
            p_s = rng.uniform(0.0, 1.0 - p_l)
            rec = evaluate_point(p_t, p_l, p_s)
            margin = abs(p_s - rec.verdicts.cond_boundary_ps)
            if margin > 1e-6:
                assert rec.verdicts.conditional_ok == (rec.numeric_negativity > 1e-9)
