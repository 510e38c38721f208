import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcool.limits
from qcool.limits import (
    BracketError,
    GridSpec,
    cond_approx_ok,
    cond_boundary,
    critical_ps_lanes,
    critical_ps_numeric,
    evaluate_point,
    high_temp_boundary,
    sweep,
    uncond_approx_ok,
    uncond_boundary,
)

from helpers import record_row, reference_critical_ps, table_rows


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


def _lanes(data, n, which):
    """n lanes in criterion 2's ranges; conditional lanes have mixed
    bracket widths 1 - P_L."""
    if which == "unconditional":
        return data.draw(st.lists(st.floats(0.0025, 0.5), min_size=n, max_size=n)), [0.0] * n
    p_t = data.draw(st.lists(st.floats(0.01, 0.5), min_size=n, max_size=n))
    return p_t, data.draw(st.lists(st.floats(0.012, 0.6), min_size=n, max_size=n))


class TestCriticalPsLanes:
    # 1, 2 and 5 lanes evaluate 4, 3 and 2 halvings per call at first;
    # 17 and 40 lanes halve once per call.
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    @settings(max_examples=4, deadline=None)
    @given(st.sampled_from(["unconditional", "conditional"]), st.data())
    def test_every_lane_equals_scalar_reference(self, n, which, data):
        p_t, p_l = _lanes(data, n, which)
        got = critical_ps_lanes(p_t, p_l, which)
        assert got.shape == (n,)
        want = [reference_critical_ps(t, l, which=which) for t, l in zip(p_t, p_l)]
        assert got.tolist() == want

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(2, 24),
        st.sampled_from(["unconditional", "conditional"]),
        st.randoms(use_true_random=False),
        st.data(),
    )
    def test_lane_does_not_depend_on_its_company(self, n, which, rnd, data):
        p_t, p_l = _lanes(data, n, which)
        together = critical_ps_lanes(p_t, p_l, which).tolist()
        order = list(range(n))
        rnd.shuffle(order)
        shuffled = critical_ps_lanes([p_t[i] for i in order], [p_l[i] for i in order], which)
        assert shuffled.tolist() == [together[i] for i in order]
        k = rnd.randrange(1, n)
        assert critical_ps_lanes(p_t[:k], p_l[:k], which).tolist() == together[:k]
        assert critical_ps_numeric(p_t[-1], p_l[-1], which) == together[-1]

    def test_broadcasts_and_keeps_shape(self):
        got = critical_ps_lanes([[0.1], [0.5]], [0.2, 0.5], "conditional")
        assert got.shape == (2, 2)
        assert got[1, 1] == critical_ps_numeric(0.5, 0.5, "conditional")

    @pytest.mark.parametrize("which", ["unconditional", "conditional"])
    def test_no_lanes(self, which):
        got = critical_ps_lanes([], [], which)
        assert got.shape == (0,) and got.dtype == float

    def test_bad_lane_among_good_ones_reports_bracket_error(self):
        with pytest.raises(BracketError, match="never entangled"):
            critical_ps_lanes([0.2, 0.5, 0.3], [0.3, 0.9, 0.1], "conditional")

    @pytest.mark.parametrize("p_t, message", [
        ([0.1, 0.3, 0.4], "always entangled"),
        ([0.1, 0.4, 0.3], "never entangled"),
        ([0.1, 0.2, 0.4, 0.3], "never entangled"),
    ])
    def test_first_bad_lane_raises(self, monkeypatch, p_t, message):
        # Synthetic eigenvalues: the root is at P_S = 0.2 except on the
        # lanes p_T = 0.3 (negative throughout) and p_T = 0.4 (positive).
        def fake(p_s, p_t, p_l, which):
            return np.where(p_t == 0.3, -1.0, np.where(p_t == 0.4, 1.0, 0.2 - p_s))

        monkeypatch.setattr(qcool.limits, "_min_pt_eig", fake)
        with pytest.raises(BracketError, match=message):
            critical_ps_lanes(p_t)

    @pytest.mark.parametrize("p_t, p_l, name", [
        (math.nan, 0.1, "p_t"),
        (0.0, 0.1, "p_t"),
        (0.6, 0.1, "p_t"),
        (0.2, math.nan, "p_l"),
        (0.2, 1.0, "p_l"),
        (0.2, -0.1, "p_l"),
    ])
    @pytest.mark.parametrize("which", ["unconditional", "conditional"])
    def test_lane_outside_domain_rejected(self, p_t, p_l, name, which):
        with pytest.raises(ValueError, match=f"^{name}="):
            critical_ps_lanes([0.1, p_t, 0.3], [0.2, p_l, 0.2], which)


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
        assert grid.p_t_values == ()
        assert all(col.shape == (0,) for col in sweep(grid))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GridSpec.from_ranges((0.0, 0.9, 3), (0.0, 0.5, 1), (0.0, 1.0, 1))


class TestSweep:
    def test_empty_grid(self):
        table = sweep(GridSpec((), (), ()))
        assert len(table.feasible) == 0
        assert [col.dtype for col in table] == [float] * 6 + [bool] * 2 + [float, bool]

    def test_singleton_hot_point(self):
        grid = GridSpec((0.5,), (0.0,), (0.4,))
        table = sweep(grid)
        assert all(col.shape == (1,) for col in table)
        assert table.unconditional_ok[0]
        assert table.feasible[0]

    def test_singleton_conditional_only_point(self):
        p_s = cond_boundary(0.06) + 0.01
        grid = GridSpec((0.3,), (0.2,), (p_s,))
        table = sweep(grid)
        assert table.conditional_ok[0]
        assert table.unconditional_ok[0] == (p_s > uncond_boundary(0.3))
        assert not table.unconditional_ok[0]

    def test_ordering_lexicographic(self):
        table = sweep(GridSpec((0.4, 0.1), (0.3, 0.0), (0.9, 0.2)))
        keys = list(zip(table.p_l.tolist(), table.p_t.tolist(), table.p_s.tolist()))
        assert keys == sorted(keys)

    def test_infeasible_points_flagged_not_dropped(self):
        grid = GridSpec((0.2,), (0.8,), (0.1, 0.5))
        table = sweep(grid)
        assert table.p_s.tolist() == [0.1, 0.5]
        assert table.feasible.tolist() == [True, False]
        assert math.isfinite(table.numeric_negativity[0])
        assert math.isnan(table.numeric_negativity[1])

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
    # A repeated value interleaves the inner axes: p_T 0.1, 0.1, 0.3, 0.3.
    @example(p_t=[0.3, 0.1], p_l=[0.0, 0.0], p_s=[0.5])
    # -0.0 and 0.0 compare equal, so they keep their order in the product.
    @example(p_t=[0.0, -0.0], p_l=[-0.0, 0.2, 0.0], p_s=[0.4, -0.0, 0.0])
    def test_unsorted_axes_evaluated_in_lexicographic_order(self, p_t, p_l, p_s):
        expected = [
            record_row(evaluate_point(t, l, s))
            for l, t, s in sorted(itertools.product(p_l, p_t, p_s))
        ]
        # repr tells -0.0 from 0.0 and compares NaN negativities as equal text
        assert repr(table_rows(sweep(GridSpec(p_t, p_l, p_s)))) == repr(expected)

    def test_record_fields(self):
        table = sweep(GridSpec((0.25,), (0.4,), (0.35,)))
        assert table.p_tl.tolist() == [0.25 * 0.4]
        assert table.feasible.tolist() == [True]
        rec = evaluate_point(0.25, 0.4, 0.35)
        assert record_row(rec) == table_rows(table)[0]
        assert type(rec.p_tl) is float and type(rec.feasible) is bool
        assert type(rec.verdicts.conditional_ok) is bool

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
