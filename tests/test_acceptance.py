"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred.
"""

import json
import math

import numpy as np
import pytest

from qcool.channel import (
    ChannelParams,
    EnvironmentSpec,
    GROUND,
    conditional_state,
    project_b,
    tripartite_state,
    unconditional_state,
)
from qcool.cli import main
from qcool.entanglement import negativity, report
from qcool.limits import (
    cond_boundary,
    critical_ps_lanes,
    uncond_boundary,
)
from qcool.photonics import (
    RateConfig,
    mix_detections,
    rate_ratio,
    simulate_streams,
)
from qcool.qmat import fidelity, herm_eigvals, partial_transpose
from qcool.tomography import TomographySettings, born_probabilities, reconstruct, sample_counts

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def check(criterion: int, description: str, passed: bool):
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {criterion}: {description}"


def min_pt_eigenvalue(rho):
    return herm_eigvals(partial_transpose(rho.data, rho.dims, 1))[0]


def test_criterion_1_unconditional_threshold():
    exact = abs(uncond_boundary(0.5) - 1.0 / 3.0) <= 1e-12
    above = min_pt_eigenvalue(
        unconditional_state(1.0 / 3.0 + 1e-4, EnvironmentSpec(0.5))
    ) < -1e-9
    below = min_pt_eigenvalue(
        unconditional_state(1.0 / 3.0 - 1e-4, EnvironmentSpec(0.5))
    ) >= -1e-9
    check(
        1,
        "uncond_boundary(0.5) = 1/3 exactly; PPT verdict flips across P_S = 1/3",
        exact and above and below,
    )


def test_criterion_2_closed_form_oracle_agreement():
    p_t = np.linspace(0.0025, 0.5, 200)
    got = critical_ps_lanes(p_t, which="unconditional")
    worst_u = max(abs(g - uncond_boundary(t)) for g, t in zip(got, p_t))
    p_t, p_l = (
        a.ravel()
        for a in np.meshgrid(np.linspace(0.01, 0.5, 50), np.linspace(0.012, 0.6, 50), indexing="ij")
    )
    got = critical_ps_lanes(p_t, p_l, which="conditional")
    worst_c = max(abs(g - cond_boundary(t * l)) for g, t, l in zip(got, p_t, p_l))
    check(
        2,
        f"bisection matches closed forms (worst uncond {worst_u:.2e}, "
        f"worst cond {worst_c:.2e}, both <= 1e-6)",
        worst_u <= 1e-6 and worst_c <= 1e-6,
    )


def test_criterion_3_heralded_state_construction():
    rng = np.random.default_rng(2024)
    worst_state, worst_weight = 0.0, 0.0
    for _ in range(1000):
        p_s, p_f, p_l = rng.dirichlet([1.0, 1.0, 1.0])
        p_t = rng.uniform(0.0, 0.5)
        params = ChannelParams(p_s, p_f, p_l)
        spec = EnvironmentSpec(p_t)
        closed, weight = conditional_state(params, spec)
        projected, w = project_b(tripartite_state(params, spec), GROUND)
        worst_state = max(worst_state, float(np.abs(closed.data - projected.data).max()))
        worst_weight = max(
            worst_weight,
            abs(weight - w),
            abs(weight - ((1.0 - p_t) * (1.0 - p_f) + p_f / 2.0)),
        )
    check(
        3,
        f"closed form equals projection on 1000 draws (state {worst_state:.2e}, "
        f"weight {worst_weight:.2e}, both <= 1e-12)",
        worst_state <= 1e-12 and worst_weight <= 1e-12,
    )


def test_criterion_4_product_error_law():
    pairs = [
        ((0.1, 0.4), (0.2, 0.2)),
        ((0.05, 0.8), (0.4, 0.1)),
        ((0.25, 0.2), (0.1, 0.5)),
    ]
    p_t, p_l = np.array(pairs).reshape(-1, 2).T
    crit = critical_ps_lanes(p_t, p_l, which="conditional").reshape(-1, 2)
    worst_pair = float(np.abs(crit[:, 0] - crit[:, 1]).max())
    # two-stage grid search for the maximum of the conditional boundary
    xs = np.linspace(0.0, 1.0, 10001)
    ys = (np.sqrt(xs * (4.0 - 3.0 * xs)) - xs) / 2.0
    x0 = xs[int(np.argmax(ys))]
    fine = np.linspace(max(x0 - 2e-4, 0.0), min(x0 + 2e-4, 1.0), 400001)
    fy = (np.sqrt(fine * (4.0 - 3.0 * fine)) - fine) / 2.0
    k = int(np.argmax(fy))
    loc_err = abs(fine[k] - 1.0 / 3.0)
    val_err = abs(fy[k] - 1.0 / 3.0)
    check(
        4,
        f"equal-product pairs agree ({worst_pair:.2e} <= 1e-6); boundary max "
        f"1/3 at P_TL = 1/3 (loc {loc_err:.2e}, val {val_err:.2e}, <= 1e-6)",
        worst_pair <= 1e-6 and loc_err <= 1e-6 and val_err <= 1e-6,
    )


def test_criterion_5_approximation_regimes():
    cold_u = max(
        abs(uncond_boundary(p) / math.sqrt(p) - 1.0)
        for p in (1e-3, 3e-4, 1e-4, 1e-5)
    )
    cold_c = max(
        abs(cond_boundary(x) / math.sqrt(x) - 1.0)
        for x in (1e-3, 3e-4, 1e-4, 1e-5)
    )
    hot = max(
        abs(cond_boundary(0.5 * p_l) - math.sqrt(p_l / 2.0)) / math.sqrt(p_l / 2.0)
        for p_l in (0.01, 0.005, 0.001)
    )
    check(
        5,
        f"sqrt(p_T), sqrt(P_TL) and sqrt(P_L/2) regimes within 5% "
        f"(cold {cold_u:.3f}/{cold_c:.3f}, hot {hot:.3f})",
        cold_u <= 0.05 and cold_c <= 0.05 and hot <= 0.05,
    )


def test_criterion_6_monte_carlo_constraint():
    base = dict(rate_singlet=1e5, rate_singles=2e5, rate_noise=4e5)
    tally = simulate_streams(RateConfig(tau=1e-6, **base), 6.0, seed=600)
    emp = tally.empirical_params
    n = tally.n_triple
    sigma = math.sqrt((emp.p_s + emp.p_f - (emp.p_s - emp.p_f) ** 2) / n)
    constraint_ok = n >= 10_000 and abs(2.0 * emp.p_s + emp.p_l - 1.0) <= 3.0 * sigma

    xs, ys = [], []
    for i, tau in enumerate((0.4e-6, 0.7e-6, 1.0e-6, 1.3e-6)):
        cfg = RateConfig(tau=tau, **base)
        t = simulate_streams(cfg, 6.0, seed=610 + i)
        e = t.empirical_params
        xs.append(rate_ratio(cfg))
        ys.append(e.p_l / e.p_s)
    xs, ys = np.array(xs), np.array(ys)
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    pred = a @ coef
    r2 = 1.0 - float(((ys - pred) ** 2).sum()) / float(((ys - ys.mean()) ** 2).sum())
    check(
        6,
        f"2 P_S + P_L = 1 within 3 sigma at n={n}; tau-ladder fit R^2 = {r2:.5f} >= 0.99",
        constraint_ok and r2 >= 0.99,
    )


def test_criterion_7_mixing_equivalence():
    rates = dict(rate_singlet=1e5, rate_singles=2e5, rate_noise=4e5, tau=1e-6)
    ground = simulate_streams(RateConfig(**rates), 5.0, seed=700)
    excited = simulate_streams(RateConfig(**rates), 5.0, seed=701)
    mixed = mix_detections(ground, excited, 0.25, seed=702)
    direct = simulate_streams(RateConfig(**rates), 5.0, seed=703)
    em, ed = mixed.empirical_params, direct.empirical_params
    enough = min(mixed.n_triple, direct.n_triple) >= 10_000
    worst = 0.0
    ok = True
    for pm, pd in zip((em.p_s, em.p_f, em.p_l), (ed.p_s, ed.p_f, ed.p_l)):
        se = math.sqrt(pm * (1 - pm) / mixed.n_triple + pd * (1 - pd) / direct.n_triple)
        worst = max(worst, abs(pm - pd) / se)
        ok = ok and abs(pm - pd) <= 3.0 * se
    check(
        7,
        f"mixed resampling vs direct mixed-noise run: worst deviation {worst:.2f} sigma <= 3",
        enough and ok,
    )


def classify_closed(p_s, p_t, p_l):
    if p_s > uncond_boundary(p_t):
        return "unconditional"
    if p_s > cond_boundary(p_t * p_l):
        return "conditional_only"
    return "separable"


def test_criterion_8_tomography_closure():
    truth, _ = conditional_state(ChannelParams(0.4, 0.2, 0.4), EnvironmentSpec(0.1))
    sett = TomographySettings(shots_per_setting=10**6, seed=800)
    recon = reconstruct(sample_counts(born_probabilities(truth, sett), sett))
    fid = fidelity(truth, recon)
    neg_err = abs(negativity(recon) - negativity(truth))
    point_ok = fid >= 0.999 and neg_err <= 0.01

    p_l = 0.3
    agree = total = 0
    for i, p_t in enumerate(np.linspace(0.05, 0.5, 10)):
        for j, p_s in enumerate(np.linspace(0.05, 0.65, 10)):
            if (
                abs(p_s - uncond_boundary(p_t)) <= 0.02
                or abs(p_s - cond_boundary(p_t * p_l)) <= 0.02
            ):
                continue
            total += 1
            state, _ = conditional_state(
                ChannelParams(p_s, 1.0 - p_s - p_l, p_l), EnvironmentSpec(p_t)
            )
            s = TomographySettings(shots_per_setting=10**5, seed=810 + 10 * i + j)
            rec = reconstruct(sample_counts(born_probabilities(state, s), s))
            tomo_class = (
                "unconditional"
                if p_s > uncond_boundary(p_t)
                else ("conditional_only" if report(rec).entangled else "separable")
            )
            if tomo_class == classify_closed(p_s, p_t, p_l):
                agree += 1
    rate = agree / total
    check(
        8,
        f"10^6-shot fidelity {fid:.5f} >= 0.999, negativity error {neg_err:.4f} <= 0.01; "
        f"classification agreement {agree}/{total} = {rate:.3f} >= 0.99 "
        f"(margin > 0.02, 10^5 shots)",
        point_ok and rate >= 0.99,
    )


def test_criterion_9_pipeline_produces_all_classes(tmp_path):
    # Measured laboratory points are not reproducible; instead the pipeline
    # must realize all three entanglement classes from designed scenarios.
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(
        "shots_per_setting = 50000\n"
        "scenario1.rate_singlet = 1e5\nscenario1.rate_singles = 0\n"
        "scenario1.rate_noise = 4e5\nscenario1.tau = 1e-6\n"
        "scenario1.p_t = 0\nscenario1.duration = 3\n"
        "scenario2.rate_singlet = 1e5\nscenario2.rate_singles = 5e5\n"
        "scenario2.rate_noise = 4e5\nscenario2.tau = 5e-7\n"
        "scenario2.p_t = 0.5\nscenario2.duration = 10\n"
        "scenario3.rate_singlet = 1e5\nscenario3.rate_singles = 9e5\n"
        "scenario3.rate_noise = 4e5\nscenario3.tau = 1e-6\n"
        "scenario3.p_t = 0.5\nscenario3.duration = 5\n"
    )
    out = tmp_path / "pipeline.jsonl"
    code = main(
        ["pipeline", "--config", str(cfg), "--seed", "900",
         "--out", str(out), "--format", "jsonl"]
    )
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    classes = {row["classification"] for row in rows}
    check(
        9,
        f"pipeline scenarios realize classes {sorted(classes)}",
        code == 0
        and classes == {"unconditional", "conditional_only", "separable"},
    )
