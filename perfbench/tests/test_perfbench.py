"""Self-tests of the benchmark.

The traced run intercepts the calls it claims to, BENCHMARK.json lists
exactly the metrics run.py prints, the output checks reject corrupted
outputs, and the benchmark refuses to run without the program's source.

    python3 -m pytest perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from qcool import channel, limits, qmat
from spans import Tracer, per_layer_units
from workloads import (
    WORKLOADS,
    OracleBisect,
    PipelineMC,
    SurfaceSweep,
    TomoClosure,
    cond_closed,
    local_unitaries,
    pt_spectrum,
    uncond_closed,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def traced_round(workload):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_round()
        result = workload.run_round(0)
        tracer.end_round()
    finally:
        tracer.uninstall()
    return result, tracer.round_metrics()[0]


def test_surface_sweep_calls(tmp_path):
    wl = SurfaceSweep(seed=3, workdir=str(tmp_path))
    result, m = traced_round(wl)
    assert wl.check(result) == 0
    points = list(wl.expected_points(result[1]))
    feasible = sum(p_s + p_l <= 1.0 + 1e-12 for _, p_l, p_s in points)
    assert m["limits.evaluate_point.calls"] == len(points) == 20_254
    assert m["channel.conditional_state.calls"] == feasible == 11_362
    assert m["entanglement.negativity.calls"] == feasible
    assert m["limits.sweep.calls"] == m["cli.write_rows.calls"] == 1
    assert m["cli.write_rows.bytes"] == os.path.getsize(wl.out)
    assert m["photonics.simulate_streams.calls"] == m["tomography.born_probabilities.calls"] == 0


def test_surface_rounds_differ_and_truncated_output_fails(tmp_path):
    wl = SurfaceSweep(seed=3, workdir=str(tmp_path))
    starts = {wl.round_axes(r)["p_t"][0] for r in range(20)}
    assert len(starts) == 20 and all(0.0 < lo < 0.02 for lo in starts)
    result = wl.run_round(0)
    with open(wl.out, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(wl.out, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-5])
    assert wl.check(result) == 5


def test_local_unitaries_keep_the_pt_spectrum():
    rng = np.random.default_rng(4)
    turns = local_unitaries(rng, 16)
    rho = channel.conditional_state(channel.ChannelParams(0.6, 0.1, 0.3),
                                    channel.EnvironmentSpec(0.3))[0].data
    for u in turns:
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-13)
        turned = u @ rho @ u.conj().T
        assert np.allclose(pt_spectrum(turned), pt_spectrum(rho), atol=1e-12)
    assert not np.allclose(turns[0], turns[1])


def test_oracle_bisect_calls(tmp_path):
    wl = OracleBisect(seed=3, workdir=str(tmp_path))
    lanes, m = traced_round(wl)
    assert wl.check(lanes) == 0
    assert m["limits.critical_ps_numeric.calls"] == len(lanes) == wl.ops_per_round
    # 9 bracket samples plus 26 or 27 halvings of a bracket of width <= 1.
    assert 35 <= m["limits.states_per_bisection"] <= 36


def test_pipeline_calls(tmp_path):
    wl = PipelineMC(seed=3, workdir=str(tmp_path))
    code, m = traced_round(wl)
    assert wl.check(code) == 0
    assert m["photonics.simulate_streams.calls"] == 2 * len(wl.SCENARIOS)
    assert m["photonics.poisson_arrivals.calls"] == 3 * 2 * len(wl.SCENARIOS)
    events = m["photonics.poisson_arrivals.events"]
    assert abs(events - wl.work_per_round) <= 6.0 * math.sqrt(wl.work_per_round)
    assert m["photonics.simulate_streams.peak_mb"] > 0.0
    assert 0.0 < m["photonics.triple_yield"] < 1.0
    assert m["limits.evaluate_point.calls"] == 0


def test_tomo_closure_calls(tmp_path):
    wl = TomoClosure(seed=3, workdir=str(tmp_path))
    results, m = traced_round(wl)
    assert wl.check(results) == 0
    for stage in ("born_probabilities", "sample_counts", "linear_inversion",
                  "project_to_physical"):
        assert m[f"tomography.{stage}.calls"] == wl.BATCH
    assert m["qmat.fidelity.calls"] == m["entanglement.report.calls"] == wl.BATCH


def test_uninstall_restores_bindings(tmp_path):
    original_init = qmat.DensityMatrix.__init__
    traced_round(OracleBisect(seed=1, workdir=str(tmp_path)))
    assert limits.conditional_state is channel.conditional_state
    assert not hasattr(limits.critical_ps_numeric, "__wrapped__")
    assert qmat.DensityMatrix.__init__ is original_init


def test_benchmark_json_matches_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer_units()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def surface_row(p_t, p_l, p_s):
    rec = limits.evaluate_point(p_t, p_l, p_s)
    return {
        "p_T": repr(p_t), "P_L": repr(p_l), "P_S": repr(p_s), "P_TL": repr(p_t * p_l),
        "uncond_boundary": repr(uncond_closed(p_t)),
        "cond_boundary": repr(cond_closed(p_t * p_l)),
        "uncond_ok": str(rec.verdicts.unconditional_ok).lower(),
        "cond_ok": str(rec.verdicts.conditional_ok).lower(),
        "numeric_negativity": repr(rec.numeric_negativity),
        "feasible": str(rec.feasible).lower(),
    }


@pytest.mark.parametrize("key, value", [
    ("cond_ok", "false"),
    ("uncond_ok", "false"),
    ("numeric_negativity", "nan"),
    ("numeric_negativity", "0.0"),
    ("cond_boundary", "0.3"),
    ("feasible", "false"),
])
def test_surface_check_rejects_corruption(key, value):
    point = (0.25, 0.3, 0.5)
    row = surface_row(*point)
    assert SurfaceSweep.row_ok(row, *point)
    assert not SurfaceSweep.row_ok({**row, key: value}, *point)


def test_surface_check_requires_nan_on_infeasible_rows():
    point = (0.25, 0.6, 0.5)
    row = surface_row(*point)
    assert SurfaceSweep.row_ok(row, *point)
    assert not SurfaceSweep.row_ok({**row, "numeric_negativity": "0.0"}, *point)


def test_pipeline_check_rejects_biased_parameters(tmp_path):
    wl = PipelineMC(seed=5, workdir=str(tmp_path))
    assert wl.check(wl.run_round(0)) == 0
    with open(wl.out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[2].split(",")))
    n = int(row["n_triple"])
    shift = 10.0 * math.sqrt(0.25 / n)
    biased = {**row,
              "p_s_emp": repr(float(row["p_s_emp"]) + shift),
              "p_l_emp": repr(float(row["p_l_emp"]) - shift)}
    assert PipelineMC.row_ok(row, 2, *wl.SCENARIOS[1])
    assert not PipelineMC.row_ok(biased, 2, *wl.SCENARIOS[1])


def test_tomo_check_rejects_wrong_fidelity_and_verdict(tmp_path):
    wl = TomoClosure(seed=7, workdir=str(tmp_path))
    results = wl.run_round(0)
    for case, (recon, fid, rep) in results:
        assert TomoClosure.closure_ok(case, recon, fid, rep)
        assert not TomoClosure.closure_ok(case, recon, 0.5 * fid, rep)
        truth = case[0]
        frob = float(np.linalg.norm(recon.data - truth.data))
        if abs(pt_spectrum(truth.data)[0]) > frob + 1e-8:
            flipped = type(rep)(rep.min_pt_eigenvalue, rep.negativity, not rep.entangled)
            assert not TomoClosure.closure_ok(case, recon, fid, flipped)


def test_refuses_to_run_without_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_bisect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
