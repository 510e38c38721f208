"""qcool benchmark: one workload in one process, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports qcool from
its ``src`` directory and refuses any other copy.  It builds the
workload's inputs from --seed, runs rounds of the workload back to back
until S seconds of rounds have been measured, checks every round's
outputs, and prints one JSON object as the last line of standard output.
With --trace 0 that object holds the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run (see spans.py).  The times in it
are scaled to a reference speed (see reference.py); the last line of
standard error, ``unscaled {...}``, gives the same figures unscaled.
Scratch files go to ``.perfbench_out`` in the checkout and are removed
at exit, except the traced run's span file
``.perfbench_out/trace-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import reference  # noqa: E402  (a sibling module of this script)

#: Fresh processes started per untraced run to time set-up; setup_s is
#: their median.
SETUP_PROBES = 5

#: Share of a round's time spent after it on repeated reference kernel
#: runs (at least one), so that long rounds get a steadier speed estimate.
KERNEL_SHARE = 0.05

END_TO_END_UNITS = {"scaled_throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_workload(name: str, seed: int, workdir: str):
    """Import qcool from this checkout and build the workload's inputs."""
    sys.path.insert(0, SRC)
    import qcool

    if not os.path.abspath(qcool.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qcool imported from {qcool.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir)


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median wall time from starting a fresh interpreter to qcool imported
    and the workload's inputs built, scaled by the `arrays` kernel, which
    tracks the machine's drift in start-up time best; and unscaled."""
    times, raw_times = [], []
    before = reference.slowness("arrays")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        after = reference.slowness("arrays")
        times.append(reference.to_reference(elapsed, before, after))
        raw_times.append(elapsed)
        before = after
    return statistics.median(times), statistics.median(raw_times)


def run_rounds(workload, seconds: float, tracer=None):
    """Run rounds until `seconds` of round time is measured (at least one).

    The workload's reference kernel runs after every round; a round's time
    is scaled by the mean slowness of the kernel runs just before and after
    it.  Returns the per-round scaled and unscaled throughputs, operations
    attempted and failed.
    """
    rates, raw_rates, attempted, failed = [], [], 0, 0
    measured, r = 0.0, 0
    before = reference.slowness(workload.KERNEL)
    while r == 0 or measured < seconds:
        if tracer is not None:
            tracer.begin_round()
        t0 = time.perf_counter()
        try:
            result = workload.run_round(r)
        except Exception:
            result = None
            if failed == 0:
                traceback.print_exc()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_round()
        reps = max(1, round(KERNEL_SHARE * dt / reference.NOMINAL_S[workload.KERNEL]))
        after = reference.slowness(workload.KERNEL, reps)
        scaled_dt = reference.to_reference(dt, before, after)
        before = after
        measured += dt
        attempted += workload.ops_per_round
        if result is None:
            failed += workload.ops_per_round
        else:
            failed += workload.check(result)
            rates.append(workload.work_per_round / scaled_dt)
            raw_rates.append(workload.work_per_round / dt)
        r += 1
    if hasattr(workload, "finish"):
        failed += workload.finish()
    return rates, raw_rates, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("surface_sweep", "oracle_bisect", "pipeline_mc", "tomo_closure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import qcool and build the inputs, then print 'ready'")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", UserWarning)

    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = load_workload(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            from spans import Tracer, per_layer_units

            tracer = Tracer()
            tracer.install()
            try:
                rates, raw_rates, attempted, failed = run_rounds(workload, args.seconds, tracer)
            finally:
                tracer.uninstall()
            rounds = tracer.round_metrics()
            units = per_layer_units()
            values = {
                key: statistics.median(m[key] for m in rounds)
                for key in units if key != "traced.scaled_throughput"
            }
            values["traced.scaled_throughput"] = statistics.median(rates) if rates else 0.0
            tracer.write(os.path.join(OUT, f"trace-{args.workload}.npz"))
            unscaled = {}
        else:
            units = END_TO_END_UNITS
            setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
            rates, raw_rates, attempted, failed = run_rounds(workload, args.seconds)
            unscaled = {"setup_s": raw_setup_s}
            values = {
                "scaled_throughput": statistics.median(rates) if rates else 0.0,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if raw_rates:
        unscaled["throughput"] = statistics.median(raw_rates)
    print("unscaled " + json.dumps(unscaled), file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
