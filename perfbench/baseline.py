"""Record the baseline: repeated runs of every workload, summarised.

    python3 perfbench/baseline.py

Runs ``perfbench/run.py`` as BENCHMARK.json's ``command`` does, one
workload at a time: untraced on seeds 1-10 (the first set), untraced
again on seeds 11-20 (the second set, to show that two sets of runs of
the same code agree) and traced on seeds 1-5.  For every metric it
records the values, the median, the quartiles (as
``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median,
for the second set too.  It also records the unscaled figures each run
prints to stderr, the tracing overhead of each workload (the traced
run's throughput over the untraced median) and the machine the runs
used.  The result goes to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")

FIRST_SEEDS = range(1, 11)
SECOND_SEEDS = range(11, 21)
TRACED_SEEDS = range(1, 6)

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_in_effect": _openblas_threads(np),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def _openblas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict]:
    """The run's result line and its unscaled figures."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    unscaled = json.loads(proc.stderr.strip().splitlines()[-1].removeprefix("unscaled "))
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                     if k in ("scaled_throughput", "setup_s", "peak_rss_mb",
                              "traced.scaled_throughput"))
          + " unscaled " + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()),
          flush=True)
    return result, unscaled


def summarise_sets(first: list[float], second: list[float]) -> dict:
    entry = summarise(first)
    entry["second_set"] = summarise(second)
    entry["second_over_first"] = entry["second_set"]["median"] / entry["median"]
    return entry


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    command = [sys.executable if c == "python3" else c for c in bench["command"]]
    seconds = bench["run_seconds"]

    report = {"machine": machine_info(), "run_seconds": seconds,
              "seeds": {"first_set": list(FIRST_SEEDS), "second_set": list(SECOND_SEEDS),
                        "traced": list(TRACED_SEEDS)},
              "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        first = [run_once(command, name, s, seconds, 0) for s in FIRST_SEEDS]
        second = [run_once(command, name, s, seconds, 0) for s in SECOND_SEEDS]
        traced = [run_once(command, name, s, seconds, 1) for s in TRACED_SEEDS]
        results = [r for r, _ in first + second + traced]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m["name"]: summarise_sets(
                    [r["metrics"][m["name"]]["value"] for r, _ in first],
                    [r["metrics"][m["name"]]["value"] for r, _ in second])
                for m in bench["end_to_end"]
            },
            "unscaled": {
                key: summarise_sets([u[key] for _, u in first], [u[key] for _, u in second])
                for key in ("throughput", "setup_s")
            },
            "per_layer": {
                m["name"]: summarise([r["metrics"][m["name"]]["value"] for r, _ in traced])
                for m in bench["per_layer"]
            },
        }
        entry["unscaled"]["traced_throughput"] = summarise([u["throughput"] for _, u in traced])
        entry["tracing_overhead"] = (
            entry["per_layer"]["traced.scaled_throughput"]["median"]
            / entry["end_to_end"]["scaled_throughput"]["median"]
        )
        report["workloads"][name] = entry
        for key, e in entry["end_to_end"].items():
            print(f"{name} {key}: spreads {e['spread']:.4f} / {e['second_set']['spread']:.4f}, "
                  f"second over first {e['second_over_first']:.4f}", flush=True)

    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
