"""Run every workload over several seeds and write a run record.

Usage, from the root of a checkout:

    python3 perfbench/record.py OUT.json SEED...

For each workload BENCHMARK.json declares: one untraced benchmark run per
seed, then one traced run at the first seed.  The record holds each end-to-end
metric's values, median, quartiles and spread (interquartile distance over
median, beside the bound from BENCHMARK.json), the same for the unscaled times
and the calibration, the share of traced solve time spent in the layers each
workload was chosen for, and the machine the runs were made on.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import run

# Layers each workload was chosen to stress, as sums of per-layer self times.
CHOSEN_LAYERS = {
    "energy-q11": {
        "rotation scan": ["rotation_energy.energy_chain_check.self_s"],
    },
    "lemmas-q23": {
        "set construction": ["geometry.PointSet.self_s", "pair_spectrum.SplitPointSet.self_s"],
        "transforms": ["fourier.forward_transform.self_s", "fourier.inverse_transform.self_s"],
    },
    "coverage-q17-nearfull": {
        "set construction": ["geometry.PointSet.self_s", "pair_spectrum.SplitPointSet.self_s"],
        "transforms": ["fourier.forward_transform.self_s", "fourier.inverse_transform.self_s"],
        "pair_spectrum": ["pair_spectrum.pair_spectrum_fast.self_s",
                          "pair_spectrum.pair_spectrum_naive.self_s",
                          "pair_spectrum.discrepancy_report.self_s",
                          "pair_spectrum.surjectivity_check.self_s"],
    },
    "coverage-file-q23": {
        "file parsing": ["geometry.load_point_set.self_s"],
    },
}


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def child_blas_threads() -> int | None:
    """blas_threads() as the CLI processes see it, under run.child_env()."""
    env = run.child_env()
    env["PYTHONPATH"] = str(run.HERE) + os.pathsep + env["PYTHONPATH"]
    proc = subprocess.run([sys.executable, "-c", "import record; print(record.blas_threads())"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().replace("None", "null"))


def machine() -> dict:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": child_blas_threads(),
        "platform": platform.platform(),
        "commit": commit.stdout.strip() if commit.returncode == 0 else None,
    }


def bench(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    marker = f"{name} raw medians "
    result["raw"] = next((json.loads(line[len(marker):]) for line in lines
                          if line.startswith(marker)), {})
    return result


def spread_entry(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid, "values": values}


def main(out: Path, seeds: list[int]) -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    record = {"machine": machine(), "loadavg_before": os.getloadavg(),
              "run_seconds": declared["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in declared["workloads"]):
        results = [bench(name, seed, declared["run_seconds"], 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        for metric, bound in bounds.items():
            entry["end_to_end"][metric] = {
                "unit": results[0]["metrics"][metric]["unit"], "bound": bound,
                **spread_entry([r["metrics"][metric]["value"] for r in results])}
        # The unscaled medians and the calibration (see run.CALIBRATION).
        entry["raw"] = {metric: spread_entry([r["raw"][metric] for r in results])
                        for metric in (*run.SCALED, "calibration_s")}
        traced = bench(name, seeds[0], declared["run_seconds"], 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        total = layers["trace.self_sum_s"]
        entry["traced_correct"] = traced["correct"]
        entry["trace"] = {k: v for k, v in layers.items() if k.startswith("trace.")}
        entry["layer_share"] = {
            label: sum(layers[m] for m in metrics) / total
            for label, metrics in CHOSEN_LAYERS[name].items()}
        record["workloads"][name] = entry
        print(f"== {name}: correct={entry['correct'] and entry['traced_correct']} "
              + " ".join(f"{m}={e['median']:.4g} (spread {e['spread']:.3f}, bound {e['bound']})"
                         for m, e in entry["end_to_end"].items())
              + " raw " + " ".join(f"{m}={e['median']:.4g} (spread {e['spread']:.3f})"
                                   for m, e in entry["raw"].items())
              + " shares " + " ".join(f"{k}={v:.2f}" for k, v in entry["layer_share"].items()),
              flush=True)
    record["loadavg_after"] = os.getloadavg()
    out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]), [int(s) for s in sys.argv[2:]])
