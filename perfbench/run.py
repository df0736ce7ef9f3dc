"""fqdist benchmark: time fresh CLI processes on seeded workloads and check them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

With --trace 0 the benchmark spawns the CLI again and again for S seconds, one
process at a time, and reports medians of wall_s, solve_s and peak_rss_mb plus
setup_s, the median start-up time of a fresh interpreter importing fqdist.cli.
The three times are scaled to a reference host speed (see CALIBRATION); the
raw medians are printed beside them.  With --trace 1 it alternates untraced
and traced processes (see spans.py) and reports per-layer self times and exact
work counts instead.  Every report is checked: the exit code, every check in
it, agreement between repeated runs and, where one is committed, the reference
report for the seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The metrics and their units are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"

MIN_SETUP_SPAWNS = 9
MIN_PLAIN_RUNS = 5
MIN_TRACED_RUNS = 2


@dataclass(frozen=True)
class Workload:
    """One CLI request; files maps a CLI flag to a seeded point set (q, size)."""

    args: tuple[str, ...]
    files: tuple[tuple[str, int, int], ...] = ()
    seed_panel: str | None = None


# Work per run must not depend on the seed.  The energy suite's generator
# draws 200-2000 points per set, which moves the rotation scan's cost by 5x
# between seeds, so its sets come from files of fixed size; the lemmas suite
# draws set densities from its seed, so its CLI seed comes from a panel of
# work-matched seeds (see make_lemmas_seeds.py).
WORKLOADS = {
    "energy-q11": Workload(
        ("--suite", "energy", "--q", "11"),
        files=(("--e-file", 11, 1200), ("--f-file", 11, 900))),
    "lemmas-q23": Workload(
        ("--suite", "lemmas", "--q", "23", "--instances", "1"),
        seed_panel="lemmas_seeds.json"),
    "coverage-q17-nearfull": Workload(
        ("--suite", "coverage", "--q", "17", "--generator", "near-full",
         "--instances", "6", "--oracle-instances", "10")),
    "coverage-file-q23": Workload(
        ("--suite", "coverage", "--q", "23"),
        files=(("--e-file", 23, 140_000), ("--f-file", 23, 84_000))),
}

# The span each workload's traced run must record, to show the wrappers catch it.
EXPECTED_SPANS = {
    "energy-q11": "rotation_energy.energy_chain_check",
    "lemmas-q23": "fourier.forward_transform_direct",
    "coverage-q17-nearfull": "pair_spectrum.pair_spectrum_naive",
    "coverage-file-q23": "geometry.load_point_set",
}


def write_point_set(path: Path, q: int, size: int, rng: np.random.Generator) -> None:
    """A seeded subset of F_q^4 in fqdist's point-set file format, sorted."""
    codes = np.sort(rng.choice(q**4, size=size, replace=False))
    coords = np.stack([(codes // q**p) % q for p in (3, 2, 1, 0)], axis=1)
    with open(path, "w") as fh:
        fh.write(f"# seeded benchmark input, {size} points\nq={q} dims=4 split=2,2\n")
        np.savetxt(fh, coords, fmt="%d", delimiter=",")


def cli_arguments(name: str, seed: int, workdir: Path) -> list[str]:
    """The CLI argument list for a workload, writing its input files first."""
    work = WORKLOADS[name]
    cli_seed = seed
    if work.seed_panel is not None:
        panel = json.loads((HERE / work.seed_panel).read_text())["seeds"]
        cli_seed = panel[seed % len(panel)]
    args = [*work.args, "--seed", str(cli_seed)]
    for tag, (flag, q, size) in enumerate(work.files):
        path = workdir / f"{name}-{flag.strip('-')}.txt"
        write_point_set(path, q, size, np.random.default_rng([seed & (2**64 - 1), tag]))
        args += [flag, str(path)]
    return args


# One BLAS/OpenMP thread per CLI process.  With more, the threaded sections
# spin on the machine's other core and stall whenever it is busy, which doubles
# CPU use without shortening runs and makes their times follow the load of the
# rest of the machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def timed_run(cmd: list[str], timeout: float, **popen_args) -> tuple[int, str, float]:
    """Run cmd to its end; returns its exit code, its stderr and the wall seconds.

    The wait blocks until the process exits and a timer kills it after timeout
    seconds.  subprocess's own timeout polls the process in steps of up to
    50 ms, which would round every time up to the next step.
    """
    start = time.perf_counter()
    with subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True, **popen_args) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, stderr = proc.communicate()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    return proc.returncode, stderr, wall_s


def invoke(cli_args: list[str], mode: str, workdir: Path, env: dict) -> dict:
    """Spawn one CLI process; returns its record plus wall_s and the parsed report."""
    record_path = workdir / "record.json"
    out_path = workdir / "report.json"
    record_path.unlink(missing_ok=True)
    with open(out_path, "w") as out:
        returncode, stderr, wall_s = timed_run(
            [sys.executable, str(HERE / "child.py"), str(record_path), mode, "--", *cli_args],
            170, stdout=out, env=env)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    record.update(wall_s=wall_s, returncode=returncode, stderr=stderr[-2000:])
    try:
        record["report"] = json.loads(out_path.read_text())
    except ValueError:
        record["report"] = None
    return record


def report_diffs(ref, got, path: tuple = ()) -> int:
    """Number of report fields that differ, duration_ms and input paths aside.

    Ints, strings and bools must match exactly; floats to a relative 1e-9.
    """
    if path in (("duration_ms",), ("config", "e_file"), ("config", "f_file")):
        return 0
    if isinstance(ref, dict) and isinstance(got, dict):
        return sum(report_diffs(ref.get(k), got.get(k), path + (k,))
                   for k in ref.keys() | got.keys())
    if isinstance(ref, list) and isinstance(got, list):
        return (sum(report_diffs(a, b, path + (i,)) for i, (a, b) in enumerate(zip(ref, got)))
                + abs(len(ref) - len(got)))
    if type(ref) is not type(got):
        return 1
    if isinstance(ref, float):
        return 0 if ref == got or abs(ref - got) <= 1e-9 * max(abs(ref), abs(got)) else 1
    return 0 if ref == got else 1


def reference_report(name: str, seed: int):
    path = REFERENCES / f"{name}-seed{seed}.json"
    return json.loads(path.read_text()) if path.exists() else None


class Checker:
    """Tallies checks attempted and failed, and the diffs against references."""

    def __init__(self, reference):
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.diffs = 0
        self.problems: list[str] = []

    def add(self, record: dict) -> None:
        report = record["report"]
        valid = isinstance(report, dict) and isinstance(report.get("checks"), list)
        if valid:
            if self.first is None:
                self.first = report
            elif changed := report_diffs(self.first, report):
                self.problems.append(f"{changed} fields differ between repeated runs")
            if self.reference is not None:
                self.diffs += report_diffs(self.reference, report)
        count = len(report["checks"]) if valid else len(self.first["checks"]) if self.first else 1
        self.attempted += count
        if record["returncode"] == 0 and valid:
            self.failed += sum(not c["pass"] for c in report["checks"])
        else:
            self.failed += count
            self.problems.append(f"exit {record['returncode']}: {record['stderr'].strip()[-300:]}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.diffs == 0 and not self.problems


def time_spawn(code: str, env: dict) -> float:
    """Wall seconds for a fresh interpreter to run code and exit."""
    cmd = [sys.executable, "-c", code]
    returncode, stderr, wall_s = timed_run(cmd, 60, env=env)
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, cmd, stderr=stderr)
    return wall_s


SETUP = "import fqdist.cli"

# The shared host changes speed for minutes at a time: while its other tenants
# idle, every process here runs up to 30% faster.  Ten runs that straddle such
# a change spread by more than a regression bound, whatever statistic each run
# reports.  So every run also times a fresh interpreter importing numpy, a
# fixed start-up of the same kind as the CLI's that no change to fqdist can
# move, and scales its times by CALIBRATION_REF_S over the run's median
# calibration sample.  The times are then seconds at the host speed at which numpy imports
# in CALIBRATION_REF_S, its usual median on the 2-vCPU 2.1 GHz Xeon this
# benchmark was written on.  In fast spells the import sped up by the same
# share as the CLI's wall and solve times.  One import is too short to average
# over the host's second-to-second changes as a CLI run does, so each sample
# is the mean of CALIBRATION_SPAWNS imports in a row.
CALIBRATION = "import numpy"
CALIBRATION_REF_S = 0.2
CALIBRATION_SPAWNS = 3
SCALED = ("wall_s", "solve_s", "setup_s")


def time_calibration(env: dict) -> float:
    return sum(time_spawn(CALIBRATION, env) for _ in range(CALIBRATION_SPAWNS)) / CALIBRATION_SPAWNS


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"median={median(values):.6g} n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return (f"median={median(values):.6g} p25={q1:.6g} p75={q3:.6g} "
            f"max={max(values):.6g} n={len(values)}")


def run_plain(name, seconds, cli_args, workdir, env, checker) -> dict[str, list[float]]:
    """CLI runs for the given seconds; a calibration and a set-up spawn precede
    each, so that all three sample the same stretch of time."""
    samples: dict[str, list[float]] = {
        "wall_s": [], "solve_s": [], "peak_rss_mb": [], "setup_s": [], "calibration_s": []}
    start = time.perf_counter()
    # Warm-up, checked but not timed: bytecode caches and the page cache.
    time_spawn(CALIBRATION, env)
    time_spawn(SETUP, env)
    checker.add(invoke(cli_args, "plain", workdir, env))
    while True:
        samples["calibration_s"].append(time_calibration(env))
        samples["setup_s"].append(time_spawn(SETUP, env))
        record = invoke(cli_args, "plain", workdir, env)
        checker.add(record)
        if "solve_s" in record:
            samples["wall_s"].append(record["wall_s"])
            samples["solve_s"].append(record["solve_s"])
            samples["peak_rss_mb"].append(record["peak_rss_kb"] / 1024)
        elapsed = time.perf_counter() - start
        runs = len(samples["wall_s"])
        if runs >= MIN_PLAIN_RUNS and elapsed + elapsed / runs > seconds:
            break
        if record["returncode"] != 0 and runs == 0:
            break
    while len(samples["setup_s"]) < MIN_SETUP_SPAWNS:
        samples["calibration_s"].append(time_calibration(env))
        samples["setup_s"].append(time_spawn(SETUP, env))
    return samples


def run_traced(name, seconds, cli_args, workdir, env, checker) -> dict[str, list[float]]:
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        plain = invoke(cli_args, "plain", workdir, env)
        checker.add(plain)
        record = invoke(cli_args, "trace", workdir, env)
        checker.add(record)
        if "solve_s" not in plain or "self_s" not in record:
            break
        untraced.append(plain["solve_s"])
        traced.append(record)
        if record["counts"] != traced[0]["counts"]:
            checker.problems.append("exact counts differ between traced runs")
        elapsed = time.perf_counter() - start
        if len(traced) >= MIN_TRACED_RUNS and elapsed + elapsed / len(traced) > seconds:
            break
    if not traced:
        return {}
    if EXPECTED_SPANS[name] + ".calls" not in traced[0]["counts"]:
        checker.problems.append(f"no {EXPECTED_SPANS[name]} span recorded")
    import spans

    metrics = spans.layer_metrics(traced)
    metrics["trace.untraced_solve_s"] = median(untraced)
    metrics["trace.traced_solve_s"] = median(r["solve_s"] for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_solve_s"] - metrics["trace.untraced_solve_s"]
    metrics["trace.counter_s"] = median(r["counter_s"] for r in traced)
    metrics["trace.self_sum_s"] = median(sum(r["self_s"].values()) for r in traced)
    return {key: [value] for key, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps its CLI process and
    # removes its temporary directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "fqdist" / "cli.py").is_file():
        print(f"perfbench: no fqdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    reference = reference_report(args.workload, args.seed)
    checker = Checker(reference)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        cli_args = cli_arguments(args.workload, args.seed, workdir)
        probe = subprocess.run(
            [sys.executable, "-c", "import fqdist; print(fqdist.__file__)"],
            env=env, capture_output=True, text=True, timeout=60)
        if probe.returncode != 0 or not Path(probe.stdout.strip()).is_relative_to(ROOT / "src"):
            print(f"perfbench: fqdist does not import from {ROOT / 'src'}: "
                  f"{probe.stdout.strip()}{probe.stderr.strip()[-300:]}", file=sys.stderr)
            return 2
        run = run_traced if args.trace else run_plain
        samples = run(args.workload, args.seconds, cli_args, workdir, env, checker)

    calibration = samples.get("calibration_s")
    scale = CALIBRATION_REF_S / median(calibration) if calibration else 1.0
    metrics, raw = {}, {}
    for spec in wanted:
        values = samples.get(spec["name"]) or [0.0]
        raw[spec["name"]] = median(values)
        value = raw[spec["name"]] * (scale if spec["name"] in SCALED else 1.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload} {spec['name']} [{spec['unit']}] {value:.6g}"
              + (f" (x{scale:.4f}) raw " if spec["name"] in SCALED and calibration else " ")
              + summary(values))
    if calibration:
        raw["calibration_s"] = median(calibration)
        print(f"{args.workload} calibration_s [s] {summary(calibration)}")
        print(f"{args.workload} raw medians {json.dumps(raw)}")
    fail_share = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"{args.workload} fail_share [ratio] {fail_share:.6g} "
          f"({checker.failed}/{checker.attempted} checks)")
    print(f"{args.workload} report_diffs [count] "
          + (str(checker.diffs) if reference is not None else f"unchecked (no reference for seed {args.seed})"))
    for problem in checker.problems:
        print(f"{args.workload} problem: {problem}")
    print(json.dumps({"correct": checker.correct, "attempted": max(1, checker.attempted),
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
