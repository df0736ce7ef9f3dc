"""Self-tests of the benchmark; run from the root of a checkout with

    PYTHONPATH=src python3 -m pytest -q perfbench

They spawn the CLI a few times per workload, about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_runs_catch_calls_repeat_counts_and_keep_the_report(name, tmp_path):
    env = run.child_env()
    args = run.cli_arguments(name, 5, tmp_path)
    plain = run.invoke(args, "plain", tmp_path, env)
    first = run.invoke(args, "trace", tmp_path, env)
    second = run.invoke(args, "trace", tmp_path, env)
    for record in (plain, first, second):
        assert record["returncode"] == 0, record["stderr"]
        assert record["report"]["all_pass"]
    names = {span["name"] for span in first["spans"]}
    assert run.EXPECTED_SPANS[name] in names
    assert "cli.main" in names
    assert run.report_diffs(plain["report"], first["report"]) == 0
    assert first["counts"] == second["counts"]
    assert sum(first["self_s"].values()) <= first["solve_s"]


def test_declared_layer_metrics_name_wrapped_spans():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tracer = spans.Tracer("names")
    installed = set(spans.install(tracer))
    for metric in declared:
        name = metric["name"]
        if name.startswith("trace.") or name.endswith(".errors") \
                or name == "pair_spectrum.route_fast_share":
            continue
        assert name.rsplit(".", 1)[0] in installed, name


def test_report_diffs_counts_fields():
    ref = {"duration_ms": 5, "config": {"e_file": "/a", "q": 7},
           "checks": [{"pass": True, "payload": {"x": 1.0, "n": 3, "s": "1/3"}}]}
    same = {"duration_ms": 9, "config": {"e_file": "/b", "q": 7},
            "checks": [{"pass": True, "payload": {"x": 1.0 + 1e-12, "n": 3, "s": "1/3"}}]}
    assert run.report_diffs(ref, same) == 0
    other = {"duration_ms": 5, "config": {"e_file": "/a", "q": 7.0},
             "checks": [{"pass": 1, "payload": {"x": 1.001, "n": 4, "s": "2/3"}}, {}]}
    assert run.report_diffs(ref, other) == 6


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "energy-q11",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
