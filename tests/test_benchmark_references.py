"""The benchmark's seed-0 requests still print their committed reference reports.

perfbench compares every report it times against
perfbench/references/<workload>-seed0.json, floats to a relative 1e-9.  These
tests make the same CLI request for each workload that BENCHMARK.json declares,
through the benchmark's own child process and thread settings, so a float that
drifts past the reference tolerance fails here first.  Each request runs once
plain and once traced, so a renamed class, function or argument that
perfbench/spans.py wraps fails here too.  One more test pins how spans.py
nests the spans of the two set constructors.  They read perfbench and change
nothing under it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module; it imports its sibling spans.py by name."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("name", DECLARED)
def test_seed0_request_matches_reference(bench, name, tmp_path):
    reference = bench.reference_report(name, 0)
    assert reference is not None, f"no committed reference for {name} at seed 0"
    args = bench.cli_arguments(name, 0, tmp_path)
    for mode in ("plain", "trace"):
        record = bench.invoke(args, mode, tmp_path, bench.child_env())
        assert record["returncode"] == 0, (mode, record["stderr"])
        assert bench.report_diffs(reference, record["report"]) == 0, mode
    assert bench.EXPECTED_SPANS[name] + ".calls" in record["counts"]


def test_a_split_set_span_nests_one_point_set_span():
    # perfbench/spans.py wraps PointSet.__init__ and SplitPointSet.__init__.
    # A split set is a PointSet, so its span holds exactly one PointSet span,
    # and a plain PointSet records no split-set span.  Installed in a child
    # process, since install rebinds fqdist's callables for good.
    script = """
import json
import spans
from fqdist.field import make_field
from fqdist.geometry import PointSet
from fqdist.pair_spectrum import SplitPointSet
field = make_field(3)
tracer = spans.Tracer("sets")
spans.install(tracer)
PointSet(field, 4, [0, 5])
plain = len(tracer.spans)
SplitPointSet(field, 2, 2, [0, 5])
print(json.dumps([tracer.spans[:plain], tracer.spans[plain:]]))
"""
    path = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    plain, split = json.loads(proc.stdout)
    assert [span["name"] for span in plain] == ["geometry.PointSet"]
    assert [span["name"] for span in split] == ["pair_spectrum.SplitPointSet", "geometry.PointSet"]
    assert split[1]["parent"] == split[0]["id"]
