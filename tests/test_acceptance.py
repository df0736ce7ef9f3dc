"""Acceptance gate: fixed-seed CLI runs checked criterion by criterion.

Every criterion below runs through the installed command-line interface with
pinned seeds, parses the JSON report, and asserts the relevant checks at
their stated tolerances, including wall-clock ceilings.  One test per
criterion; each prints a single PASS line when it holds.
"""

import json
import subprocess
import sys
import time
from itertools import product

import pytest

pytestmark = pytest.mark.acceptance

# Label -> CLI arguments.  Seeds are fixed; reports are deterministic.
INVOCATIONS = {
    "L3": ["--q", "3", "--suite", "lemmas", "--seed", "101", "--instances", "25"],
    "L7": ["--q", "7", "--suite", "lemmas", "--seed", "102", "--instances", "100"],
    "L11": ["--q", "11", "--suite", "lemmas", "--seed", "103", "--instances", "100"],
    "L19": ["--q", "19", "--suite", "lemmas", "--seed", "104", "--instances", "25"],
    "L23": ["--q", "23", "--suite", "lemmas", "--seed", "105", "--instances", "25"],
    "C722": ["--q", "7", "--k", "2", "--l", "2", "--suite", "coverage",
             "--seed", "201", "--instances", "100", "--oracle-instances", "50"],
    "C1122": ["--q", "11", "--k", "2", "--l", "2", "--suite", "coverage",
              "--seed", "202", "--instances", "100", "--oracle-instances", "50"],
    "C723": ["--q", "7", "--k", "2", "--l", "3", "--suite", "coverage",
             "--seed", "203", "--instances", "100", "--oracle-instances", "50"],
    "C17": ["--q", "17", "--k", "2", "--l", "2", "--suite", "coverage",
            "--generator", "near-full", "--seed", "204", "--instances", "200",
            "--oracle-instances", "50"],
    "E7": ["--q", "7", "--suite", "energy", "--seed", "301", "--instances", "50"],
    "E11": ["--q", "11", "--suite", "energy", "--seed", "302", "--instances", "50"],
    "S3": ["--q", "3", "--suite", "sharpness", "--seed", "401", "--instances", "20"],
    "S7": ["--q", "7", "--suite", "sharpness", "--seed", "402", "--instances", "20"],
    "S11": ["--q", "11", "--suite", "sharpness", "--seed", "403", "--instances", "20"],
    "S733": ["--q", "7", "--k", "3", "--l", "3", "--suite", "sharpness",
             "--seed", "404", "--instances", "20", "--budget", "2000"],
}


@pytest.fixture(scope="module")
def runs():
    """Run every invocation once; map label -> (exit code, report, seconds)."""
    results = {}
    for label, args in INVOCATIONS.items():
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fqdist.cli", *args],
            capture_output=True, text=True, timeout=900,
        )
        wall = time.perf_counter() - start
        assert proc.returncode == 0, (
            f"{label} exited {proc.returncode}\nstderr: {proc.stderr}\n"
            f"stdout tail: {proc.stdout[-2000:]}"
        )
        results[label] = (proc.returncode, json.loads(proc.stdout), wall)
    return results


def _check(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c
    raise AssertionError(f"check {name!r} missing from {report['suite']} report")


def _ok(report, name):
    c = _check(report, name)
    assert c["pass"], f"{name} failed: {json.dumps(c['payload'])[:500]}"
    return c


def test_00_all_invocations_exit_zero(runs):
    total = sum(wall for _, _, wall in runs.values())
    for label, (code, report, _) in runs.items():
        assert code == 0
        assert report["all_pass"] is True, label
    print(f"ACCEPTANCE 00 fixed-seed CLI exit codes all zero "
          f"({len(runs)} runs, {total:.1f}s total): PASS")


def test_01_sphere_transform_decay(runs):
    wall = 0.0
    for label in ("L3", "L7", "L11", "L19"):
        _, report, seconds = runs[label]
        wall += seconds
        for d in (2, 3, 4):
            c = _ok(report, f"sphere-decay d={d}")
            assert c["payload"]["max_ratio"] <= 1 + 1e-9
    assert wall < 120, f"decay-bearing runs took {wall:.1f}s, cap 120s"
    print(f"ACCEPTANCE 01 sphere transform decay <= 2q^-(d+1)/2, "
          f"q in (3,7,11,19), d in (2,3,4), {wall:.1f}s < 120s: PASS")


def test_02_sphere_count_law(runs):
    wall = 0.0
    for label in ("L3", "L7", "L11", "L19"):
        _, report, seconds = runs[label]
        wall += seconds
        for d in (2, 3, 4):
            c = _ok(report, f"sphere-count-law d={d}")
            assert c["payload"]["max_abs_deviation"] <= c["payload"]["allowance"]
    assert wall < 60, f"count-law-bearing runs took {wall:.1f}s, cap 60s"
    print(f"ACCEPTANCE 02 sphere counts within 2q^(d-2) of q^(d-1), "
          f"exact integers, {wall:.1f}s < 60s: PASS")


def test_03_discrepancy_certificate(runs):
    wall = 0.0
    for label in ("C722", "C1122", "C723"):
        _, report, seconds = runs[label]
        wall += seconds
        c = _ok(report, "discrepancy")
        assert c["payload"]["instances"] == 100
        assert c["payload"]["max_error_over_budget"] <= 1 + 1e-6
    assert wall < 600, f"discrepancy runs took {wall:.1f}s, cap 600s"
    print(f"ACCEPTANCE 03 three-term error budget on every cell, 100 seeded "
          f"pairs per config (7,2,2),(11,2,2),(7,2,3), {wall:.1f}s < 600s: PASS")


def test_04_surjectivity_at_threshold_q17(runs):
    code, report, wall = runs["C17"]
    c = _ok(report, "surjectivity-above-threshold")
    assert c["payload"]["threshold"] == 16 * 17**7
    assert c["payload"]["instances"] == 201  # full space + 200 deletions
    assert c["payload"]["min_size"] ** 2 > 16 * 17**7
    assert wall < 300, f"q=17 run took {wall:.1f}s, cap 300s"
    print(f"ACCEPTANCE 04 all 289 pairs achieved for |E|^2 > 16*17^7 "
          f"(full space + 200 near-full deletions, transform route), "
          f"{wall:.1f}s < 300s: PASS")


def test_05_orthogonal_circles_exact(runs):
    for label, q in (("S3", 3), ("S7", 7), ("S11", 11)):
        _, report, _ = runs[label]
        c = _ok(report, "orthogonal-circles")
        assert c["payload"]["coverage"] == 1
    print("ACCEPTANCE 05 orthogonal circles realize exactly {(1,1)} "
          "for q in (3,7,11): PASS")


def test_06_rotation_energy_chain(runs):
    wall = 0.0
    for label, q in (("E7", 7), ("E11", 11)):
        _, report, seconds = runs[label]
        wall += seconds
        for name in ("energy-chain", "zero-frequency-term", "frequency-split",
                     "orbit-weight-identity"):
            c = _ok(report, name)
            if "instances" in c["payload"]:
                assert c["payload"]["instances"] == 50
        c = _ok(report, "correlation-transform")
        assert c["payload"]["max_deviation"] < 1e-8
        # Exact integer form of the zero-frequency term on a single point:
        # the right-hand side is exactly |SO2|^2 = (q+1)^2.
        c = _ok(report, "single-point-identity")
        assert c["payload"]["rhs"] == (q + 1) ** 2
        assert c["payload"]["lhs"] == 1
    assert wall < 900, f"energy runs took {wall:.1f}s, cap 900s"
    print(f"ACCEPTANCE 06 energy chain exact on 50 pairs per q in (7,11), "
          f"zero term (q+1)^2 |E|^2 |F|^2 / q^4, transform deviation < 1e-8, "
          f"{wall:.1f}s < 900s: PASS")


def test_07_circle_additive_energy(runs):
    for label in ("L3", "L7", "L11", "L19", "L23"):
        _, report, _ = runs[label]
        c = _ok(report, "circle-energy")
        assert c["payload"]["max_energy_over_bound"] <= 1.0
    # Independent route: literal quadruple enumeration at q=3, a=1.
    pts = [(0, 1), (0, 2), (1, 0), (2, 0)]
    brute = sum(
        1 for u, v, up, vp in product(pts, repeat=4)
        if (u[0] + v[0] - up[0] - vp[0]) % 3 == 0
        and (u[1] + v[1] - up[1] - vp[1]) % 3 == 0
    )
    rows = _check(runs["L3"][1], "circle-energy")["payload"]["rows"]
    row = next(r for r in rows if r[1] == 1)
    assert brute == 36 == row[3]
    print("ACCEPTANCE 07 circle energy <= 3|S_a|^2 for q in (3,7,11,19,23), "
          "q=3 a=1 re-derived by quadruple brute force = 36: PASS")


def test_08_spectral_mass_lemmas(runs):
    for label in ("L7", "L11"):
        _, report, _ = runs[label]
        c = _ok(report, "marginal-mass")
        assert c["payload"]["saturated"] is True
        assert c["payload"]["instances"] == 100
        c = _ok(report, "sphere-restricted-mass")
        assert c["payload"]["instances"] == 100
        assert c["payload"]["max_value_over_bound"] <= 1 + 1e-9
    print("ACCEPTANCE 08 marginal mass exact + saturated by a full fiber; "
          "sphere-restricted mass on 100 sets per q in (7,11): PASS")


def test_09_sharpness_product_and_strip(runs):
    for label in ("S7", "S733"):
        _, report, _ = runs[label]
        c = _ok(report, "product-law")
        assert c["payload"]["instances"] == 20
    for label, q in (("S7", 7), ("S11", 11)):
        _, report, _ = runs[label]
        c = _ok(report, "plane-strip")
        assert c["payload"]["lengths"] == list(range(1, q + 1))
    _ok(runs["S733"][1], "missing-distance-product")
    print("ACCEPTANCE 09 product law exact for 20 factors per (q,k) in "
          "((7,2),(7,3)); strip coverage q*|distance set| for every length, "
          "q in (7,11): PASS")


def test_10_route_agreement(runs):
    total = 0
    for label in ("C722", "C1122", "C723", "C17"):
        _, report, _ = runs[label]
        c = _ok(report, "route-agreement")
        total += c["payload"]["instances"]
        _ok(report, "quadruple-count")
    assert total == 200
    print("ACCEPTANCE 10 transform route identical to the literal scan on "
          "200 seeded instances; energy equals octuple brute force on all "
          "tiny instances: PASS")
