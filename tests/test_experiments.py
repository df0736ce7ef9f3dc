"""Suite orchestration: seeding, generators, reports, and the CLI contract."""

import contextlib
import csv
import dataclasses
import importlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqdist.cli import main as cli_main
from fqdist.errors import SizeGuardError
from fqdist.experiments import (
    _T_ORACLE,
    GENERATORS,
    MAX_SEARCH_SPACE,
    SUITES,
    ExperimentConfig,
    SearchResult,
    _factors,
    generate_set,
    knobs_read,
    run_suite,
    search_missing_distance_set,
    substream,
)
from fqdist.field import enumerate_so2, make_field
from fqdist.geometry import PointSet, save_point_set
from fqdist.pair_spectrum import (
    SplitPointSet,
    achieved_pairs,
    discrepancy_report,
    distance_set,
    pair_spectrum,
)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fqdist.cli", *args],
        capture_output=True, text=True, timeout=600,
    )


def test_substream_reproducible_and_independent():
    a = substream(7, 1, 2, 3).random(5)
    b = substream(7, 1, 2, 3).random(5)
    c = substream(7, 1, 2, 4).random(5)
    d = substream(8, 1, 2, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_generate_set_deterministic():
    cfg = ExperimentConfig(q=7, k=2, l=2, seed=5)
    e1, f1 = generate_set(cfg, 3)
    e2, f2 = generate_set(cfg, 3)
    assert np.array_equal(e1.codes, e2.codes) and np.array_equal(f1.codes, f2.codes)
    # E and F draws differ; different instances differ.
    e4, _ = generate_set(cfg, 4)
    assert not np.array_equal(e1.codes, f1.codes)
    assert not np.array_equal(e1.codes, e4.codes)


def test_generate_set_density_controls_size():
    lo = ExperimentConfig(q=7, seed=1, density=0.1)
    hi = ExperimentConfig(q=7, seed=1, density=0.9)
    assert len(generate_set(hi)[0]) > len(generate_set(lo)[0])


def test_generate_full_and_near_full():
    cfg = ExperimentConfig(q=17, k=2, l=2, generator="full", seed=2)
    full, _ = generate_set(cfg)
    assert len(full) == 17**4
    near = ExperimentConfig(q=17, k=2, l=2, generator="near-full", seed=2)
    e, f = generate_set(near, 0)
    # One deletion set is both halves of the pair: F is E by identity.
    assert f is e
    deleted = 17**4 - len(e)
    assert 1 <= deleted <= 2400
    # Stay above the coverage threshold: |E|^2 > 16 * 17^7.
    assert len(e) ** 2 > 16 * 17**7


def test_generate_circles_occupy_opposite_planes():
    cfg = ExperimentConfig(q=7, k=2, l=2, generator="circles", seed=0)
    e, f = generate_set(cfg)
    assert len(e) == len(f) == 8
    assert np.all(e.second_codes() == 0)
    assert np.all(f.first_codes() == 0)


def test_generate_strip_product_shape():
    cfg = ExperimentConfig(q=7, k=2, l=2, generator="strip", strip_len=3, seed=0)
    e, _ = generate_set(cfg)
    assert len(e) == 49 * 3


def _strip_product_law(q, length):
    """The strip generator's factors, its achieved pairs, and the product law for them."""
    cfg = ExperimentConfig(q=q, generator="strip", strip_len=length)
    (plane, strip), factors_f = _factors(cfg, make_field(q), 0)
    assert factors_f == (plane, strip)
    e, _ = generate_set(cfg)
    assert np.array_equal(e.codes, SplitPointSet.product(plane, strip).codes)
    assert strip.points() == [(i, 0) for i in range(length)]
    pairs = achieved_pairs(pair_spectrum(e, e))
    law = {(s, t) for s in distance_set(plane) for t in distance_set(strip)}
    return distance_set(strip), pairs, law


def test_strip_product_law_frozen():
    for q, length, coverage in ((7, 1, 7), (7, 3, 21), (7, 7, 28), (11, 4, 44)):
        strip_distances, pairs, law = _strip_product_law(q, length)
        assert pairs == law
        assert len(pairs) == coverage == q * len(strip_distances)


def test_strip_full_width_still_misses_nonsquares():
    # Axis differences have square norms only, so even the full-width strip
    # realizes just (number of squares) * q pairs, never all q^2.
    strip_distances, pairs, law = _strip_product_law(7, 7)
    assert sorted(strip_distances) == [0, 1, 2, 4]
    assert sorted(_strip_product_law(7, 3)[0]) == [0, 1, 4]
    assert pairs == law and len(pairs) == 28 < 7 * 7
    assert {b for _, b in pairs} == {0, 1, 2, 4}


def test_strip_and_circles_need_the_plane_pair_split():
    for generator in ("strip", "circles"):
        for k, l in ((3, 3), (2, 3), (1, 2)):
            cfg = ExperimentConfig(q=7, k=k, l=l, generator=generator)
            with pytest.raises(ValueError, match="plane-pair split k = l = 2"):
                generate_set(cfg)
    p = _cli("--q", "7", "--k", "3", "--l", "3", "--suite", "coverage", "--generator", "strip",
             "--instances", "1", "--oracle-instances", "1", "--seed", "1")
    assert p.returncode == 2
    assert "strip generator needs the plane-pair split" in p.stderr and p.stdout == ""
    with pytest.raises(ValueError, match="strip length"):
        ExperimentConfig(q=7, generator="strip", strip_len=0)
    # The sharpness suite checks the strip only at q = 3 mod 4.
    checks = {c.name: c for c in run_suite(ExperimentConfig(q=5, suite="sharpness",
                                                             instances=1)).checks}
    assert checks["plane-strip"].payload == {
        "skipped": True, "reason": "needs k = l = 2 and q = 3 mod 4"}


def test_product_generators_build_e_and_f_from_their_factors():
    for generator in GENERATORS:
        # near-full needs q = 17, the smallest q whose coverage threshold is reachable.
        cfg = ExperimentConfig(q=17 if generator == "near-full" else 7,
                               k=3 if generator == "sharp-product" else 2, l=2,
                               generator=generator, seed=3, budget=200)
        e, f = generate_set(cfg, 1)
        assert (f is e) == (generator not in ("bernoulli", "circles")), generator
        if generator in ("bernoulli", "near-full"):
            continue
        factors_e, factors_f = _factors(cfg, make_field(7), 1)
        assert (factors_f is factors_e) == (generator != "circles")
        for built, factors in ((e, factors_e), (f, factors_f)):
            assert np.array_equal(built.codes, SplitPointSet.product(*factors).codes)
    full, _ = generate_set(ExperimentConfig(q=7, generator="full"))
    assert np.array_equal(full.codes, SplitPointSet.full(make_field(7), 2, 2).codes)


def test_sharpness_csv_rows_pinned(tmp_path):
    out = tmp_path / "s7.csv"
    code = cli_main(["--q", "7", "--suite", "sharpness", "--seed", "402", "--instances", "20",
                     "--out", str(out), "--format", "csv"])
    assert code == 0
    strips = [f"strip,{n},{49 * n},{c}" for n, c in zip(range(1, 8), (7, 14, 21, 28, 28, 28, 28))]
    assert out.read_text().splitlines() == [
        "construction,parameter,set_size,coverage", "circles,1,8,1", "product,20,980,49",
        *strips]


def test_sharpness_failures_name_instance_seed_and_cell(monkeypatch):
    plane = ExperimentConfig(q=7, suite="sharpness", instances=3, seed=5)
    odd = ExperimentConfig(q=3, k=3, l=2, suite="sharpness", instances=2, seed=5, budget=200)
    for cfg in (plane, odd):
        rep = run_suite(cfg)
        assert rep.all_pass
        assert not any("first_failure" in c.payload for c in rep.checks)

    module = importlib.import_module("fqdist.experiments")
    real = module.distance_set
    # Drop the largest distance: the law then expects too few pairs.
    monkeypatch.setattr(module, "distance_set", lambda a, b=None: set(sorted(real(a, b))[:-1]))
    checks = {c["name"]: c for c in run_suite(plane).to_json_dict()["checks"]}
    assert not any(c["pass"] for c in checks.values() if "first_failure" in c["payload"])
    expected = {
        "orthogonal-circles": (0, [1, 1]),  # Delta(circle, origin) = {1}
        "product-law": (0, [0, 6]),  # the factor F_7^2 loses distance 6
        "plane-strip": (1, [0, 0]),  # the strip of length 1 loses its only distance 0
    }
    for name, (instance, cell) in expected.items():
        assert not checks[name]["pass"], name
        assert checks[name]["payload"]["first_failure"] == {
            "instance": instance, "seed": 5, "cell": cell}, name
    checks = {c["name"]: c for c in run_suite(odd).to_json_dict()["checks"]}
    assert not any(c["pass"] for c in checks.values() if "first_failure" in c["payload"])
    for name in ("product-law", "missing-distance-product"):
        assert checks[name]["payload"]["first_failure"] == {
            "instance": 0, "seed": 5, "cell": [0, 2]}, name


def test_missing_distance_check_fails_on_full_coverage(monkeypatch):
    # A search that returns all of F_3^3 makes the product cover every cell, so
    # the check must fail whatever distance the search names (here 3, no field element).
    monkeypatch.setattr("fqdist.experiments.search_missing_distance_set",
                        lambda field, k, budget, seed: SearchResult(PointSet.full(field, k), 3, 0))
    cfg = ExperimentConfig(q=3, k=3, l=2, suite="sharpness", instances=1, seed=5, budget=200)
    check = {c.name: c for c in run_suite(cfg).checks}["missing-distance-product"]
    assert check.payload["coverage"] == check.payload["full_coverage"] == 9
    assert not check.passed


def test_search_missing_distance_postcondition():
    field = make_field(7)
    res = search_missing_distance_set(field, 3, budget=1500, seed=9)
    assert len(res.point_set) > 0
    assert res.missing_distance not in distance_set(res.point_set)
    assert 1 <= res.missing_distance <= 6


def test_search_gates():
    with pytest.raises(ValueError):
        search_missing_distance_set(make_field(7), 2, 100, 0)
    with pytest.raises(SizeGuardError):
        search_missing_distance_set(make_field(11), 5, 100, 0)


def test_missing_distance_search_runs_once_per_key():
    # generate_set builds a new field per call, once per instance; equal fields
    # share one search.
    search_missing_distance_set.cache_clear()
    cfg = ExperimentConfig(q=7, k=3, l=3, suite="coverage", generator="sharp-product",
                           instances=5, oracle_instances=1)
    assert run_suite(cfg).all_pass
    info = search_missing_distance_set.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    assert make_field(7) == make_field(7) != make_field(11)
    assert hash(make_field(7)) == hash(make_field(7))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(q=7, suite="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(q=7, generator="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(q=7, density=1.5)
    for counts in ({"instances": 0}, {"oracle_instances": -1}):
        with pytest.raises(ValueError, match=r"instances must be >= 1 and oracle instances >= 0"):
            ExperimentConfig(q=7, **counts)
    assert ExperimentConfig(q=7, oracle_instances=0).oracle_instances == 0
    for dims in ({"k": 0}, {"l": 0}, {"k": -1, "l": 3}):
        with pytest.raises(ValueError, match=r"k and l must be >= 1, got k = -?\d+, l = \d+"):
            ExperimentConfig(q=7, **dims)
    assert ExperimentConfig(q=7, k=1, l=1).k == 1
    for strip_len in (0, 8, 20):
        with pytest.raises(ValueError, match="strip length"):
            ExperimentConfig(q=7, strip_len=strip_len)
    for constant_c in (0.0, -3.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="constant_c"):
            ExperimentConfig(q=7, constant_c=constant_c)
    assert ExperimentConfig(q=7, strip_len=7, constant_c=0.5).strip_len == 7
    for budget in (0, MAX_SEARCH_SPACE + 1):
        with pytest.raises(ValueError, match=r"budget must be in \[1, 100000\]"):
            ExperimentConfig(q=7, budget=budget)
    assert ExperimentConfig(q=7, budget=MAX_SEARCH_SPACE).budget == MAX_SEARCH_SPACE
    with pytest.raises(dataclasses.FrozenInstanceError):
        ExperimentConfig(q=7).suite = "nope"  # run_suite trusts the validated suite


def test_all_suites_pass_q3():
    for suite in ("lemmas", "coverage", "energy", "sharpness"):
        cfg = ExperimentConfig(q=3, suite=suite, instances=4, oracle_instances=4, seed=2)
        rep = run_suite(cfg)
        assert rep.all_pass, [c for c in rep.checks if not c.passed]
        assert rep.suite == suite
        assert rep.config["q"] == 3


def test_report_json_deterministic():
    cfg = ExperimentConfig(q=3, suite="energy", instances=3, seed=4)
    r1 = run_suite(cfg).to_json_dict()
    r2 = run_suite(cfg).to_json_dict()
    r1.pop("duration_ms")
    r2.pop("duration_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_json_is_serializable_for_all_suites():
    for suite in ("lemmas", "coverage", "energy", "sharpness"):
        cfg = ExperimentConfig(q=3, suite=suite, instances=3, oracle_instances=3, seed=1)
        text = run_suite(cfg).to_json_text()
        parsed = json.loads(text)
        assert parsed["schema"] == 1
        assert isinstance(parsed["checks"], list) and parsed["checks"]
        for check in parsed["checks"]:
            assert set(check) == {"name", "operation", "pass", "payload"}


def _native_json_types(value, where="report"):
    """Paths in value that hold anything but int, float, str, bool, None, list or dict."""
    if type(value) is dict:
        bad = [f"{where} key {key!r}" for key in value if type(key) is not str]
        return bad + [path for key, item in value.items()
                      for path in _native_json_types(item, f"{where}.{key}")]
    if type(value) is list:
        return [path for i, item in enumerate(value)
                for path in _native_json_types(item, f"{where}[{i}]")]
    if type(value) in (int, float, str, bool, type(None)):
        return []
    return [f"{where}: {type(value).__name__}"]


def test_reports_hold_only_native_json_types():
    # The report is printed as it stands, so nothing non-native may reach it:
    # every suite, q = 1 and 3 mod 4, every generator, and loaded sets.
    configs = [ExperimentConfig(q=q, suite="lemmas", instances=2) for q in (3, 5, 7)]
    configs += [ExperimentConfig(q=q, suite="sharpness", instances=2) for q in (3, 5, 7)]
    configs += [ExperimentConfig(q=3, k=3, l=2, suite="sharpness", instances=2, budget=200),
                ExperimentConfig(q=7, k=2, l=1, suite="sharpness", instances=2),
                ExperimentConfig(q=3, suite="energy", instances=2)]
    for generator in GENERATORS:
        q, k = {"near-full": (17, 2), "sharp-product": (3, 3)}.get(generator, (5, 2))
        configs.append(ExperimentConfig(q=q, k=k, l=k, suite="coverage", generator=generator,
                                        instances=2, oracle_instances=2 if q < 17 else 0))
    runs = [(cfg, None) for cfg in configs]
    field = make_field(7)
    rng = np.random.default_rng(4)
    e, f = (SplitPointSet(field, 2, 2, rng.choice(7**4, n, replace=False)) for n in (300, 200))
    runs += [(ExperimentConfig(q=7, suite=suite, instances=1), (e, f))
             for suite in ("coverage", "energy")]
    for cfg, sets in runs:
        report = run_suite(cfg, sets)
        assert _native_json_types(report.to_json_dict()) == [], cfg
        assert all(type(v) in (int, str) for row in report.table for v in row), cfg


def test_skipped_checks_count_as_passing():
    # q = 5 is 1 mod 4: rotation-dependent lemmas skip but the suite passes.
    cfg = ExperimentConfig(q=5, suite="lemmas", instances=3, seed=1)
    rep = run_suite(cfg)
    assert rep.all_pass
    skipped = [c for c in rep.checks if c.payload.get("skipped")]
    assert any(c.name == "so2-orbit" for c in skipped)
    assert all(c.passed for c in skipped)


def _fail_on_call(monkeypatch, name, index, fail):
    """Patch experiments.<name> so that its index-th call returns fail(report, *args)."""
    module = importlib.import_module("fqdist.experiments")
    real = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(args)
        report = real(*args, **kwargs)
        return fail(report, *args) if len(calls) - 1 == index else report

    monkeypatch.setattr(module, name, patched)


def test_seeded_failures_name_instance_seed_and_cell(monkeypatch):
    lemmas = ExperimentConfig(q=7, suite="lemmas", instances=3, seed=5)
    coverage = ExperimentConfig(q=7, suite="coverage", instances=3, oracle_instances=2, seed=5)
    for cfg in (lemmas, coverage):
        rep = run_suite(cfg)
        assert rep.all_pass
        assert not any("first_failure" in c.payload for c in rep.checks)

    q = 7
    _fail_on_call(monkeypatch, "marginal_spectral_mass", 1,
                  lambda r, e: dataclasses.replace(r, holds=False))

    def failing_radii(*radii):
        return lambda r, e: dataclasses.replace(r, holds=r.holds & ~np.isin(np.arange(q), radii))

    # One call per instance, every radius at once: call 1 is instance 1, failing radius 3.
    _fail_on_call(monkeypatch, "sphere_restricted_mass", 1, failing_radii(3))

    def bad_cell(report, spectrum):
        cell_ok = report.cell_ok.copy()
        cell_ok[2, 3] = False
        return dataclasses.replace(report, cell_ok=cell_ok, all_ok=False)

    _fail_on_call(monkeypatch, "discrepancy_report", 2, bad_cell)
    # plancherel_gap runs d = 2, 3, 4 in turn, three instances each: call 4 is d = 3, instance 1.
    _fail_on_call(monkeypatch, "plancherel_gap", 4, lambda gap, table: 1.0)
    frequencies = []

    def shifted(hist, ps, m):
        frequencies.append(m)
        counts = hist.counts.copy()
        counts[0] += 1  # moves the coefficient by q^-d
        return dataclasses.replace(hist, counts=counts)

    _fail_on_call(monkeypatch, "exact_phase_histogram", 1, shifted)
    _fail_on_call(monkeypatch, "surjectivity_check", 1,
                  lambda r, *args: dataclasses.replace(r, consistent=False))

    def off_by_one(spectrum, e, f):
        s = spectrum.s.copy()
        s[1, 2] += 1
        return dataclasses.replace(spectrum, s=s)

    # The oracle checks index --oracle-instances; only oracle instance 1 draws
    # both sets under 41 points, so it holds the first brute-force count.
    _fail_on_call(monkeypatch, "pair_spectrum_naive", 1, off_by_one)
    _fail_on_call(monkeypatch, "spectrum_energy_bruteforce", 0, lambda count, e, f: count + 1)
    checks = {c["name"]: c for c in run_suite(lemmas).to_json_dict()["checks"]}
    assert not any(c["pass"] for c in checks.values() if "first_failure" in c["payload"])
    assert not checks["marginal-mass"]["pass"]
    assert checks["marginal-mass"]["payload"]["first_failure"] == {
        "instance": 1, "seed": 5, "cell": None}
    assert not checks["sphere-restricted-mass"]["pass"]
    assert checks["sphere-restricted-mass"]["payload"]["first_failure"] == {
        "instance": 1, "seed": 5, "cell": 3}
    assert checks["plancherel d=2"]["pass"] and checks["plancherel d=4"]["pass"]
    for name, instance, cell in (("plancherel d=3", 1, None),
                                 ("phase-histogram-agreement", 1, frequencies[0])):
        assert not checks[name]["pass"], name
        assert checks[name]["payload"]["first_failure"] == {
            "instance": instance, "seed": 5, "cell": cell}, name
    checks = {c["name"]: c for c in run_suite(coverage).to_json_dict()["checks"]}
    assert not any(c["pass"] for c in checks.values() if "first_failure" in c["payload"])
    assert checks["quadruple-count"]["payload"]["instances"] == 1
    for name, instance, cell in (("discrepancy", 2, [2, 3]),
                                 ("threshold-consistency", 1, None),
                                 ("route-agreement", 1, [1, 2]),
                                 ("quadruple-count", 1, None)):
        assert not checks[name]["pass"], name
        assert checks[name]["payload"]["first_failure"] == {
            "instance": instance, "seed": 5, "cell": cell}, name
    # Radii 2 and 3 of instance 1 fail: the cell is the least of them.
    _fail_on_call(monkeypatch, "sphere_restricted_mass", 1, failing_radii(2, 3))
    check = {c.name: c for c in run_suite(lemmas).checks}["sphere-restricted-mass"]
    assert not check.passed
    assert check.payload["first_failure"] == {"instance": 1, "seed": 5, "cell": 2}


def test_unsaturated_fiber_fails_marginal_mass_with_no_instance(monkeypatch):
    # marginal_spectral_mass calls 0-2 are the seeded instances, call 3 the saturating fibre.
    cfg = ExperimentConfig(q=7, suite="lemmas", instances=3, seed=5)
    _fail_on_call(monkeypatch, "marginal_spectral_mass", 3,
                  lambda r, e: dataclasses.replace(r, saturated=False))
    checks = {c.name: c for c in run_suite(cfg).checks}
    assert not checks["marginal-mass"].passed
    assert checks["marginal-mass"].payload["saturated"] is False
    assert "first_failure" not in checks["marginal-mass"].payload
    assert all(c.passed for name, c in checks.items() if name != "marginal-mass")


def test_fiber_float_disagreement_fails_marginal_mass_with_no_instance(monkeypatch):
    # The saturating fibre's float route is computed, so its disagreement must fail the check.
    cfg = ExperimentConfig(q=7, suite="lemmas", instances=3, seed=5)
    _fail_on_call(monkeypatch, "marginal_spectral_mass", 3,
                  lambda r, e: dataclasses.replace(r, float_agrees=False))
    checks = {c.name: c for c in run_suite(cfg).checks}
    assert not checks["marginal-mass"].passed
    assert checks["marginal-mass"].payload["saturated"] is True
    assert "first_failure" not in checks["marginal-mass"].payload
    assert all(c.passed for name, c in checks.items() if name != "marginal-mass")


@pytest.mark.parametrize("change", ["moved", "extra"])
def test_sphere_count_law_fails_on_a_wrong_sphere_size(monkeypatch, change):
    # The circles of radius 1 and 2 in F_3^2 hold 4 points each, within 2 of q:
    # moving 3 points between them breaks the allowance, and one more point on
    # the zero circle breaks the total q^2.
    def wrong(counts, field, d):
        counts = counts.copy()
        if change == "moved":
            counts[1:3] += (3, -3)
        else:
            counts[0] += 1
        return counts

    _fail_on_call(monkeypatch, "norm_fiber_sizes", 0, wrong)
    report = run_suite(ExperimentConfig(q=3, suite="lemmas", instances=1))
    checks = {c.name: c for c in report.checks}
    assert not checks["sphere-count-law d=2"].passed
    assert checks["sphere-count-law d=3"].passed


@pytest.mark.parametrize("name, moved", [("inverse_transform", "values"),
                                         ("forward_transform_direct", "coeffs")])
def test_transform_roundtrip_fails_when_either_route_is_off(monkeypatch, name, moved):
    # The inverse must give the values back and the defining sums must match the fast route.
    def shifted(table, *args):
        values = getattr(table, moved).copy()
        values[0] += 1e-6
        return dataclasses.replace(table, **{moved: values})

    _fail_on_call(monkeypatch, name, 0, shifted)
    report = run_suite(ExperimentConfig(q=3, suite="lemmas", instances=1))
    [check] = [c for c in report.checks if c.name.startswith("transform-roundtrip")]
    assert not check.passed


def test_energy_failures_name_instance_seed_and_cell(monkeypatch):
    cfg = ExperimentConfig(q=7, suite="energy", instances=3, seed=5)
    rep = run_suite(cfg)
    assert rep.all_pass
    assert not any("first_failure" in c.payload for c in rep.checks)

    def replaced(**fields):
        return lambda report, *args: dataclasses.replace(report, **fields)

    # energy_chain_check call 0 is the single-point identity; call i + 1 is instance i.
    _fail_on_call(monkeypatch, "energy_chain_check", 2, replaced(holds=False, split_ok=False))
    _fail_on_call(monkeypatch, "energy_chain_check", 3,
                  replaced(holds=False, zero_agrees=False, overcount_matches=False))
    # Two sampled rotation pairs per instance; in instance 1 both fail and the second is worse.
    rotations = enumerate_so2(make_field(7))
    sampled = []

    def row_index(row):
        return int(np.flatnonzero((rotations == row).all(axis=1))[0])

    def deviation(value):
        def fail(report, e, theta, phi):
            sampled.append([row_index(theta), row_index(phi)])
            return dataclasses.replace(report, max_deviation=value, passed=False)
        return fail

    _fail_on_call(monkeypatch, "correlation_transform_check", 2, deviation(0.5))
    _fail_on_call(monkeypatch, "correlation_transform_check", 3, deviation(1.0))
    _fail_on_call(monkeypatch, "correlation_transform_check", 5, deviation(1.0))
    # A bound that fails while c does not dominate is no failure.
    _fail_on_call(monkeypatch, "coverage_min_bound", 0, replaced(holds=False, c_dominates=False))
    _fail_on_call(monkeypatch, "coverage_min_bound", 2, replaced(holds=False, c_dominates=True))

    checks = {c["name"]: c for c in run_suite(cfg).to_json_dict()["checks"]}
    assert not any(c["pass"] for c in checks.values() if "first_failure" in c["payload"])
    assert sampled[0] != sampled[1]
    expected = {
        "energy-chain": (1, None),
        "frequency-split": (1, None),
        "zero-frequency-term": (2, None),
        "orbit-weight-identity": (2, None),
        "correlation-transform": (1, sampled[1]),
        "coverage-min-bound": (2, None),
    }
    for name, (instance, cell) in expected.items():
        assert not checks[name]["pass"], name
        assert checks[name]["payload"]["first_failure"] == {
            "instance": instance, "seed": 5, "cell": cell}, name
    assert checks["single-point-identity"]["pass"]
    assert "first_failure" not in checks["single-point-identity"]["payload"]


@pytest.mark.parametrize("wrong", [{"lhs": 2}, {"rhs": 17}, {"holds": False}],
                         ids=["lhs", "rhs", "holds"])
def test_single_point_identity_fails_on_each_wrong_field(monkeypatch, wrong):
    # energy_chain_check call 0 is the single point: lhs = 1 and rhs = |SO2|^2 = 16 at q = 3.
    _fail_on_call(monkeypatch, "energy_chain_check", 0,
                  lambda report, *args: dataclasses.replace(report, **wrong))
    report = run_suite(ExperimentConfig(q=3, suite="energy", instances=1))
    checks = {c.name: c for c in report.checks}
    assert not checks["single-point-identity"].passed
    assert checks["energy-chain"].passed


def test_energy_suite_splits_each_pair_once(monkeypatch):
    # One split for the single-point identity and one per instance: the
    # coverage bound reads the mixed term from the instance's energy chain.
    module = importlib.import_module("fqdist.rotation_energy")
    real = module._spectral_split
    calls = []
    monkeypatch.setattr(module, "_spectral_split", lambda *args: calls.append(args) or real(*args))
    assert run_suite(ExperimentConfig(q=7, suite="energy", instances=2)).all_pass
    assert len(calls) == 3


def test_surjectivity_failures_name_full_space_or_deletion(monkeypatch):
    # q = 17 is the smallest q where the coverage threshold is reachable.
    cfg = ExperimentConfig(q=17, suite="coverage", instances=2, oracle_instances=0, seed=5)

    def not_surjective(report, *args):
        return dataclasses.replace(report, surjective=False)

    def balanced(spectrum, *args):
        # +1 / -1 / -1 / +1 on a 2 x 2 block keeps the mass and the coverage.
        s = spectrum.s.copy()
        s[1:3, 1:3] += np.array([[1, -1], [-1, 1]])
        return dataclasses.replace(spectrum, s=s)

    # pair_spectrum and surjectivity_check calls 0-1 are the seeded instances
    # (threshold-consistency), call 2 the full space and calls 3-4 the near-full
    # deletions.  The full space must also match its closed form.
    for name, call, fail, instance, cell in (
            ("surjectivity_check", 2, not_surjective, 0, "full-space"),
            ("surjectivity_check", 4, not_surjective, 1, None),
            ("pair_spectrum", 2, balanced, 0, "full-space")):
        monkeypatch.undo()
        _fail_on_call(monkeypatch, name, call, fail)
        checks = {c["name"]: c for c in run_suite(cfg).to_json_dict()["checks"]}
        assert not any(c["pass"] for c in checks.values() if "first_failure" in c["payload"])
        assert checks["threshold-consistency"]["pass"]
        assert not checks["surjectivity-above-threshold"]["pass"]
        assert checks["surjectivity-above-threshold"]["payload"]["first_failure"] == {
            "instance": instance, "seed": 5, "cell": cell}


def test_near_full_coverage_transforms_each_set_once(monkeypatch):
    # One real transform for the full space and for each distinct set, and no
    # complex transform or inversion: a near-full instance is one set (F is E),
    # and the surjectivity check rereads the spectrum the discrepancy check built.
    module = importlib.import_module("fqdist.pair_spectrum")
    calls = {"_real_transform": 0, "_transform_in_place": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    cfg = ExperimentConfig(q=17, suite="coverage", generator="near-full", instances=2,
                           oracle_instances=0)
    assert run_suite(cfg).all_pass
    assert calls == {"_real_transform": 3, "_transform_in_place": 0}


def test_loaded_sets_override_generation():
    field = make_field(7)
    rng = np.random.default_rng(1)
    e = SplitPointSet(field, 2, 2, rng.choice(7**4, 400, replace=False))
    cfg = ExperimentConfig(q=7, suite="coverage", seed=1)
    rep = run_suite(cfg, (e, e))
    names = [c.name for c in rep.checks]
    assert "discrepancy (loaded sets)" in names
    assert rep.all_pass


def test_loaded_sets_must_match_config():
    field = make_field(7)
    rng = np.random.default_rng(1)
    e = SplitPointSet(field, 2, 2, rng.choice(7**4, 50, replace=False))
    other_q = SplitPointSet(make_field(11), 2, 2, rng.choice(11**4, 50, replace=False))
    other_split = SplitPointSet(field, 1, 3, e.codes)
    cfg = ExperimentConfig(q=7, suite="coverage", seed=1)
    with pytest.raises(ValueError, match=r"set E has q = 11.*asks for q = 7"):
        run_suite(cfg, (other_q, other_q))
    with pytest.raises(ValueError, match=r"set F has q = 7, split \(1, 3\).*split \(2, 2\)"):
        run_suite(ExperimentConfig(q=7, suite="energy"), (e, other_split))


@pytest.mark.parametrize("suite", ["lemmas", "sharpness"])
def test_run_suite_refuses_loaded_sets_for_a_suite_that_draws_its_own(suite):
    # Checked before the sets' q and split: the suite would ignore them and pass.
    e = SplitPointSet(make_field(11), 2, 2, [0, 1])
    with pytest.raises(ValueError, match=f"suite '{suite}' does not accept loaded sets"):
        run_suite(ExperimentConfig(q=7, suite=suite), (e, e))


@pytest.mark.parametrize("suite", ["coverage", "energy"])
@pytest.mark.parametrize("empty_name", ["E", "F"])
def test_run_suite_refuses_an_empty_loaded_set(suite, empty_name):
    # A run over an empty set counts no pair and would pass every check.
    field = make_field(7)
    full, empty = SplitPointSet(field, 2, 2, [0, 5, 9]), SplitPointSet(field, 2, 2, [])
    sets = (empty, full) if empty_name == "E" else (full, empty)
    with pytest.raises(ValueError, match=f"loaded set {empty_name} holds no points"):
        run_suite(ExperimentConfig(q=7, suite=suite), sets)


def test_energy_suite_runs_without_numpy_fft():
    # One transform engine: nothing on the energy suite's path imports numpy.fft.
    script = (
        "import sys\n"
        "from fqdist.cli import main\n"
        "code = main(['--q', '7', '--suite', 'energy', '--seed', '1', '--instances', '2'])\n"
        "print(code, 'numpy.fft' in sys.modules, file=sys.stderr)\n"
    )
    p = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr
    assert p.stderr.split() == ["0", "False"]


def test_cli_exit_zero_and_json_schema():
    p = _cli("--q", "3", "--suite", "sharpness", "--seed", "3", "--instances", "3")
    assert p.returncode == 0, p.stderr
    report = json.loads(p.stdout)
    assert report["all_pass"] is True
    assert report["suite"] == "sharpness"
    assert report["config"]["seed"] == 3


def test_cli_rejects_bad_modulus():
    p = _cli("--q", "9", "--suite", "lemmas")
    assert p.returncode == 2
    assert "prime" in p.stderr
    # 2 is prime, but the paper's setting is odd q.
    p = _cli("--q", "2", "--suite", "lemmas", "--instances", "1")
    assert p.returncode == 2 and p.stdout == ""
    assert "q must be an odd prime" in p.stderr


def test_cli_rejects_wrong_suite_shape():
    p = _cli("--q", "5", "--suite", "energy")
    assert p.returncode == 2


@pytest.mark.parametrize("flags", [
    ("--suite", "coverage", "--generator", "strip", "--strip-len", "20"),
    ("--suite", "coverage", "--generator", "strip", "--strip-len", "0"),
    ("--suite", "lemmas", "--constant-c", "-3"),
    ("--suite", "lemmas", "--constant-c", "nan"),
    # Draws numpy refuses at once (7^18 floats; 10^12 candidates): refused before any check.
    ("--suite", "lemmas", "--k", "9", "--l", "9"),
    ("--suite", "sharpness", "--k", "3", "--l", "3", "--budget", "4000000000000"),
    ("--suite", "coverage", "--k", "3", "--l", "3", "--generator", "sharp-product",
     "--budget", "4000000000000"),
], ids=["strip-len-20", "strip-len-0", "constant-c-neg", "constant-c-nan",
        "lemmas-k9-l9", "sharpness-budget-4e12", "coverage-budget-4e12"])
def test_cli_rejects_out_of_range_flags(flags):
    p = _cli("--q", "7", "--instances", "1", "--oracle-instances", "1", *flags)
    assert p.returncode == 2, p.stdout[-500:]
    assert p.stdout == ""


def test_lemmas_skips_only_the_sphere_restricted_mass_past_the_enumeration_limit(monkeypatch):
    # At q = 43 = 3 mod 4 the lemmas suite enumerates F_q^2 and F_q^3 only; the
    # sphere-restricted-mass draw spans F_q^4, so a limit below q^4 skips that one check.
    q = 43
    monkeypatch.setattr(importlib.import_module("fqdist.geometry"), "MAX_ENUMERATION", q**4 - 1)
    report = run_suite(ExperimentConfig(q=q, suite="lemmas", k=1, l=1, instances=1))
    checks = {c.name: c for c in report.checks}
    assert checks["sphere-restricted-mass"].payload == {
        "skipped": True, "reason": f"q^4 = {q**4} exceeds the enumeration limit"}
    ran = [c for c in report.checks if not c.payload.get("skipped")]
    assert {"marginal-mass", "circle-energy", "sphere-decay d=3"} <= {c.name for c in ran}
    assert all(c.passed for c in report.checks)


def test_cli_isotropic_line_product_passes_at_q29(tmp_path):
    # E = L x F_29^2 with L = {t (1, 12)}, an isotropic line (12^2 = -1 mod 29).
    # Its spectrum is row 0 only, s(0, b) = |E|^2 |S_b| / q^2, so at radius 0
    # the zero sphere's decay, not Weil's, bounds the error.
    q = 29
    field = make_field(q)
    line = PointSet.from_vectors(field, 2, [(t, 12 * t) for t in range(q)])
    e = SplitPointSet.product(line, PointSet.full(field, 2))
    save_point_set(tmp_path / "iso29.txt", e, split=(2, 2))
    p = _cli("--q", "29", "--suite", "coverage", "--e-file", str(tmp_path / "iso29.txt"))
    assert p.returncode == 0, p.stdout[-500:] + p.stderr
    checks = {c["name"]: c for c in json.loads(p.stdout)["checks"]}
    # With |E| = q^3, |S_0| = 2q - 1 and |S_b| = q - 1, the worst cell is (0, b != 0):
    # error q^2 (q-1)^3 against q^3 (q-1)^2 + 2 q^3.5 (2q - 1) + 2 q^3.5 (q - 1).
    expected = q**2 * (q - 1) ** 3 / (q**3 * (q - 1) ** 2 + 2 * q**3.5 * (3 * q - 2))
    assert checks["discrepancy (loaded sets)"]["payload"]["max_ratio"] == pytest.approx(
        expected, rel=1e-9)


@pytest.mark.parametrize("q, suite, k, l, flags", [
    ("7", "sharpness", "-1", "3", ()), ("19", "lemmas", "0", "2", ()),
    ("7", "coverage", "2", "0", ()), ("7", "energy", "0", "0", ()),
    ("7", "coverage", "0", "2", ("--strip-len", "3")),
], ids=["sharpness-k-neg", "lemmas-k0", "coverage-l0", "energy-k0-l0",
        "coverage-k0-unread-strip-len"])
def test_cli_refuses_block_dimension_below_one(capsys, q, suite, k, l, flags):
    # Refused by ExperimentConfig before any set is drawn or enumerated, and
    # before any unread flag is named.
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["--q", q, "--suite", suite, "--k", k, "--l", l, "--instances", "1", *flags])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"k and l must be >= 1, got k = {k}, l = {l}" in err


@pytest.mark.parametrize("flags, suite, named", [
    (("--suite", "energy", "--generator", "bernoulli"), "energy", "--generator"),
    (("--suite", "energy", "--density", "0.5"), "energy", "--density"),
    (("--suite", "lemmas", "--strip-len", "3"), "lemmas", "--strip-len"),
    (("--suite", "lemmas", "--budget", "2000"), "lemmas", "--budget"),
    (("--suite", "sharpness", "--generator", "circles"), "sharpness", "--generator"),
    (("--suite", "coverage", "--e-file", "unread.txt", "--generator", "full"),
     "coverage suite on loaded sets", "--generator"),
    (("--suite", "coverage", "--generator", "full", "--density", "0.3"),
     "coverage suite with --generator full", "--density"),
    (("--suite", "coverage", "--strip-len", "3"),
     "coverage suite with --generator bernoulli", "--strip-len"),
    (("--suite", "sharpness", "--k", "3", "--l", "3", "--strip-len", "3"),
     "sharpness suite at q = 7, k = 3, l = 3", "--strip-len"),
    (("--suite", "sharpness", "--budget", "2000"),
     "sharpness suite at q = 7, k = 2, l = 2", "--budget"),
    (("--suite", "sharpness", "--q", "13", "--strip-len", "3"),
     "sharpness suite at q = 13, k = 2, l = 2", "--strip-len"),
], ids=["energy-generator", "energy-density", "lemmas-strip-len", "lemmas-budget",
        "sharpness-generator", "coverage-loaded-generator", "coverage-full-density",
        "coverage-bernoulli-strip-len", "sharpness-k3-strip-len", "sharpness-even-k-budget",
        "sharpness-q13-strip-len"])
def test_cli_rejects_flags_the_suite_never_reads(capsys, flags, suite, named):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["--q", "7", "--instances", "1", *flags])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{named} is never read by the {suite}" in err


def test_cli_stdout_deterministic():
    args = ("--q", "3", "--suite", "coverage", "--seed", "6",
            "--instances", "3", "--oracle-instances", "3")
    r1 = json.loads(_cli(*args).stdout)
    r2 = json.loads(_cli(*args).stdout)
    r1.pop("duration_ms")
    r2.pop("duration_ms")
    assert r1 == r2


def test_cli_out_file_and_csv(tmp_path):
    out_json = tmp_path / "report.json"
    p = _cli("--q", "3", "--suite", "energy", "--seed", "1", "--instances", "2",
             "--out", str(out_json))
    assert p.returncode == 0
    on_disk = json.loads(out_json.read_text())
    assert on_disk == json.loads(p.stdout)

    out_csv = tmp_path / "spectrum.csv"
    p = _cli("--q", "3", "--suite", "energy", "--seed", "1", "--instances", "2",
             "--out", str(out_csv), "--format", "csv")
    assert p.returncode == 0
    rows = [line.split(",") for line in out_csv.read_text().strip().splitlines()]
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cli_spectrum_csv_is_the_pair_spectrum(tmp_path):
    field = make_field(7)
    rng = np.random.default_rng(5)
    e, f = (PointSet(field, 4, rng.choice(7**4, n, replace=False)) for n in (300, 120))
    save_point_set(tmp_path / "e.txt", e, split=(2, 2))
    save_point_set(tmp_path / "f.txt", f, split=(2, 2))
    loaded = SplitPointSet(field, 2, 2, e.codes), SplitPointSet(field, 2, 2, f.codes)
    seeded = ExperimentConfig(q=7, suite="coverage", seed=3, instances=2, oracle_instances=1)
    instance0 = generate_set(seeded, 0)
    for flags, pair in (
        (("--suite", "coverage", "--e-file", str(tmp_path / "e.txt"),
          "--f-file", str(tmp_path / "f.txt")), loaded),
        (("--suite", "energy", "--e-file", str(tmp_path / "e.txt"),
          "--f-file", str(tmp_path / "f.txt"), "--instances", "1"), loaded),
        (("--suite", "coverage", "--seed", "3", "--instances", "2",
          "--oracle-instances", "1"), instance0),
    ):
        out = tmp_path / "spectrum.csv"
        assert cli_main(["--q", "7", *flags, "--out", str(out), "--format", "csv"]) == 0
        table = np.array(_csv_rows(out), dtype=np.int64)
        assert np.array_equal(table, pair_spectrum(*pair).s), flags


def test_cli_lemmas_csv_is_header_plus_circle_rows(tmp_path, capsys):
    out = tmp_path / "circle_energy.csv"
    assert cli_main(["--q", "7", "--suite", "lemmas", "--instances", "1",
                     "--out", str(out), "--format", "csv"]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = next(c for c in report["checks"] if c["name"] == "circle-energy")["payload"]["rows"]
    assert len(rows) == 6
    assert _csv_rows(out) == [["q", "a", "sphere_size", "energy", "bound"],
                              *([str(v) for v in row] for row in rows)]


def test_cli_csv_of_an_empty_table_exits_2(tmp_path, capsys):
    out = tmp_path / "none.csv"
    with pytest.raises(SystemExit) as exit_info:  # q = 13 has no circle-energy rows
        cli_main(["--q", "13", "--suite", "lemmas", "--instances", "1",
                  "--out", str(out), "--format", "csv"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "no CSV table" in captured.err and captured.out == "" and not out.exists()
    # Sharpness always has its header, even with no construction applicable.
    assert cli_main(["--q", "7", "--k", "2", "--l", "1", "--suite", "sharpness",
                     "--out", str(out), "--format", "csv"]) == 0
    assert out.read_bytes() == b"construction,parameter,set_size,coverage\r\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_out_into_a_missing_directory_exits_2(tmp_path, capsys, fmt):
    out = tmp_path / "missing" / "report.out"
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["--q", "3", "--suite", "lemmas", "--instances", "1",
                  "--out", str(out), "--format", fmt])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "No such file or directory" in captured.err and captured.out == ""


@pytest.mark.parametrize("q, density", [(3, 0.001), (5, 0.0001)])
def test_cli_density_that_leaves_a_factor_empty_exits_2(capsys, q, density):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["--q", str(q), "--suite", "sharpness", "--density", str(density)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"density {density}" in captured.err and "64 draws" in captured.err
    assert captured.out == ""


# Values for the set-drawing fields, with densities down to near-empty sets.
_KNOB_VALUES = {"density": st.sampled_from([0.001, 0.01, 0.5]),
                "strip_len": st.integers(1, 7), "budget": st.integers(1, 64)}


@st.composite
def _cli_requests(draw):
    """A flag set with only the set flags its suite reads, an --out choice and a file choice.

    --out is None, "file" or "missing".  The loaded files are None, "valid" (a
    small file for the drawn q, k, l), "malformed", "missing" or "same" (one
    valid file as both --e-file and --f-file); a file request draws no --generator.
    """
    loaded = draw(st.sampled_from([None, None, "valid", "malformed", "missing", "same"]))
    # Only coverage and energy read loaded sets, so a file request draws them twice as often.
    suite = draw(st.sampled_from(SUITES if loaded is None else ("coverage", "energy", *SUITES)))
    q = draw(st.sampled_from([2, 3, 5, 7]))
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    generator = draw(st.sampled_from(GENERATORS))
    flags = ["--suite", suite, "--q", str(q), "--k", str(k), "--l", str(l),
             "--seed", str(draw(st.integers(-2**64, 2**64))),
             "--instances", str(draw(st.integers(1, 2))),
             "--oracle-instances", str(draw(st.integers(0, 2))),
             "--format", draw(st.sampled_from(["json", "csv"]))]
    if suite == "coverage" and loaded is None:
        flags += ["--generator", generator]
    for knob in sorted(knobs_read(suite, q, k, l, generator) - {"generator"}):
        if draw(st.booleans()):
            flags += [f"--{knob.replace('_', '-')}", str(draw(_KNOB_VALUES[knob]))]
    return flags, draw(st.sampled_from([None, "file", "missing"])), loaded


def _loaded_file_flags(tmp: Path, flags: list[str], loaded: str) -> list[str]:
    """The --e-file (and for "same", --f-file) flags of a fuzzed request, writing the file."""
    q, k, l = (int(flags[flags.index(f"--{name}") + 1]) for name in ("q", "k", "l"))
    path = tmp / "e.txt"
    if loaded == "malformed":
        path.write_text(f"q={q} dims={k + l}\n" + ",".join(["x"] * (k + l)) + "\n")
    elif loaded in ("valid", "same"):
        points = itertools.islice(itertools.product(range(q), repeat=k + l), 0, 100, 5)
        path.write_text(f"q={q} dims={k + l} split={k},{l}\n"
                        + "".join(",".join(map(str, p)) + "\n" for p in points))
    return ["--e-file", str(path), *(["--f-file", str(path)] if loaded == "same" else [])]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_cli_requests())
def test_cli_exit_contract_fuzz(drawn):
    # 0 or 1 with one JSON report whose all_pass matches, or 2 with nothing on stdout.
    flags, out, loaded = drawn
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if loaded is not None:
            flags = [*flags, *_loaded_file_flags(Path(tmp), flags, loaded)]
        if out is not None:
            path = Path(tmp) / ("missing" if out == "missing" else "") / "report"
            flags = [*flags, "--out", str(path)]
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(flags)
        except SystemExit as exc:
            assert exc.code == 2, flags
            assert stdout.getvalue() == "", flags
            return
    assert code in (0, 1), flags
    assert json.loads(stdout.getvalue())["all_pass"] == (code == 0), flags


def _cli_checks(capsys, *flags):
    assert cli_main(list(flags)) == 0
    return {c["name"]: c["payload"] for c in json.loads(capsys.readouterr().out)["checks"]}


NOTHING_CHECKED = {"skipped": True, "reason": "no instance was checked"}


def test_cli_coverage_run_that_draws_only_empty_sets_skips_its_seeded_checks(capsys):
    # At density 0.001 every one of the three drawn pairs over F_3^4 has an empty set.
    flags = ["--q", "3", "--suite", "coverage", "--generator", "bernoulli", "--density",
             "0.001", "--instances", "3"]
    cfg = ExperimentConfig(q=3, suite="coverage", density=0.001, instances=3)
    assert all(0 in map(len, generate_set(cfg, i)) for i in range(3))
    checks = _cli_checks(capsys, *flags)
    assert checks["discrepancy"] == checks["threshold-consistency"] == NOTHING_CHECKED
    # The oracle checks draw their own nonempty sets and run as asked.
    assert checks["route-agreement"] == {"instances": 20}


def test_cli_lemmas_run_whose_only_draw_is_empty_skips_that_check(capsys):
    # Seed 14's one Plancherel draw over F_3^2 is empty; its draws at d = 3 and 4 are not.
    checks = _cli_checks(capsys, "--q", "3", "--suite", "lemmas", "--instances", "1",
                         "--seed", "14")
    assert checks["plancherel d=2"] == NOTHING_CHECKED
    assert checks["plancherel d=3"]["instances"] == checks["plancherel d=4"]["instances"] == 1


def test_cli_instances_counts_the_checked_draws_not_the_requested_ones(capsys):
    # Seed 14's first Plancherel draw over F_3^2 is empty, and at density 0.02
    # the first two of three coverage pairs over F_3^4 hold an empty set.
    checks = _cli_checks(capsys, "--q", "3", "--suite", "lemmas", "--instances", "2",
                         "--seed", "14")
    assert [checks[f"plancherel d={d}"]["instances"] for d in (2, 3, 4)] == [1, 2, 2]
    checks = _cli_checks(capsys, "--q", "3", "--suite", "coverage", "--generator", "bernoulli",
                         "--density", "0.02", "--instances", "3")
    assert checks["discrepancy"]["instances"] == 1
    assert checks["threshold-consistency"] == {"instances": 1}


def test_cli_quadruple_count_that_checked_no_instance_skips(capsys):
    # Seed 0's only oracle draw at q = 7 has a set above the quadruple count's 40 points.
    gen = substream(0, _T_ORACLE, 0)
    assert max(int(gen.integers(1, 301)), int(gen.integers(1, 301))) > 40
    checks = _cli_checks(capsys, "--q", "7", "--suite", "coverage", "--instances", "1",
                         "--oracle-instances", "1", "--seed", "0")
    assert checks["quadruple-count"] == NOTHING_CHECKED
    assert checks["route-agreement"] == {"instances": 1}


def test_cli_no_oracle_instances_skips_both_oracle_checks(capsys):
    checks = _cli_checks(capsys, "--q", "7", "--suite", "coverage", "--instances", "1",
                         "--oracle-instances", "0")
    assert checks["route-agreement"] == checks["quadruple-count"] == NOTHING_CHECKED


def test_coverage_worst_ratio_is_the_largest_over_every_instance():
    # Instance 0 is the worst of four at q = 5, seed 0, so the last one is not.
    cfg = ExperimentConfig(q=5, suite="coverage", instances=4, oracle_instances=0)
    ratios = [discrepancy_report(pair_spectrum(*generate_set(cfg, i))).max_ratio
              for i in range(cfg.instances)]
    assert ratios[-1] < max(ratios)
    disc = next(c for c in run_suite(cfg).checks if c.name == "discrepancy")
    assert disc.payload["max_error_over_budget"] == max(ratios)


@pytest.mark.parametrize("seed, code", [(-1, 2), (2**64, 2), (2**64 - 1, 0)])
def test_cli_takes_a_seed_only_below_2_64(seed, code):
    # substream keys Philox with the seed as a uint64; reduced mod 2^64, it would alias another.
    p = _cli("--q", "7", "--suite", "coverage", "--instances", "1", "--oracle-instances", "1",
             "--seed", str(seed))
    assert p.returncode == code
    assert (p.stdout == "") == (code == 2)
    assert ("seed must be in [0, 2^64)" in p.stderr) == (code == 2)


def test_cli_csv_requires_out():
    p = _cli("--q", "3", "--suite", "lemmas", "--format", "csv")
    assert p.returncode == 2


def test_cli_loaded_sets(tmp_path):
    field = make_field(7)
    rng = np.random.default_rng(2)
    e = PointSet(field, 4, rng.choice(7**4, 500, replace=False))
    path = tmp_path / "e.txt"
    save_point_set(path, e, split=(2, 2))
    p = _cli("--q", "7", "--suite", "coverage", "--e-file", str(path))
    assert p.returncode == 0, p.stderr
    report = json.loads(p.stdout)
    assert report["config"]["e_file"] == str(path)
    assert any(c["name"] == "surjectivity (loaded sets)" for c in report["checks"])


def test_cli_f_file_naming_the_e_file_loads_and_transforms_once(tmp_path, monkeypatch, capsys):
    # F is E when --f-file names the --e-file's file, here through a symlink:
    # one real transform, and the report of the --e-file-only run.
    path = tmp_path / "e.txt"
    _save_random_set(path, 7, 500, 2)
    (tmp_path / "f.txt").symlink_to(path)
    module = importlib.import_module("fqdist.pair_spectrum")
    calls = []

    def counted(*args, _real=module._real_transform):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(module, "_real_transform", counted)
    reports = []
    for f_file in ([], ["--f-file", str(tmp_path / "f.txt")]):
        calls.clear()
        assert cli_main(["--q", "7", "--suite", "coverage", "--e-file", str(path), *f_file]) == 0
        assert len(calls) == 1
        report = json.loads(capsys.readouterr().out)
        report.pop("duration_ms")
        report["config"].pop("f_file")
        reports.append(report)
    assert reports[0] == reports[1]


def _save_random_set(path, q, size, seed):
    rng = np.random.default_rng(seed)
    save_point_set(path, PointSet(make_field(q), 4, rng.choice(q**4, size, replace=False)),
                   split=(2, 2))


@pytest.mark.parametrize("suite", ["coverage", "energy"])
def test_cli_rejects_q_mismatch_with_loaded_file(tmp_path, suite):
    q7, q11 = tmp_path / "q7.txt", tmp_path / "q11.txt"
    _save_random_set(q7, 7, 60, 3)
    _save_random_set(q11, 11, 60, 4)
    p = _cli("--q", "7", "--suite", suite, "--e-file", str(q11))
    assert p.returncode == 2
    assert "set E has q = 11" in p.stderr and "asks for q = 7" in p.stderr
    p = _cli("--q", "7", "--suite", suite, "--e-file", str(q7), "--f-file", str(q11))
    assert p.returncode == 2
    assert "set F has q = 11" in p.stderr and "asks for q = 7" in p.stderr
    assert p.stdout == ""


def test_cli_energy_refuses_an_e_above_the_scan_limit_before_any_work(tmp_path, monkeypatch,
                                                                       capsys):
    # rotation_correlation scans |E|^2 pairs; the suite refuses that before any spectrum.
    e_file, f_file = tmp_path / "e.txt", tmp_path / "f.txt"
    _save_random_set(e_file, 7, 60, 3)
    _save_random_set(f_file, 7, 30, 4)

    def refused(*args):
        raise AssertionError("a pair spectrum was computed before the scan limit was checked")

    monkeypatch.setattr(importlib.import_module("fqdist.pair_spectrum"), "MAX_PAIRS", 60 * 60 - 1)
    monkeypatch.setattr(importlib.import_module("fqdist.experiments"), "pair_spectrum", refused)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["--q", "7", "--suite", "energy", "--e-file", str(e_file),
                  "--f-file", str(f_file)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "60 x 60 pairs exceed the scan limit 3599" in captured.err and captured.out == ""


@pytest.mark.parametrize("suite, q", [("coverage", 7), ("lemmas", 7), ("energy", 11),
                                      ("sharpness", 7)])
def test_suite_peak_memory_is_flat_in_instances(suite, q):
    # Each instance's sets, and the q^4-cell transforms they cache, die with the instance:
    # from 2 to 6 instances the traced peak of a run grows by less than one such table.
    run_suite(ExperimentConfig(q=q, suite=suite, instances=2))  # warm the per-field caches
    peaks = []
    tracemalloc.start()
    try:
        for n in (2, 6):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run_suite(ExperimentConfig(q=q, suite=suite, instances=n))
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * q**4


def test_cli_empty_f_file_path_exits_2(tmp_path, capsys):
    # An empty --f-file is a path that names no file, not a missing flag.
    path = tmp_path / "e.txt"
    _save_random_set(path, 7, 60, 3)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["--q", "7", "--suite", "coverage", "--e-file", str(path), "--f-file", ""])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "No such file or directory" in captured.err and captured.out == ""


@pytest.mark.parametrize("suite", ["coverage", "energy"])
@pytest.mark.parametrize("flag", ["--e-file", "--f-file"])
def test_cli_refuses_a_loaded_set_with_no_points(tmp_path, capsys, suite, flag):
    # A header-only file would let the run certify nothing and still exit 0.
    full, empty = tmp_path / "full.txt", tmp_path / "empty.txt"
    _save_random_set(full, 7, 60, 3)
    empty.write_text("q=7 dims=4 split=2,2\n")
    e_file, f_file = (empty, full) if flag == "--e-file" else (full, empty)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["--q", "7", "--suite", suite, "--instances", "1",
                  "--e-file", str(e_file), "--f-file", str(f_file)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"{empty} holds no points" in captured.err and captured.out == ""


def test_cli_rejects_noncanonical_point_file(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("q=7 dims=4 split=2,2\n0,0,0,0\n1,2,3,9\n")
    p = _cli("--q", "7", "--suite", "coverage", "--e-file", str(path))
    assert p.returncode == 2
    assert "line 3" in p.stderr and "not in [0, 7)" in p.stderr
    assert p.stdout == ""


@pytest.mark.parametrize("flag", ["--e-file", "--f-file"])
@pytest.mark.parametrize("text, reason", [
    ("q=7 dims=3\n0,0,0\n", ": ambient dimension 3 does not match split 2+2"),
    ("q=9 dims=4\n0,0,0,0\n", ", line 1: header 'q=9 dims=4': modulus must be prime, got 9"),
])
def test_cli_names_the_file_it_refuses(tmp_path, capsys, flag, text, reason):
    # With both files given, the message must say which of them is wrong.
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    _save_random_set(good, 7, 60, 3)
    bad.write_text(text)
    e_file, f_file = (bad, good) if flag == "--e-file" else (good, bad)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["--q", "7", "--suite", "coverage", "--instances", "1",
                  "--e-file", str(e_file), "--f-file", str(f_file)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"{bad}{reason}" in captured.err
    assert captured.out == ""


def test_cli_f_file_requires_e_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("q=7 dims=4\n0,0,0,0\n")
    p = _cli("--q", "7", "--suite", "coverage", "--f-file", str(path))
    assert p.returncode == 2


def test_cli_rejects_loaded_sets_for_sharpness(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("q=7 dims=4\n0,0,0,0\n")
    p = _cli("--q", "7", "--suite", "sharpness", "--e-file", str(path))
    assert p.returncode == 2
    assert "does not accept" in p.stderr
