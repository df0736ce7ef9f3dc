"""Suite orchestration: seeding, generators, reports, and the CLI contract."""

import dataclasses
import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

from fqdist import (
    ExperimentConfig,
    PointSet,
    SizeGuardError,
    SplitPointSet,
    distance_set,
    enumerate_so2,
    generate_set,
    make_field,
    run_suite,
    save_point_set,
    search_missing_distance_set,
    substream,
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
    e1 = generate_set(cfg, "E", 3)
    e2 = generate_set(cfg, "E", 3)
    assert np.array_equal(e1.codes, e2.codes)
    # E and F draws differ; different instances differ.
    f1 = generate_set(cfg, "F", 3)
    e4 = generate_set(cfg, "E", 4)
    assert not np.array_equal(e1.codes, f1.codes)
    assert not np.array_equal(e1.codes, e4.codes)


def test_generate_set_density_controls_size():
    lo = ExperimentConfig(q=7, seed=1, density=0.1)
    hi = ExperimentConfig(q=7, seed=1, density=0.9)
    assert len(generate_set(hi, "E")) > len(generate_set(lo, "E"))


def test_generate_full_and_near_full():
    cfg = ExperimentConfig(q=17, k=2, l=2, generator="full", seed=2)
    full = generate_set(cfg, "E")
    assert len(full) == 17**4
    near = ExperimentConfig(q=17, k=2, l=2, generator="near-full", seed=2)
    e = generate_set(near, "E", 0)
    f = generate_set(near, "F", 0)
    # Deletion sets ignore the E/F label: the pair is E = F by construction.
    assert np.array_equal(e.codes, f.codes)
    deleted = 17**4 - len(e)
    assert 1 <= deleted <= 2400
    # Stay above the coverage threshold: |E|^2 > 16 * 17^7.
    assert len(e) ** 2 > 16 * 17**7


def test_generate_circles_occupy_opposite_planes():
    cfg = ExperimentConfig(q=7, k=2, l=2, generator="circles", seed=0)
    e = generate_set(cfg, "E")
    f = generate_set(cfg, "F")
    assert len(e) == len(f) == 8
    assert np.all(e.second_codes() == 0)
    assert np.all(f.first_codes() == 0)


def test_generate_strip_product_shape():
    cfg = ExperimentConfig(q=7, k=2, l=2, generator="strip", strip_len=3, seed=0)
    e = generate_set(cfg, "E")
    assert len(e) == 49 * 3


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


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(q=7, suite="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(q=7, generator="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(q=7, density=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(q=7, instances=0)
    for strip_len in (0, 8, 20):
        with pytest.raises(ValueError, match="strip length"):
            ExperimentConfig(q=7, strip_len=strip_len)
    for constant_c in (0.0, -3.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="constant_c"):
            ExperimentConfig(q=7, constant_c=constant_c)
    assert ExperimentConfig(q=7, strip_len=7, constant_c=0.5).strip_len == 7
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
    # q - 1 radii per instance: the call at index (q - 1) + 2 is instance 1, radius 3.
    _fail_on_call(monkeypatch, "sphere_restricted_mass", (q - 1) + 2,
                  lambda r, e, a: dataclasses.replace(r, holds=False))

    def bad_cell(report, e, f, spectrum):
        cell_ok = report.cell_ok.copy()
        cell_ok[2, 3] = False
        return dataclasses.replace(report, cell_ok=cell_ok, all_ok=False)

    _fail_on_call(monkeypatch, "discrepancy_report", 2, bad_cell)
    checks = {c["name"]: c for c in run_suite(lemmas).to_json_dict()["checks"]}
    assert not checks["marginal-mass"]["pass"]
    assert checks["marginal-mass"]["payload"]["first_failure"] == {
        "instance": 1, "seed": 5, "cell": None}
    assert not checks["sphere-restricted-mass"]["pass"]
    assert checks["sphere-restricted-mass"]["payload"]["first_failure"] == {
        "instance": 1, "seed": 5, "cell": 3}
    checks = {c["name"]: c for c in run_suite(coverage).to_json_dict()["checks"]}
    assert not checks["discrepancy"]["pass"]
    assert checks["discrepancy"]["payload"]["first_failure"] == {
        "instance": 2, "seed": 5, "cell": [2, 3]}


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
    # Two sampled rotation pairs per instance; in instance 1 the second one is worse.
    rotations = enumerate_so2(make_field(7))
    sampled = []

    def deviation(value):
        def fail(report, e, theta, phi):
            sampled.append([rotations.index(theta), rotations.index(phi)])
            return dataclasses.replace(report, max_deviation=value)
        return fail

    _fail_on_call(monkeypatch, "correlation_transform_check", 2, deviation(0.5))
    _fail_on_call(monkeypatch, "correlation_transform_check", 3, deviation(1.0))
    _fail_on_call(monkeypatch, "correlation_transform_check", 5, deviation(1.0))
    # A bound that fails while c does not dominate is no failure.
    _fail_on_call(monkeypatch, "coverage_min_bound", 0, replaced(holds=False, c_dominates=False))
    _fail_on_call(monkeypatch, "coverage_min_bound", 2, replaced(holds=False, c_dominates=True))

    checks = {c["name"]: c for c in run_suite(cfg).to_json_dict()["checks"]}
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


def test_loaded_sets_override_generation():
    field = make_field(7)
    rng = np.random.default_rng(1)
    e = SplitPointSet(field, 2, 2, rng.choice(7**4, 400, replace=False))
    cfg = ExperimentConfig(q=7, suite="coverage", seed=1)
    rep = run_suite(cfg, e_set=e)
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
        run_suite(cfg, e_set=other_q)
    with pytest.raises(ValueError, match=r"set F has q = 7, split \(1, 3\).*split \(2, 2\)"):
        run_suite(ExperimentConfig(q=7, suite="energy"), e_set=e, f_set=other_split)


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


def test_cli_rejects_wrong_suite_shape():
    p = _cli("--q", "5", "--suite", "energy")
    assert p.returncode == 2


@pytest.mark.parametrize("flags", [
    ("--suite", "coverage", "--generator", "strip", "--strip-len", "20"),
    ("--suite", "coverage", "--generator", "strip", "--strip-len", "0"),
    ("--suite", "lemmas", "--constant-c", "-3"),
    ("--suite", "lemmas", "--constant-c", "nan"),
], ids=["strip-len-20", "strip-len-0", "constant-c-neg", "constant-c-nan"])
def test_cli_rejects_out_of_range_flags(flags):
    p = _cli("--q", "7", "--instances", "1", "--oracle-instances", "1", *flags)
    assert p.returncode == 2, p.stdout[-500:]
    assert p.stdout == ""


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


def test_cli_rejects_noncanonical_point_file(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("q=7 dims=4 split=2,2\n0,0,0,0\n1,2,3,9\n")
    p = _cli("--q", "7", "--suite", "coverage", "--e-file", str(path))
    assert p.returncode == 2
    assert "line 3" in p.stderr and "not in [0, 7)" in p.stderr
    assert p.stdout == ""


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
