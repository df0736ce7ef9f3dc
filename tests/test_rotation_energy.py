"""Rotation correlations, the energy chain, and coverage lower bounds."""

import importlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqdist import (
    PointSet,
    PrecisionError,
    Rotation,
    SizeGuardError,
    SplitPointSet,
    all_norms,
    circle_energy,
    correlation_transform_check,
    coverage_min_bound,
    energy_chain_check,
    enumerate_so2,
    forward_transform,
    indicator_table,
    make_field,
    pair_spectrum,
    pair_spectrum_fast,
    plane_strip_scan,
    rotation_apply,
    rotation_code_permutation,
    rotation_correlation,
    spectrum_energy,
    sphere_restricted_mass,
    write_circle_energy_csv,
)


def _random_plane_pair_set(q, size, seed):
    field = make_field(q)
    rng = np.random.default_rng(seed)
    codes = rng.choice(q**4, size=size, replace=False)
    return SplitPointSet(field, 2, 2, codes)


def test_rotation_code_permutation_matches_pointwise():
    f = make_field(7)
    for rot in enumerate_so2(f)[:4]:
        perm = rotation_code_permutation(f, rot)
        for code in (0, 1, 13, 48):
            v = (code // 7, code % 7)
            w = rotation_apply(f, rot, v)
            assert perm[code] == w[0] * 7 + w[1]


def test_correlation_total_is_pair_count():
    e = _random_plane_pair_set(3, 20, 1)
    rots = enumerate_so2(e.field)
    table = rotation_correlation(e, rots[1], rots[2])
    assert table.total() == 20 * 20


def test_correlation_identity_rotation_counts_differences():
    # With both rotations the identity, r(u) counts difference pairs directly.
    e = _random_plane_pair_set(3, 15, 2)
    ident = Rotation(1, 0)
    table = rotation_correlation(e, ident, ident)
    q = 3
    first = e.first_codes()
    second = e.second_codes()
    manual = np.zeros((q * q, q * q), dtype=np.int64)
    f1 = np.stack([first // q, first % q], axis=1)
    f2 = np.stack([second // q, second % q], axis=1)
    for i in range(len(e)):
        for j in range(len(e)):
            d1 = tuple((f1[i] - f1[j]) % q)
            d2 = tuple((f2[i] - f2[j]) % q)
            manual[d1[0] * q + d1[1], d2[0] * q + d2[1]] += 1
    assert np.array_equal(table.counts, manual)


def test_correlation_transform_identity():
    for q, size, seed in [(3, 25, 3), (7, 300, 4)]:
        e = _random_plane_pair_set(q, size, seed)
        rots = enumerate_so2(e.field)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            theta = rots[rng.integers(len(rots))]
            phi = rots[rng.integers(len(rots))]
            rep = correlation_transform_check(e, theta, phi)
            assert rep.passed
            assert rep.max_deviation < 1e-8


def test_energy_chain_single_point_frozen():
    # One point: lhs = 1; every rotation pair contributes exactly 1, so
    # rhs = (q+1)^2; the overcount identity accounts for the gap exactly.
    field = make_field(3)
    e = SplitPointSet(field, 2, 2, [0])
    rep = energy_chain_check(e, e)
    assert rep.lhs == 1
    assert rep.rhs == 16
    assert rep.holds
    assert rep.zero_term == Fraction(16, 81)
    assert rep.overcount == 15
    assert rep.overcount_matches
    assert rep.zero_agrees and rep.split_ok


def test_energy_chain_random_sets():
    for q, size, seed in [(3, 30, 5), (7, 250, 6)]:
        e = _random_plane_pair_set(q, size, seed)
        f = _random_plane_pair_set(q, size + 10, seed + 50)
        rep = energy_chain_check(e, f)
        assert rep.holds
        assert rep.lhs == spectrum_energy(pair_spectrum(e, f))
        assert rep.overcount_matches  # rhs - lhs equals the orbit-weight sum exactly
        assert rep.zero_agrees
        assert rep.split_ok and rep.split_residual < 1e-9
        assert rep.so2_size == q + 1


def _literal_pair_energies(e, f):
    # m[i, j] = sum_u r_E(u) r_F(u) at (rots[i], rots[j]) from the literal pair counts.
    rots = enumerate_so2(e.field)
    return np.array([
        [int(np.sum(rotation_correlation(e, t, p).counts * rotation_correlation(f, t, p).counts))
         for p in rots]
        for t in rots
    ])


def _literal_rhs(e, f):
    return int(_literal_pair_energies(e, f).sum())


@pytest.mark.parametrize("q, size_e, size_f, seed", [(3, 25, 40, 11), (7, 180, 120, 12)])
def test_energy_chain_rhs_matches_literal_correlations(q, size_e, size_f, seed):
    e = _random_plane_pair_set(q, size_e, seed)
    f = _random_plane_pair_set(q, size_f, seed + 100)
    same_size = _random_plane_pair_set(q, size_e, seed + 200)
    point = SplitPointSet(e.field, 2, 2, [q**4 - 1])
    rots = enumerate_so2(e.field)
    module = importlib.import_module("fqdist.rotation_energy")
    # Each rotation pair's term, not only the total: the total is unchanged
    # by any bijection of the rotation pairs.
    for a, b in ((e, f), (e, same_size), (e, e), (point, point)):
        literal = _literal_pair_energies(a, b)
        assert np.array_equal(module._rotation_pair_energies(a, b, rots), literal)
        assert energy_chain_check(a, b).rhs == int(literal.sum())
    assert energy_chain_check(point, point).rhs == (q + 1) ** 2
    twin = SplitPointSet(e.field, 2, 2, e.codes.copy())
    assert energy_chain_check(e, twin).rhs == energy_chain_check(e, e).rhs


def test_energy_chain_rhs_batches_phi(monkeypatch):
    # q = 7 has 8 rotations; batches of 3 phi leave a short last batch.
    e = _random_plane_pair_set(7, 150, 16)
    f = _random_plane_pair_set(7, 90, 17)
    expected = energy_chain_check(e, f).rhs
    monkeypatch.setattr(importlib.import_module("fqdist.rotation_energy"), "_pair_chunk",
                        lambda n_other: 3)
    assert energy_chain_check(e, f).rhs == expected == _literal_rhs(e, f)


def test_residue_guard_raises(monkeypatch):
    e = _random_plane_pair_set(3, 30, 13)
    f = _random_plane_pair_set(3, 35, 14)
    spectrum = pair_spectrum(e, f)
    self_spectrum = pair_spectrum(e, e)
    # The package re-exports a function named pair_spectrum, so patch by module object.
    monkeypatch.setattr(importlib.import_module("fqdist.pair_spectrum"), "CONVOLUTION_RESIDUE", -1.0)
    with pytest.raises(PrecisionError, match="^difference histogram residue"):
        energy_chain_check(e, f, spectrum)
    with pytest.raises(PrecisionError, match="^difference histogram residue"):
        energy_chain_check(e, e, self_spectrum)
    with pytest.raises(PrecisionError, match="^difference histogram residue"):
        pair_spectrum_fast(e, f)


def test_rhs_route_size_guard(monkeypatch):
    e = _random_plane_pair_set(3, 10, 15)
    spectrum = pair_spectrum(e, e)
    monkeypatch.setattr(importlib.import_module("fqdist.geometry"), "MAX_ENUMERATION", 3**4 - 1)
    with pytest.raises(SizeGuardError, match="enumeration limit"):
        energy_chain_check(e, e, spectrum)


def test_energy_chain_gates():
    with pytest.raises(ValueError):
        e = SplitPointSet(make_field(5), 2, 2, [0])
        energy_chain_check(e, e)
    with pytest.raises(ValueError):
        e = SplitPointSet(make_field(3), 1, 3, [0])
        energy_chain_check(e, e)


def test_circle_energy_frozen_q3():
    rep = circle_energy(make_field(3), 1)
    assert rep.sphere_size == 4
    assert rep.energy == 36
    assert rep.bound == 48
    assert rep.holds


def test_circle_energy_closed_form():
    # Observed exactly across q = 3 mod 4: energy = 3|S|^2 - 3|S|.
    for q in (3, 7, 11, 19):
        for a in range(1, q):
            rep = circle_energy(make_field(q), a)
            assert rep.holds
            assert rep.energy == 3 * rep.sphere_size**2 - 3 * rep.sphere_size


def test_circle_energy_gates():
    with pytest.raises(ValueError):
        circle_energy(make_field(5), 1)
    with pytest.raises(ValueError):
        circle_energy(make_field(7), 0)


def test_circle_energy_quadruple_bruteforce_q3():
    # Literal quadruple enumeration over the unit circle of F_3^2.
    from itertools import product

    from fqdist import enumerate_sphere

    pts = enumerate_sphere(make_field(3), 2, 1).points
    count = sum(
        1
        for u, v, up, vp in product(pts, repeat=4)
        if (u[0] + v[0] - up[0] - vp[0]) % 3 == 0
        and (u[1] + v[1] - up[1] - vp[1]) % 3 == 0
    )
    assert count == 36 == circle_energy(make_field(3), 1).energy


def test_sphere_restricted_mass_bound():
    e = _random_plane_pair_set(7, 500, 8)
    for a in range(1, 7):
        rep = sphere_restricted_mass(e, a)
        assert rep.holds


def test_sphere_restricted_mass_transforms_once(monkeypatch):
    module = importlib.import_module("fqdist.pair_spectrum")
    q = 7
    e = _random_plane_pair_set(q, 500, 9)
    fresh = forward_transform(indicator_table(e.as_point_set())).coeffs
    calls = []
    real = module.forward_transform
    monkeypatch.setattr(module, "forward_transform", lambda t: calls.append(t) or real(t))
    for a in range(1, q):
        circle = np.nonzero(all_norms(q, 2) == a)[0]
        expected = float(np.sum(np.abs(fresh[circle * q * q]) ** 2))
        assert sphere_restricted_mass(e, a).value == expected
    assert len(calls) == 1


def test_energy_checks_transform_each_set_once(monkeypatch):
    module = importlib.import_module("fqdist.pair_spectrum")
    calls = []
    real = module.forward_transform
    monkeypatch.setattr(module, "forward_transform", lambda t: calls.append(t) or real(t))
    e = _random_plane_pair_set(7, 300, 10)
    f = _random_plane_pair_set(7, 200, 11)
    theta, phi = enumerate_so2(e.field)[1:3]
    energy_chain_check(e, f)
    coverage_min_bound(e, f)
    assert correlation_transform_check(e, theta, phi).passed
    assert len(calls) == 2  # once for e, once for f


def test_sphere_restricted_mass_small_set():
    e = SplitPointSet(make_field(3), 2, 2, [0, 1, 2])
    for a in range(3):
        assert sphere_restricted_mass(e, a).holds


def test_coverage_min_bound_full_q3():
    field = make_field(3)
    full = SplitPointSet.full(field, 2, 2)
    rep = coverage_min_bound(full, full)
    assert rep.achieved == 9
    assert rep.holds
    # Branches: mass 6561/(3*81) = 27, mixed 729/810 = 0.9, group 81/48.
    assert rep.branch_mass == pytest.approx(27.0)
    assert rep.branch_mixed == pytest.approx(0.9)
    assert rep.branch_group == pytest.approx(81 / 48)
    assert rep.min_bound == pytest.approx(0.9)
    for constant_c in (0.0, -3.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            coverage_min_bound(full, full, constant_c)


def test_strip_scan_frozen():
    rep = plane_strip_scan(make_field(7), 1)
    assert rep.coverage == 7 and rep.matches
    rep = plane_strip_scan(make_field(7), 3)
    assert rep.coverage == 21 and rep.matches
    assert rep.strip_distances == (0, 1, 4)
    rep = plane_strip_scan(make_field(11), 4)
    assert rep.coverage == 44 and rep.matches


def test_strip_scan_full_width_still_misses_nonsquares():
    # Axis differences have square norms only, so even the full-width strip
    # realizes just (number of squares) * q pairs, never all q^2.
    rep = plane_strip_scan(make_field(7), 7)
    assert rep.strip_distances == (0, 1, 2, 4)
    assert rep.coverage == 28
    assert rep.matches and not rep.covers_everything


def test_strip_scan_gates():
    with pytest.raises(ValueError):
        plane_strip_scan(make_field(5), 2)
    with pytest.raises(ValueError):
        plane_strip_scan(make_field(7), 0)


def test_circle_energy_csv(tmp_path):
    reports = [circle_energy(make_field(7), a) for a in range(1, 7)]
    path = tmp_path / "ce.csv"
    write_circle_energy_csv(path, reports)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "q,a,sphere_size,energy,bound"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "7" and first[1] == "1"


@settings(max_examples=10, deadline=None)
@given(st.sets(st.integers(0, 80), min_size=1, max_size=25))
def test_energy_chain_property_q3(codes):
    field = make_field(3)
    e = SplitPointSet(field, 2, 2, sorted(codes))
    rep = energy_chain_check(e, e)
    assert rep.holds and rep.overcount_matches and rep.split_ok
