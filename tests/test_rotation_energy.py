"""Rotation correlations, the energy chain, and coverage lower bounds."""

import importlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqdist.pair_spectrum as spectrum_module
from fqdist.errors import PrecisionError, SizeGuardError
from fqdist.field import enumerate_so2, make_field
from fqdist.fourier import forward_transform, indicator_table
from fqdist.geometry import PointSet, all_norms
from fqdist.pair_spectrum import (
    PairSpectrum,
    SplitPointSet,
    pair_spectrum,
    pair_spectrum_fast,
    pair_spectrum_naive,
    spectrum_energy,
)
from fqdist.rotation_energy import (
    _spectral_split,
    circle_energy,
    correlation_transform_check,
    coverage_min_bound,
    energy_chain_check,
    rotation_correlation,
    sphere_restricted_mass,
)
from field_oracles import rotation_apply, so2_pairs


def _chain(e, f):
    return energy_chain_check(e, f, pair_spectrum(e, f))


def _random_plane_pair_set(q, size, seed):
    field = make_field(q)
    rng = np.random.default_rng(seed)
    codes = rng.choice(q**4, size=size, replace=False)
    return SplitPointSet(field, 2, 2, codes)


def test_correlation_total_is_pair_count():
    e = _random_plane_pair_set(3, 20, 1)
    rots = enumerate_so2(e.field)
    counts = rotation_correlation(e, rots[1], rots[2])
    assert counts.dtype == np.int64 and counts.shape == (9, 9)
    assert int(counts.sum()) == 20 * 20


def test_correlation_identity_rotation_counts_differences():
    # r(u) counts the differences (x' - theta z', x'' - phi z''), recomputed
    # here pair by pair through rotation_apply on the rows' (a, b); the
    # identity counts x - z.
    for q, size, seed in [(3, 15, 2), (3, 20, 21), (7, 40, 22)]:
        e = _random_plane_pair_set(q, size, seed)
        perms, rots = enumerate_so2(e.field), so2_pairs(e.field)
        ident = rots.index((1, 0))
        first = [(c // q, c % q) for c in e.first_codes().tolist()]
        second = [(c // q, c % q) for c in e.second_codes().tolist()]
        for theta, phi in [(ident, ident), (0, len(rots) - 1), (1, ident)]:
            manual = np.zeros((q * q, q * q), dtype=np.int64)
            for x1, x2 in zip(first, second):
                for z1, z2 in zip(first, second):
                    r1 = rotation_apply(e.field, rots[theta], z1)
                    r2 = rotation_apply(e.field, rots[phi], z2)
                    u1 = (x1[0] - r1[0]) % q * q + (x1[1] - r1[1]) % q
                    u2 = (x2[0] - r2[0]) % q * q + (x2[1] - r2[1]) % q
                    manual[u1, u2] += 1
            assert np.array_equal(rotation_correlation(e, perms[theta], perms[phi]), manual)


def _coordinate_correlation(e, theta, phi):
    # r counted from int64 coordinate differences x - R z, pair by pair in one array.
    q = e.field.q
    x = e.coords().astype(np.int64)
    rotated_codes = (theta[e.first_codes()].astype(np.int64) * q * q
                     + phi[e.second_codes()])
    rotated = np.stack([rotated_codes // q ** p % q for p in (3, 2, 1, 0)], axis=1)
    codes = np.zeros((len(e), len(e)), dtype=np.int64)
    for i in range(4):
        codes = codes * q + (x[:, None, i] - rotated[None, :, i]) % q
    return np.bincount(codes.reshape(-1), minlength=q**4).reshape(q * q, q * q)


def test_correlation_counts_match_int64_coordinate_count():
    # At the size of the energy benchmark's sets, the int32 table gathers
    # count the same pairs as int64 coordinate differences.  The rotated
    # points come from the rows of enumerate_so2, which
    # test_so2_rows_match_rotation_apply pins to rotation_apply.
    e = _random_plane_pair_set(11, 1200, 23)
    rots = enumerate_so2(e.field)
    counts = rotation_correlation(e, rots[1], rots[3])
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _coordinate_correlation(e, rots[1], rots[3]))


def test_correlation_chunks_end_inside_runs_of_a_first_code(monkeypatch):
    # Chunks of 3 points cut the runs of equal first plane codes (each run of
    # the sorted codes shares one first-half row), so a run's row is gathered
    # in two chunks and a chunk can hold the tail of one run and the head of
    # the next.
    q = 7
    e = _random_plane_pair_set(q, 300, 16)
    first = e.first_codes()
    runs = np.diff(np.flatnonzero(np.diff(first)))
    assert np.all(np.diff(first) >= 0) and runs.max() > 3 and np.any(runs % 3 != 0)
    rots = enumerate_so2(e.field)
    monkeypatch.setattr(importlib.import_module("fqdist.rotation_energy"), "_pair_chunk",
                        lambda n_other, histogram: 3)
    for theta, phi in [(rots[0], rots[5]), (rots[2], rots[2]), (rots[7], rots[1])]:
        assert np.array_equal(rotation_correlation(e, theta, phi),
                              _coordinate_correlation(e, theta, phi))


@pytest.mark.parametrize("scan", ["rotation_correlation", "pair_spectrum_naive"])
def test_literal_scans_stay_under_4_mib_at_q11(scan):
    # Chunks of 4e6 cells hold 47 MiB in rotation_correlation and 153 MiB in
    # pair_spectrum_naive on this set, so the bound tells them from chunks
    # sized to the cache.
    e = _random_plane_pair_set(11, 2000, 29)
    theta, phi = enumerate_so2(e.field)[1:3]
    call = {"rotation_correlation": lambda: rotation_correlation(e, theta, phi),
            "pair_spectrum_naive": lambda: pair_spectrum_naive(e, e)}[scan]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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


def test_correlation_transform_fails_on_a_miscounted_correlation(monkeypatch):
    # One pair moved between two cells leaves the total but not the transform.
    e = _random_plane_pair_set(7, 300, 4)
    theta, phi = enumerate_so2(e.field)[1:3]
    real = rotation_correlation(e, theta, phi)
    moved = real.copy()
    moved.flat[real.argmax()] -= 1
    moved.flat[0] += 1
    monkeypatch.setattr("fqdist.rotation_energy.rotation_correlation", lambda *args: moved)
    rep = correlation_transform_check(e, theta, phi)
    assert rep.max_deviation > 1e-4
    assert not rep.passed


def test_energy_chain_single_point_frozen():
    # One point: lhs = 1; every rotation pair contributes exactly 1, so
    # rhs = (q+1)^2; the overcount identity accounts for the gap exactly.
    field = make_field(3)
    e = SplitPointSet(field, 2, 2, [0])
    rep = _chain(e, e)
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
        rep = _chain(e, f)
        assert rep.holds
        assert rep.lhs == spectrum_energy(pair_spectrum(e, f))
        assert rep.overcount_matches  # rhs - lhs equals the orbit-weight sum exactly
        assert rep.zero_agrees
        assert rep.split_ok and rep.split_residual < 1e-9
        assert rep.so2_size == q + 1


def test_energy_chain_fails_a_spectrum_heavier_than_the_rotation_energy():
    # Every pair piled on one cell gives lhs = |E|^4, above rhs for a spread-out set.
    e = _random_plane_pair_set(3, 30, 5)
    s = np.zeros((3, 3), dtype=np.int64)
    s[1, 2] = 30 * 30
    rep = energy_chain_check(e, e, PairSpectrum(e.field, 2, 2, 30, 30, s))
    assert rep.lhs == 30**4 > rep.rhs
    assert not rep.holds


@pytest.mark.parametrize("term", ["zero", "nonzero"])
def test_energy_chain_flags_a_wrong_frequency_split(monkeypatch, term):
    # A zero class off its closed form fails zero_agrees; a sum off rhs fails split_ok.
    e = _random_plane_pair_set(7, 250, 6)

    def wrong(e, f, so2_size):
        zero, mixed, nonzero = _spectral_split(e, f, so2_size)
        if term == "zero":
            return zero * 1.001, mixed, nonzero
        return zero, mixed, nonzero + 1e-3 * (zero + mixed + nonzero)

    monkeypatch.setattr("fqdist.rotation_energy._spectral_split", wrong)
    rep = _chain(e, e)
    assert rep.holds and rep.overcount_matches
    assert rep.zero_agrees == (term != "zero")
    assert not rep.split_ok


def _literal_pair_energies(e, f):
    # m[i, j] = sum_u r_E(u) r_F(u) at (rots[i], rots[j]) from the literal pair counts.
    rots = enumerate_so2(e.field)
    return np.array([
        [int(np.sum(rotation_correlation(e, t, p) * rotation_correlation(f, t, p)))
         for p in rots]
        for t in rots
    ])


@pytest.mark.parametrize("q, size_e, size_f, seed",
                         [(3, 25, 40, 11), (7, 180, 120, 12), (11, 300, 200, 18)])
def test_energy_chain_rhs_matches_literal_correlations(q, size_e, size_f, seed):
    e = _random_plane_pair_set(q, size_e, seed)
    f = _random_plane_pair_set(q, size_f, seed + 100)
    same_size = _random_plane_pair_set(q, size_e, seed + 200)
    point = SplitPointSet(e.field, 2, 2, [q**4 - 1])
    rots = enumerate_so2(e.field)
    module = importlib.import_module("fqdist.rotation_energy")
    # Each rotation pair's term, not only the total: the total is unchanged
    # by any bijection of the rotation pairs.  E x F's matrix is asymmetric,
    # so a swapped theta and phi, or a transposed product, moves some entry.
    for a, b in ((e, f), (e, same_size), (e, e), (point, point)):
        literal = _literal_pair_energies(a, b)
        assert np.array_equal(module._rotation_pair_energies(a, b, rots), literal)
        assert _chain(a, b).rhs == int(literal.sum())
        if b is f:
            assert not np.array_equal(literal, literal.T)
    assert _chain(point, point).rhs == (q + 1) ** 2
    twin = SplitPointSet(e.field, 2, 2, e.codes.copy())
    assert _chain(e, twin).rhs == _chain(e, e).rhs


class _Sized:
    """A stand-in set of a given size, for size guards that run before any set is read."""

    def __init__(self, field, size):
        self.field, self.size = field, size

    def __len__(self):
        return self.size


@pytest.mark.parametrize("below, at", [
    ((208063, 208063), (208064, 208064)),
    ((1, 2**53 - 1), (1, 2**53)),
    ((2**53 - 1, 1), (2**53, 1)),
], ids=["equal-sizes", "one-point-e", "one-point-f"])
def test_rotation_pair_energies_refuse_at_the_float64_bound(monkeypatch, below, at):
    # Entries reach at most min(|E|, |F|) |E||F|; below 2^53 the float64
    # products are exact, so the guard must refuse exactly there, before D.
    def bound(sizes):
        return sizes[0] * sizes[1] * min(sizes)

    assert bound(below) < 2**53 <= bound(at)
    module = importlib.import_module("fqdist.rotation_energy")

    def histogram_reached(*args):
        raise LookupError("difference histogram reached")

    monkeypatch.setattr(module, "difference_histogram", histogram_reached)
    field = make_field(3)
    rots = enumerate_so2(field)
    with pytest.raises(LookupError, match="difference histogram reached"):
        module._rotation_pair_energies(*(_Sized(field, n) for n in below), rots)
    with pytest.raises(SizeGuardError, match="would not be exact in float64"):
        module._rotation_pair_energies(*(_Sized(field, n) for n in at), rots)


def test_residue_guard_raises(monkeypatch):
    e = _random_plane_pair_set(3, 30, 13)
    f = _random_plane_pair_set(3, 35, 14)
    spectrum = pair_spectrum(e, f)
    self_spectrum = pair_spectrum(e, e)
    monkeypatch.setattr("fqdist.pair_spectrum.CONVOLUTION_RESIDUE", -1.0)
    with pytest.raises(PrecisionError, match="^difference histogram residue"):
        energy_chain_check(e, f, spectrum)
    with pytest.raises(PrecisionError, match="^difference histogram residue"):
        energy_chain_check(e, e, self_spectrum)
    with pytest.raises(PrecisionError, match="^pair spectrum residue"):
        pair_spectrum_fast(e, f)
    with pytest.raises(PrecisionError, match="^pair spectrum residue"):
        pair_spectrum_fast(e, e)


def test_orbit_weight_identity_sees_a_moved_count_of_d(monkeypatch):
    # The transform route counts the spectrum without D, so the identity
    # rhs - lhs = overcount compares D's rotation sums with it.  One count of D
    # moved to a cell of another norm class (mass kept) changes
    # rhs by 2 (s(a', b') - s(a, b) + 1) when both classes have weight 1.
    q = 7
    e = _random_plane_pair_set(q, 300, 20)
    f = _random_plane_pair_set(q, 200, 21)
    assert len(e) * len(f) > q**4  # pair_spectrum takes the transform route
    assert energy_chain_check(e, f, pair_spectrum(e, f)).overcount_matches
    hist = spectrum_module.difference_histogram(e, f)
    s = pair_spectrum_fast(e, f).s
    plane = all_norms(q, 2)
    cls = [(int(plane[v // (q * q)]), int(plane[v % (q * q)])) for v in range(q**4)]
    source = next(v for v in np.flatnonzero(hist) if 0 not in cls[v])
    a, b = cls[source]
    target = next(v for v in range(q**4)
                  if 0 not in cls[v] and cls[v] != (a, b) and s[cls[v]] != s[a, b] - 1)
    moved = hist.copy()
    moved[source] -= 1
    moved[target] += 1
    for module in (spectrum_module, importlib.import_module("fqdist.rotation_energy")):
        monkeypatch.setattr(module, "difference_histogram", lambda *args: moved)
    rep = energy_chain_check(e, f, pair_spectrum(e, f))
    assert not rep.overcount_matches
    assert rep.rhs - rep.lhs - rep.overcount == 2 * (s[cls[target]] - s[a, b] + 1)


def test_rotation_correlation_size_guard(monkeypatch):
    # The q^2 x q^2 difference table and the histogram are q^4 cells each.
    e = _random_plane_pair_set(3, 10, 15)
    theta, phi = enumerate_so2(e.field)[1:3]
    monkeypatch.setattr(importlib.import_module("fqdist.geometry"), "MAX_ENUMERATION", 3**4 - 1)
    with pytest.raises(SizeGuardError, match="enumeration limit"):
        rotation_correlation(e, theta, phi)


def test_rhs_route_size_guard(monkeypatch):
    e = _random_plane_pair_set(3, 10, 15)
    spectrum = pair_spectrum(e, e)
    monkeypatch.setattr(importlib.import_module("fqdist.geometry"), "MAX_ENUMERATION", 3**4 - 1)
    with pytest.raises(SizeGuardError, match="enumeration limit"):
        energy_chain_check(e, e, spectrum)


def test_energy_chain_gates():
    with pytest.raises(ValueError):
        e = SplitPointSet(make_field(5), 2, 2, [0])
        _chain(e, e)
    with pytest.raises(ValueError):
        e = SplitPointSet(make_field(3), 1, 3, [0])
        _chain(e, e)


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

    from fqdist.geometry import enumerate_sphere

    pts = enumerate_sphere(make_field(3), 2, 1).points()
    count = sum(
        1
        for u, v, up, vp in product(pts, repeat=4)
        if (u[0] + v[0] - up[0] - vp[0]) % 3 == 0
        and (u[1] + v[1] - up[1] - vp[1]) % 3 == 0
    )
    assert count == 36 == circle_energy(make_field(3), 1).energy


def test_sphere_restricted_mass_bound():
    rep = sphere_restricted_mass(_random_plane_pair_set(7, 500, 8))
    assert rep.values.shape == rep.holds.shape == (7,)
    assert rep.holds.all()
    # A single fibre {x'} x F_q^2 has |E_hat(m', 0)|^2 = q^-4 at every m', so each
    # nonzero radius sits at (q + 1) / (sqrt(3) q) of the bound.
    for q in (3, 7, 11, 19, 23):
        field = make_field(q)
        rep = sphere_restricted_mass(
            SplitPointSet.product(PointSet(field, 2, [q + 2]), PointSet.full(field, 2)))
        np.testing.assert_allclose(rep.values[1:] / rep.bound, (q + 1) / (np.sqrt(3.0) * q),
                                   rtol=1e-9)


def test_sphere_restricted_mass_transforms_once(monkeypatch, forward_transforms):
    # Oracle: the literal restriction of E's full (q, 4) transform to (m', 0), circle by circle.
    points = forward_transforms
    module = importlib.import_module("fqdist.rotation_energy")
    real = module.forward_transform
    monkeypatch.setattr(module, "forward_transform", lambda t: points.append(len(t.values)) or real(t))
    for q in (3, 7, 11):
        field = make_field(q)
        norms = all_norms(q, 2)
        sets = [
            _random_plane_pair_set(q, 5 * q * q, q),
            SplitPointSet.product(PointSet(field, 2, [q + 2]), PointSet.full(field, 2)),  # one fibre
            SplitPointSet.product(PointSet.full(field, 2), PointSet(field, 2, [q + 2])),  # one x''
        ]
        for e in sets:
            full = forward_transform(indicator_table(e)).coeffs
            expected = [float(np.sum(np.abs(full[np.flatnonzero(norms == a) * q * q]) ** 2))
                        for a in range(q)]
            points.clear()
            rep = sphere_restricted_mass(e)
            assert points == [q * q]
            assert "transform" not in vars(e)  # E's cached (q, 4) transform is neither read nor filled
            np.testing.assert_allclose(rep.values, expected, rtol=1e-12, atol=1e-12 * sum(expected))


def test_energy_checks_transform_each_set_once(forward_transforms):
    calls = forward_transforms
    e = _random_plane_pair_set(7, 300, 10)
    f = _random_plane_pair_set(7, 200, 11)
    theta, phi = enumerate_so2(e.field)[1:3]
    spectrum = pair_spectrum(e, f)
    coverage_min_bound(energy_chain_check(e, f, spectrum), spectrum, 10.0)
    assert correlation_transform_check(e, theta, phi).passed
    assert len(calls) == 2  # once for e, once for f


def test_sphere_restricted_mass_small_set():
    e = SplitPointSet(make_field(3), 2, 2, [0, 1, 2])
    assert sphere_restricted_mass(e).holds.all()


def test_sphere_restricted_mass_needs_the_plane_pair_at_q_3_mod_4():
    with pytest.raises(ValueError, match="requires q = 3 mod 4"):
        sphere_restricted_mass(SplitPointSet(make_field(5), 2, 2, [0, 7]))
    for k, l in ((1, 3), (3, 1), (1, 1)):
        with pytest.raises(ValueError, match="requires the plane-pair split k = l = 2"):
            sphere_restricted_mass(SplitPointSet(make_field(7), k, l, [0, 5]))


def test_coverage_min_bound_full_q3():
    field = make_field(3)
    full = SplitPointSet.full(field, 2, 2)
    spectrum = pair_spectrum(full, full)
    chain = energy_chain_check(full, full, spectrum)
    rep = coverage_min_bound(chain, spectrum, 10.0)
    assert rep.achieved == 9
    assert rep.holds
    # Branches: mass 6561/(3*81) = 27, mixed 729/810 = 0.9, group 81/48.
    assert rep.branch_mass == pytest.approx(27.0)
    assert rep.branch_mixed == pytest.approx(0.9)
    assert rep.branch_group == pytest.approx(81 / 48)
    assert rep.min_bound == pytest.approx(0.9)
    # With C = 1 and one cell holding the whole mass, the bound is the group
    # branch 81/48 = 1.6875 against one achieved pair, so it must fail.
    one_cell = np.zeros((3, 3), dtype=np.int64)
    one_cell[0, 0] = 81 * 81
    lone = PairSpectrum(field, 2, 2, 81, 81, one_cell)
    rep = coverage_min_bound(chain, lone, 1.0)
    assert (rep.min_bound, rep.achieved) == (pytest.approx(1.6875), 1)
    assert not rep.holds
    assert coverage_min_bound(chain, spectrum, 1.0).holds
    for constant_c in (0.0, -3.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            coverage_min_bound(chain, spectrum, constant_c)


@settings(max_examples=10, deadline=None)
@given(st.sets(st.integers(0, 80), min_size=1, max_size=25))
def test_energy_chain_property_q3(codes):
    field = make_field(3)
    e = SplitPointSet(field, 2, 2, sorted(codes))
    rep = _chain(e, e)
    assert rep.holds and rep.overcount_matches and rep.split_ok
