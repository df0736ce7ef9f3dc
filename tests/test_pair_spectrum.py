"""Two-block pair spectra: exact counting, dual routes, certificates."""

import importlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqdist import (
    PointSet,
    SplitPointSet,
    achieved_pairs,
    all_norms,
    coverage_lower_bound,
    discrepancy_report,
    distance_set,
    forward_transform,
    indicator_table,
    load_split_point_set,
    make_field,
    marginal_spectral_mass,
    norm_fiber_sizes,
    pair_spectrum,
    pair_spectrum_fast,
    pair_spectrum_naive,
    read_spectrum_csv,
    save_point_set,
    spectrum_energy,
    spectrum_energy_bruteforce,
    surjectivity_check,
    write_spectrum_csv,
)


def _random_split(q, k, l, size, seed):
    field = make_field(q)
    rng = np.random.default_rng(seed)
    codes = rng.choice(q ** (k + l), size=size, replace=False)
    return SplitPointSet(field, k, l, codes)


def test_split_set_construction():
    f = make_field(3)
    s = SplitPointSet(f, 2, 2, [0, 5, 5, 80])
    assert len(s) == 3
    assert s.d == 4
    assert s.first_codes().tolist() == [0, 0, 8]
    assert s.second_codes().tolist() == [0, 5, 8]


def test_split_set_rejects_bad_dims():
    f = make_field(3)
    with pytest.raises(ValueError):
        SplitPointSet(f, 0, 2, [0])
    with pytest.raises(ValueError):
        SplitPointSet(f, 2, 0, [0])


def test_split_set_transform_cached_and_bit_identical(monkeypatch):
    module = importlib.import_module("fqdist.pair_spectrum")
    e = _random_split(7, 2, 2, 300, 11)
    f = _random_split(7, 2, 2, 200, 12)
    fresh = forward_transform(indicator_table(e.as_point_set())).coeffs
    calls = []
    real = module.forward_transform
    monkeypatch.setattr(module, "forward_transform", lambda t: calls.append(t) or real(t))
    assert np.array_equal(e.transform, fresh)
    assert not e.transform.flags.writeable
    pair_spectrum_fast(e, f)
    pair_spectrum_fast(f, e)
    marginal_spectral_mass(e)
    assert len(calls) == 2  # once for e, once for f


def test_product_set():
    f = make_field(3)
    first = PointSet.from_vectors(f, 2, [(0, 0), (1, 1)])
    second = PointSet.from_vectors(f, 2, [(2, 2)])
    prod = SplitPointSet.product(first, second)
    assert len(prod) == 2
    assert sorted(prod.as_point_set().points()) == [(0, 0, 2, 2), (1, 1, 2, 2)]


def test_distance_set_small():
    f = make_field(3)
    ps = PointSet.from_vectors(f, 2, [(0, 0), (1, 0)])
    assert distance_set(ps) == {0, 1}
    axis = PointSet.from_vectors(f, 2, [(0, 0), (1, 0), (2, 0)])
    assert distance_set(axis) == {0, 1}  # differences 0, 1, 2 have norms 0, 1, 1


def test_full_space_spectrum_law():
    # E = F = F_q^(k+l): s(a, b) = q^(k+l) N_k(a) N_l(b) exactly.
    for q, k, l in [(3, 2, 2), (3, 1, 2), (5, 2, 2)]:
        field = make_field(q)
        full = SplitPointSet.full(field, k, l)
        s = pair_spectrum(full, full).s
        nk = norm_fiber_sizes(field, k)
        nl = norm_fiber_sizes(field, l)
        expected = q ** (k + l) * np.outer(nk, nl)
        assert np.array_equal(s, expected)


def test_spectrum_mass_is_pair_count():
    e = _random_split(5, 2, 2, 70, 1)
    f = _random_split(5, 2, 2, 50, 2)
    spec = pair_spectrum(e, f)
    assert spec.total() == 70 * 50


def test_fast_equals_naive_fixed_instances():
    for seed in range(5):
        e = _random_split(7, 2, 2, 120 + seed, seed)
        f = _random_split(7, 2, 2, 90 + seed, 100 + seed)
        assert np.array_equal(pair_spectrum_fast(e, f).s, pair_spectrum_naive(e, f).s)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(0, 80), min_size=1, max_size=30),
       st.sets(st.integers(0, 80), min_size=1, max_size=30))
def test_fast_equals_naive_property(codes_e, codes_f):
    field = make_field(3)
    e = SplitPointSet(field, 2, 2, sorted(codes_e))
    f = SplitPointSet(field, 2, 2, sorted(codes_f))
    fast = pair_spectrum_fast(e, f)
    naive = pair_spectrum_naive(e, f)
    assert np.array_equal(fast.s, naive.s)
    assert fast.total() == len(e) * len(f)


def test_spectrum_transpose_symmetry():
    # Swapping E and F and both blocks transposes the table.
    field = make_field(5)
    rng = np.random.default_rng(7)
    e = SplitPointSet(field, 2, 2, rng.choice(625, 40, replace=False))
    f = SplitPointSet(field, 2, 2, rng.choice(625, 55, replace=False))
    assert np.array_equal(pair_spectrum(e, f).s, pair_spectrum(f, e).s)


def test_incompatible_sets_rejected():
    e = _random_split(3, 2, 2, 5, 1)
    f3 = make_field(3)
    with pytest.raises(ValueError):
        pair_spectrum(e, SplitPointSet(f3, 1, 3, [0, 1]))
    with pytest.raises(ValueError):
        pair_spectrum(e, _random_split(5, 2, 2, 5, 1))


def test_circles_spectrum_frozen():
    # E the unit circle in the first plane, F the unit circle in the second:
    # exactly one realized pair, (1, 1), carrying all of |E||F|.
    for q in (3, 7, 11):
        field = make_field(q)
        circle = np.nonzero(all_norms(q, 2) == 1)[0]
        e = SplitPointSet(field, 2, 2, circle * q * q)
        f = SplitPointSet(field, 2, 2, circle)
        spec = pair_spectrum(e, f)
        assert achieved_pairs(spec) == {(1, 1)}
        assert int(spec.s[1, 1]) == len(e) * len(f)


def test_energy_matches_bruteforce():
    for seed in range(4):
        e = _random_split(3, 2, 2, 25, seed)
        f = _random_split(3, 2, 2, 30, 50 + seed)
        spec = pair_spectrum(e, f)
        assert spectrum_energy(spec) == spectrum_energy_bruteforce(e, f)


def test_full_space_discrepancy_is_zero():
    field = make_field(3)
    full = SplitPointSet.full(field, 2, 2)
    rep = discrepancy_report(full, full)
    assert rep.all_ok
    assert rep.max_ratio == 0.0
    for a in range(3):
        for b in range(3):
            assert rep.error[a][b] == 0


def test_discrepancy_random_sets_certified():
    for seed in range(3):
        e = _random_split(7, 2, 2, 300, seed)
        f = _random_split(7, 2, 2, 450, 10 + seed)
        rep = discrepancy_report(e, f)
        assert rep.all_ok
        # Main terms are exact rationals with denominator dividing q^(k+l).
        assert rep.main[1][1] == Fraction(300 * 450 * 8 * 8, 7**4)


def test_surjectivity_full_space_q3():
    field = make_field(3)
    full = SplitPointSet.full(field, 2, 2)
    sc = surjectivity_check(full, full)
    assert sc.threshold == 16 * 3**7
    assert not sc.threshold_met  # 81^2 = 6561 pairs, below 16 * 3^7 = 34992
    assert sc.surjective and sc.coverage == 9
    assert sc.consistent  # vacuously: the implication's hypothesis is unmet


def test_surjectivity_threshold_met_q17():
    field = make_field(17)
    full = SplitPointSet.full(field, 2, 2)
    sc = surjectivity_check(full, full)
    assert sc.threshold == 16 * 17**7
    assert sc.threshold_met  # 83521^2 > 16 * 17^7
    assert sc.surjective and sc.coverage == 289
    assert sc.consistent


def test_surjectivity_requires_block_dims():
    e = _random_split(3, 1, 2, 10, 3)
    with pytest.raises(ValueError):
        surjectivity_check(e, e)


def test_coverage_lower_bound_full_q3():
    field = make_field(3)
    full = SplitPointSet.full(field, 2, 2)
    bound, achieved, holds = coverage_lower_bound(full, full)
    assert bound == Fraction(729, 121)
    assert achieved == 9
    assert holds


def test_marginal_mass_single_point():
    field = make_field(3)
    e = SplitPointSet(field, 2, 2, [17])
    rep = marginal_spectral_mass(e)
    assert rep.exact == Fraction(1, 729)
    assert rep.bound == Fraction(1, 81)
    assert rep.holds and not rep.saturated
    assert rep.float_agrees


def test_marginal_mass_saturated_by_full_fiber():
    field = make_field(3)
    first = PointSet(field, 2, [4])
    e = SplitPointSet.product(first, PointSet.full(field, 2))
    rep = marginal_spectral_mass(e)
    assert rep.exact == rep.bound == Fraction(9, 81)
    assert rep.saturated and rep.holds


@settings(max_examples=20, deadline=None)
@given(st.sets(st.integers(0, 80), min_size=1, max_size=40))
def test_marginal_mass_property(codes):
    field = make_field(3)
    e = SplitPointSet(field, 2, 2, sorted(codes))
    rep = marginal_spectral_mass(e)
    assert rep.holds and rep.float_agrees


def test_split_file_roundtrip(tmp_path):
    e = _random_split(7, 2, 2, 40, 9)
    path = tmp_path / "split.txt"
    save_point_set(path, e.as_point_set(), split=(2, 2))
    loaded = load_split_point_set(path)
    assert loaded.k == 2 and loaded.l == 2
    assert loaded.codes.tolist() == e.codes.tolist()


def test_split_file_header_conflict(tmp_path):
    e = _random_split(7, 2, 2, 10, 9)
    path = tmp_path / "split.txt"
    save_point_set(path, e.as_point_set(), split=(2, 2))
    with pytest.raises(ValueError):
        load_split_point_set(path, 3, 1)  # contradicts the stored split


def test_spectrum_csv_roundtrip(tmp_path):
    e = _random_split(5, 2, 2, 60, 11)
    f = _random_split(5, 2, 2, 45, 12)
    spec = pair_spectrum(e, f)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec)
    back = read_spectrum_csv(path, e.field, 2, 2, len(e), len(f))
    assert np.array_equal(back.s, spec.s)
