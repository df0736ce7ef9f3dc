"""Two-block pair spectra: exact counting, dual routes, certificates."""

import importlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqdist.pair_spectrum as spectrum_module
from fqdist.errors import PrecisionError, SizeGuardError
from fqdist.field import make_field
from fqdist.fourier import forward_transform, indicator_table
from fqdist.geometry import (
    PointSet,
    encode_vectors,
    enumerate_sphere,
    norm_fiber_sizes,
    save_point_set,
)
from fqdist.pair_spectrum import (
    PairSpectrum,
    SplitPointSet,
    achieved_pairs,
    difference_histogram,
    discrepancy_report,
    distance_set,
    load_split_point_set,
    marginal_spectral_mass,
    pair_spectrum,
    pair_spectrum_fast,
    pair_spectrum_naive,
    spectrum_energy,
    spectrum_energy_bruteforce,
    surjectivity_check,
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


def test_split_set_transform_cached_and_bit_identical(monkeypatch, forward_transforms):
    e = _random_split(7, 2, 2, 300, 11)
    f = _random_split(7, 2, 2, 200, 12)
    fresh = forward_transform(indicator_table(e)).coeffs
    calls, reals = forward_transforms, []
    real_transform = spectrum_module._real_transform
    monkeypatch.setattr(spectrum_module, "_real_transform",
                        lambda *args: reals.append(args) or real_transform(*args))
    pair_spectrum_fast(e, f)
    pair_spectrum_fast(f, e)
    pair_spectrum_fast(e, e)
    assert len(reals) == 5  # once per distinct set per call
    assert calls == []
    assert "transform" not in vars(e) and "transform" not in vars(f)  # left uncomputed
    assert np.array_equal(e.transform, fresh)
    assert not e.transform.flags.writeable
    marginal_spectral_mass(e)
    difference_histogram(e, f)
    assert len(calls) == 2  # once for e, once for f


def test_split_set_transform_holds_its_table_and_one_workspace():
    # The complex indicator is transformed in place: two q^4 complex tables at the
    # peak, where a float indicator and a complex copy of it would hold 2.5.
    e = _random_split(13, 2, 2, 9000, 14)
    fresh = forward_transform(indicator_table(e)).coeffs  # also warms the kernel cache
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        coeffs = e.transform
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * 13**4
    assert np.array_equal(coeffs, fresh)


@pytest.mark.parametrize("q, k, l, size_e, size_f, seed", [(3, 1, 2, 12, 17, 31),
                                                        (7, 2, 2, 150, 90, 32)])
def test_difference_histogram_matches_literal_bincount(q, k, l, size_e, size_f, seed):
    e = _random_split(q, k, l, size_e, seed)
    f = _random_split(q, k, l, size_f, seed + 1)
    twin = SplitPointSet(e.field, k, l, e.codes.copy())
    point = SplitPointSet(e.field, k, l, [q ** (k + l) - 1])
    for a, b in ((e, f), (f, e), (e, e), (e, twin), (point, point), (point, f)):
        diffs = (a.coords()[:, None, :] - b.coords()[None, :, :]) % q
        literal = np.bincount(encode_vectors(q, diffs.reshape(-1, k + l)),
                              minlength=q ** (k + l))
        hist = difference_histogram(a, b)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, literal)


def test_product_set():
    f = make_field(3)
    first = PointSet.from_vectors(f, 2, [(0, 0), (1, 1)])
    second = PointSet.from_vectors(f, 2, [(2, 2)])
    prod = SplitPointSet.product(first, second)
    assert len(prod) == 2
    assert sorted(map(tuple, prod.coords().tolist())) == [(0, 0, 2, 2), (1, 1, 2, 2)]


def test_distance_set_small():
    f = make_field(3)
    ps = PointSet.from_vectors(f, 2, [(0, 0), (1, 0)])
    assert distance_set(ps) == {0, 1}
    axis = PointSet.from_vectors(f, 2, [(0, 0), (1, 0), (2, 0)])
    assert distance_set(axis) == {0, 1}  # differences 0, 1, 2 have norms 0, 1, 1


def _literal_distances(a, b):
    q = a.field.q
    diffs = (a.coords()[:, None, :] - b.coords()[None, :, :]) % q
    return {int(t) for t in np.unique((diffs * diffs).sum(axis=2) % q)}


@pytest.mark.parametrize("q, d, sizes", [(7, 2, (3, 2)), (13, 2, (5, 3)), (29, 2, (6, 4)),
                                         (23, 3, (5, 4)), (31, 2, (9, 7)), (41, 1, (5, 4))])
def test_distance_set_matches_a_literal_scan_on_seeded_pairs(q, d, sizes):
    # Small sets, so most of these distance sets miss some of the q norms.
    field = make_field(q)
    rng = np.random.default_rng(q * 10 + d)
    a, b = (PointSet(field, d, rng.choice(q**d, size=n, replace=False)) for n in sizes)
    assert distance_set(a, b) == distance_set(b, a) == _literal_distances(a, b)
    assert distance_set(a) == _literal_distances(a, a)


def test_distance_set_of_a_full_space_reads_the_norm_table(monkeypatch):
    for q in (3, 5, 7):
        field = make_field(q)
        rng = np.random.default_rng(q)
        for d in (1, 2, 3):
            full = PointSet.full(field, d)
            some = PointSet(field, d, rng.choice(q**d, size=min(5, q**d), replace=False))
            literal = _literal_distances(full, full)
            assert literal == _literal_distances(full, some) == _literal_distances(some, full)
            assert distance_set(full) == distance_set(full, some) == distance_set(some, full)
            assert distance_set(full) == literal
            assert literal == (set(range(q)) if d >= 2 else {x * x % q for x in range(q)})
    # No pair is scanned: a full factor of F_23^3 alone would be 1.48e8 pairs.
    monkeypatch.setattr(spectrum_module, "MAX_PAIRS", 0)
    big = PointSet.full(make_field(23), 3)
    assert distance_set(big) == set(range(23))
    with pytest.raises(SizeGuardError):
        distance_set(PointSet(make_field(23), 3, [0, 1]))


def test_distance_set_cross_and_refusals():
    f = make_field(7)
    a = PointSet.from_vectors(f, 2, [(0, 0), (1, 0)])
    c = PointSet.from_vectors(f, 2, [(3, 0)])
    assert distance_set(a, c) == {2, 4} == _literal_distances(a, c)  # 3^2 and 2^2
    with pytest.raises(ValueError, match="empty"):
        distance_set(a, PointSet(f, 2, []))
    with pytest.raises(ValueError, match="dimension"):
        distance_set(a, PointSet(f, 3, [0]))


@pytest.mark.parametrize("rows", [1, 3])
def test_literal_scans_agree_across_chunk_cuts(monkeypatch, rows):
    # Chunks of 3 rows divide none of the set sizes (50, 37, 7, 5), so each
    # scan ends on a short chunk.  At q = 101 the 7- and 5-point sets realise
    # only some distances, so a dropped or repeated row changes the set.
    e, f = _random_split(7, 2, 2, 50, 31), _random_split(7, 1, 2, 37, 32)
    g = _random_split(7, 1, 2, 50, 33)
    field = make_field(101)
    rng = np.random.default_rng(34)
    a = PointSet(field, 2, rng.choice(101**2, size=7, replace=False))
    c = PointSet(field, 2, rng.choice(101**2, size=5, replace=False))

    def scans():
        return (pair_spectrum_naive(e, e).s, pair_spectrum_naive(g, f).s,
                pair_spectrum_naive(f, g).s, distance_set(a), distance_set(a, c),
                distance_set(c, a))

    monkeypatch.setattr(spectrum_module, "_pair_chunk", lambda n_other, histogram: 10**9)
    whole = scans()
    assert all(len(found) < 101 for found in whole[3:])
    monkeypatch.setattr(spectrum_module, "_pair_chunk", lambda n_other, histogram: rows)
    cut = scans()
    for one_chunk, chunked in zip(whole[:3], cut[:3]):
        assert np.array_equal(one_chunk, chunked)
    assert whole[3:] == cut[3:]


@st.composite
def _factor_pairs(draw):
    q = draw(st.sampled_from((3, 5, 7)))
    k, l = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    field = make_field(q)

    def factor(d):
        codes = draw(st.sets(st.integers(0, q**d - 1), min_size=1, max_size=10))
        return PointSet(field, d, sorted(codes))

    return factor(k), factor(l), factor(k), factor(l)


@settings(max_examples=40, deadline=None)
@given(_factor_pairs())
def test_product_law_both_routes(factors):
    # B(A x B, C x D) = Delta(A, C) x Delta(B, D), on each route to the spectrum.
    a, b, c, d = factors
    e, f = SplitPointSet.product(a, b), SplitPointSet.product(c, d)
    law = {(s, t) for s in distance_set(a, c) for t in distance_set(b, d)}
    assert achieved_pairs(pair_spectrum_naive(e, f)) == law
    assert achieved_pairs(pair_spectrum_fast(e, f)) == law


def test_product_refuses_past_the_enumeration_limit(monkeypatch):
    field = make_field(3)
    monkeypatch.setattr(importlib.import_module("fqdist.geometry"), "MAX_ENUMERATION", 3**4 - 1)
    with pytest.raises(SizeGuardError, match="9 x 9 product points exceed the enumeration limit 80"):
        SplitPointSet.product(PointSet.full(field, 2), PointSet.full(field, 2))
    assert len(SplitPointSet.product(PointSet.full(field, 2), PointSet(field, 2, [0, 1]))) == 18


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


def test_spectrum_routes_refuse_a_count_that_breaks_the_mass(monkeypatch):
    # Each route checks that its counts sum to |E||F| before it returns them.
    e = _random_split(5, 2, 2, 70, 1)
    f = _random_split(5, 2, 2, 50, 2)
    snap = spectrum_module._snap
    with monkeypatch.context() as patch:
        patch.setattr(spectrum_module, "_snap", lambda values, what: snap(values, what) + 1)
        with pytest.raises(PrecisionError, match="spectrum mass 3525 != .* 3500"):
            pair_spectrum_fast(e, f)
    norms = spectrum_module._pairwise_norms
    # A scan that skips the first point of F counts 70 pairs too few.
    monkeypatch.setattr(spectrum_module, "_pairwise_norms",
                        lambda block, other, q: norms(block, other[1:], q))
    with pytest.raises(PrecisionError, match="spectrum mass 3430 != .* 3500"):
        pair_spectrum_naive(e, f)


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


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])  # 5 and 13 are 1 mod 4, the others 3 mod 4
@pytest.mark.parametrize("k, l", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (2, 4)])
def test_class_route_equals_literal_scan(q, k, l):
    ambient = q ** (k + l)
    e = _random_split(q, k, l, min(150, ambient // 2), q + 10 * k + l)
    f = _random_split(q, k, l, min(90, ambient // 3), q + 10 * k + l + 1)
    twin = SplitPointSet(e.field, k, l, e.codes.copy())
    point = SplitPointSet(e.field, k, l, [ambient - 1])
    for a, b in ((e, f), (f, e), (e, e), (e, twin), (point, point), (point, f)):
        assert np.array_equal(pair_spectrum_fast(a, b).s, pair_spectrum_naive(a, b).s)


def test_even_q_takes_the_literal_scan(monkeypatch):
    # At q = 2 the norm is linear, so a sphere transform is not constant on a norm class.
    e = _random_split(2, 2, 3, 20, 5)
    f = _random_split(2, 2, 3, 30, 6)
    with pytest.raises(ValueError, match="needs odd q"):
        pair_spectrum_fast(e, f)

    def refuse(*args):
        raise AssertionError("pair_spectrum took the transform route at q = 2")

    monkeypatch.setattr(spectrum_module, "pair_spectrum_fast", refuse)
    assert np.array_equal(pair_spectrum(e, f).s, pair_spectrum_naive(e, f).s)


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
        circle = enumerate_sphere(field, 2, 1).codes
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
    rep = discrepancy_report(pair_spectrum(full, full))
    assert rep.all_ok
    assert rep.max_ratio == 0.0
    for a in range(3):
        for b in range(3):
            assert rep.error[a][b] == 0


def test_discrepancy_random_sets_certified():
    for seed in range(3):
        e = _random_split(7, 2, 2, 300, seed)
        f = _random_split(7, 2, 2, 450, 10 + seed)
        rep = discrepancy_report(pair_spectrum(e, f))
        assert rep.all_ok
        # Main terms are exact rationals: integer numerators over q^(k+l).
        assert rep.main[1, 1] == 300 * 450 * 8 * 8
        assert rep.to_json_dict()["cells"][7 + 1]["main"] == str(
            Fraction(300 * 450 * 8 * 8, 7**4))


def test_discrepancy_full_space_q97_needs_big_numerators():
    # Synthetic: the full space of F_97^(2+2) has s = q^(k+l) |S_a^2| |S_b^2| exactly.
    field = make_field(97)
    n = 97**4
    sphere = norm_fiber_sizes(field, 2)
    spectrum = PairSpectrum(field, 2, 2, n, n, n * np.outer(sphere, sphere))
    rep = discrepancy_report(spectrum)
    assert not rep.error.any()
    assert rep.all_ok and rep.max_ratio == 0.0
    assert max(rep.main.flat) > np.iinfo(np.int64).max  # int64 numerators would wrap
    for cell in rep.to_json_dict()["cells"]:
        a, b = cell["a"], cell["b"]
        assert cell["main"] == str(Fraction(n * n * int(sphere[a]) * int(sphere[b]), n))
        assert cell["error"] == "0"


def _check_budget_edge_is_one_count_wide(q, a, b, rho_a=1.0, rho_b=1.0):
    """Move cell (a, b) of an exact spectrum of F_q^(2+2) to its budget's edge and one past.

    rho_a and rho_b are the radii's decay factors; the budget is returned.
    """
    # Sizes of 10^9 put the budget near 10^11, so one count is far below 1e-7 of it.
    field = make_field(q)
    n = 10**9
    sphere = [int(v) for v in norm_fiber_sizes(field, 2)]
    main = {(a, b): Fraction(n * n * sphere[a] * sphere[b], q**4)
            for a in range(q) for b in range(q)}
    s = np.array([[round(main[a, b]) for b in range(q)] for a in range(q)], dtype=np.int64)
    root = math.sqrt(float(n) * float(n))
    budget = (2.0 * float(q) ** 0.5 * root * float(sphere[b]) * rho_a
              + 2.0 * float(q) ** 0.5 * root * float(sphere[a]) * rho_b
              + 4.0 * float(q) ** 1.0 * root * (rho_a * rho_b))
    limit = budget * (1.0 + 1e-6)
    assert 1 < 1e-7 * budget
    inside = math.floor(main[a, b] + Fraction(limit))
    for count, ok in ((inside, True), (inside + 1, False)):
        # The per-cell rule the certificate states, in exact rationals.
        assert (abs(float(count - main[a, b])) <= limit) == ok
        cell_s = s.copy()
        cell_s[a, b] = count
        rep = discrepancy_report(PairSpectrum(field, 2, 2, n, n, cell_s))
        assert rep.budget[a, b] == budget
        assert rep.all_ok == ok and bool(rep.cell_ok[a, b]) == ok
        assert rep.cell_ok.sum() == q * q - (not ok)
        assert rep.error[a, b] == count * q**4 - n * n * sphere[a] * sphere[b]
    return budget


def test_discrepancy_budget_edge_is_one_count_wide():
    _check_budget_edge_is_one_count_wide(7, 2, 3)


def test_discrepancy_row_zero_budget_edge_is_one_count_wide():
    # q = 13 = 1 mod 4: rho_2(0) is the zero sphere's sup (q-1) q^-2 over Weil's 2 q^-3/2.
    q, n = 13, 10**9
    rho = (q - 1) * float(q) ** -2.0 / (2.0 * float(q) ** -1.5)
    budget = _check_budget_edge_is_one_count_wide(q, 0, 3, rho_a=rho)
    assert budget == pytest.approx(n * ((q - 1) * (q - 1) + 2 * q**0.5 * (2 * q - 1)
                                        + 2 * (q - 1) * q**0.5), rel=1e-12)


def test_discrepancy_budget_off_the_axes_is_weils_at_q13():
    # q = 13 = 1 mod 4: the plane has isotropic lines, so only row 0 and column 0 move.
    q = 13
    e, f = _random_split(q, 2, 2, 400, 1), _random_split(q, 2, 2, 500, 2)
    rep = discrepancy_report(pair_spectrum(e, f))
    sphere = norm_fiber_sizes(make_field(q), 2).astype(np.float64)
    root = float(np.sqrt(400.0 * 500.0))
    weil = (2.0 * float(q) ** 0.5 * root * sphere[None, :]
            + 2.0 * float(q) ** 0.5 * root * sphere[:, None]
            + 4.0 * float(q) ** 1.0 * root)
    assert np.array_equal(rep.budget[1:, 1:], weil[1:, 1:])
    assert (rep.budget[0] > weil[0]).all() and (rep.budget[:, 0] > weil[:, 0]).all()
    assert rep.all_ok


def test_surjectivity_full_space_q3():
    field = make_field(3)
    full = SplitPointSet.full(field, 2, 2)
    sc = surjectivity_check(pair_spectrum(full, full))
    assert sc.threshold == 16 * 3**7
    assert not sc.threshold_met  # 81^2 = 6561 pairs, below 16 * 3^7 = 34992
    assert sc.surjective and sc.coverage == 9
    assert sc.consistent  # vacuously: the implication's hypothesis is unmet


def test_surjectivity_threshold_met_q17():
    field = make_field(17)
    full = SplitPointSet.full(field, 2, 2)
    sc = surjectivity_check(pair_spectrum(full, full))
    assert sc.threshold == 16 * 17**7
    assert sc.threshold_met  # 83521^2 > 16 * 17^7
    assert sc.surjective and sc.coverage == 289
    assert sc.consistent


def test_surjectivity_inconsistent_when_the_threshold_is_met_and_a_cell_is_empty():
    # 200^2 = 40000 pairs clear 16 * 3^7 = 34992, so every cell must be reached.
    s = np.full((3, 3), 40000 // 8, dtype=np.int64)
    s[2, 1] = 0
    sc = surjectivity_check(PairSpectrum(make_field(3), 2, 2, 200, 200, s))
    assert sc.threshold_met and sc.coverage == 8 and not sc.surjective
    assert not sc.consistent


def test_surjectivity_requires_block_dims():
    e = _random_split(3, 1, 2, 10, 3)
    with pytest.raises(ValueError):
        surjectivity_check(pair_spectrum(e, e))


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


def test_marginal_mass_float_route_must_agree():
    # The float route reads the cached transform; one coefficient moved at m = 0 must show.
    e = SplitPointSet(make_field(3), 2, 2, [4, 17, 40])
    assert marginal_spectral_mass(e).float_agrees
    coeffs = e.transform.copy()
    coeffs[0] += 0.5
    e.__dict__["transform"] = coeffs
    rep = marginal_spectral_mass(e)
    assert rep.holds and not rep.float_agrees


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
    save_point_set(path, e, split=(2, 2))
    loaded = load_split_point_set(path, 2, 2)
    assert loaded.k == 2 and loaded.l == 2
    assert loaded.codes.tolist() == e.codes.tolist()


def test_split_file_header_conflict(tmp_path):
    e = _random_split(7, 2, 2, 10, 9)
    path = tmp_path / "split.txt"
    save_point_set(path, e, split=(2, 2))
    with pytest.raises(ValueError):
        load_split_point_set(path, 3, 1)  # contradicts the stored split
    save_point_set(path, e)  # no stored split: the ambient decides
    with pytest.raises(ValueError, match=r"ambient dimension 4 does not match split 1\+2"):
        load_split_point_set(path, 1, 2)
