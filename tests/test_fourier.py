"""Transform correctness: round trips, energy conservation, decay certificates."""

import dataclasses
import functools
import os
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqdist import fourier
from fqdist.errors import SizeGuardError
from fqdist.field import make_field
from fqdist.fourier import (
    DensityTable,
    SpectralTable,
    exact_phase_histogram,
    forward_transform,
    forward_transform_direct,
    indicator_table,
    inverse_transform,
    orthogonality_check,
    plancherel_gap,
    sphere_decay_check,
)
from fqdist.fourier import _real_half_transform, _sphere_characters, _sphere_sup
from fqdist.geometry import (
    PointSet,
    all_norms,
    decode_codes,
    encode_vectors,
    enumerate_sphere,
    norm_fiber_sizes,
)


def _random_table(q, d, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=q**d) + 1j * rng.normal(size=q**d)
    return DensityTable(make_field(q), d, values)


def test_forward_matches_defining_sum():
    table = _random_table(5, 2, 1)
    fast = forward_transform(table).coeffs
    direct = forward_transform_direct(table).coeffs
    assert np.max(np.abs(fast - direct)) < 1e-12


def test_roundtrip_identity():
    for q, d in [(3, 2), (7, 2), (5, 3)]:
        table = _random_table(q, d, q + d)
        back = inverse_transform(forward_transform(table)).values
        assert np.max(np.abs(back - table.values)) < 1e-10


@pytest.mark.parametrize("q", [2, 3, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_public_transforms_leave_their_input_unchanged(q, d, dtype):
    # Each public entry point copies its input once and transforms the copy in place.
    table = _random_table(q, d, 10 * q + d)
    values = table.values.real.copy() if dtype is np.float64 else table.values
    field = make_field(q)
    before = values.tobytes()
    forward_transform(DensityTable(field, d, values))
    assert values.tobytes() == before
    inverse_transform(SpectralTable(field, d, values))
    assert values.tobytes() == before
    plancherel_gap(DensityTable(field, d, values))
    assert values.tobytes() == before


def test_full_space_transform_is_delta_at_zero():
    f = make_field(7)
    spec = forward_transform(indicator_table(PointSet.full(f, 2))).coeffs
    assert spec[0] == pytest.approx(1.0)
    assert np.max(np.abs(spec[1:])) < 1e-12


def test_origin_indicator_transform_is_flat():
    f = make_field(5)
    spec = forward_transform(indicator_table(PointSet(f, 2, [0]))).coeffs
    assert np.max(np.abs(spec - 1 / 25)) < 1e-14


def test_single_point_modulus_is_flat():
    f = make_field(7)
    spec = forward_transform(indicator_table(PointSet(f, 2, [23]))).coeffs
    assert np.max(np.abs(np.abs(spec) - 1 / 49)) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 48), min_size=1, max_size=49))
def test_plancherel_on_indicators(codes):
    f = make_field(7)
    table = indicator_table(PointSet(f, 2, sorted(codes)))
    # Relative to the mass q^-d |E|, the gap is at float precision.
    assert plancherel_gap(table) < 1e-12 * (len(codes) / 49)


def test_parseval_inner_product():
    # sum_x f conj(g) = q^d sum_m fhat conj(ghat)
    q, d = 5, 2
    ft = _random_table(q, d, 2)
    gt = _random_table(q, d, 3)
    lhs = np.vdot(gt.values, ft.values)
    rhs = (q**d) * np.vdot(forward_transform(gt).coeffs, forward_transform(ft).coeffs)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_orthogonality_check_passes():
    for q, d in [(3, 2), (7, 2), (5, 2), (3, 3)]:
        rep = orthogonality_check(make_field(q), d)
        assert rep.passed
        assert rep.zero_frequency_sum == pytest.approx(q**d, rel=1e-12)


@pytest.mark.parametrize("frequency", [0, 5])
def test_orthogonality_check_fails_on_a_character_sum_off_by_one(monkeypatch, frequency):
    # The sum at m = 0 must be q^d and every other sum 0; the defining-sum route is patched.
    def off_by_one(table):
        spectrum = forward_transform_direct(table)
        coeffs = spectrum.coeffs.copy()
        coeffs[frequency] += 3.0**-2  # one more unit in the character sum
        return dataclasses.replace(spectrum, coeffs=coeffs)

    monkeypatch.setattr("fqdist.fourier.forward_transform_direct", off_by_one)
    assert not orthogonality_check(make_field(3), 2).passed


def test_orthogonality_guard():
    with pytest.raises(SizeGuardError):
        orthogonality_check(make_field(991), 2)


def test_sphere_decay_certificate():
    for q in (3, 7, 11):
        for d in (2, 3):
            rep = sphere_decay_check(make_field(q), d)
            assert rep.passed
            assert rep.max_ratio <= 1 + 1e-9


def test_sphere_decay_check_fails_above_a_halved_bound(monkeypatch):
    # At q = 3 the worst circle coefficient is 1/sqrt(3) of Weil's bound: 2/sqrt(3) of half.
    monkeypatch.setattr("fqdist.fourier._sphere_sup", lambda q, d, t: 3.0**-1.5)
    rep = sphere_decay_check(make_field(3), 2)
    assert rep.max_ratio == pytest.approx(2 / np.sqrt(3), abs=1e-12)
    assert not rep.passed


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_real_half_transform_is_leading_rows_of_forward(q, d):
    # Rows m_1 <= q/2 of the unnormalised spectrum, for q = 1 and 3 mod 4,
    # and every row at q = 2.
    values = np.random.default_rng(q * 10 + d).normal(size=q**d)
    full = forward_transform(DensityTable(make_field(q), d, values)).coeffs * float(q) ** d
    half = _real_half_transform(values, q, d)
    rows = (q // 2 + 1) * q ** (d - 1)
    assert half.shape == (rows,)
    assert np.max(np.abs(half - full[:rows])) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("q, d", [(2, 1), (2, 2), (2, 3), (2, 4), *((q, d) for q in (3, 5, 7, 11) for d in (2, 3))])
def test_sphere_decay_half_scan_matches_full_scan(q, d):
    # Scanning rows m_1 <= q/2 finds the extremum of the whole spectrum.
    field = make_field(q)
    rep = sphere_decay_check(field, d)
    full_max, full_t = 0.0, 0
    moduli_at_worst = None
    for t in range(1, q):
        moduli = np.abs(forward_transform(indicator_table(enumerate_sphere(field, d, t))).coeffs)
        moduli[0] = 0.0
        if moduli.max() > full_max:
            full_max, full_t = float(moduli.max()), t
        if t == rep.worst_t:
            moduli_at_worst = moduli
    # Weil's bound written out here, so a wrong bound in the report cannot cancel.
    assert rep.max_ratio == pytest.approx(full_max / (2.0 * q ** (-(d + 1) / 2.0)), rel=1e-12)
    assert rep.worst_t == full_t
    assert moduli_at_worst[int(encode_vectors(q, rep.worst_m))] == pytest.approx(full_max, rel=1e-12)


@functools.lru_cache(maxsize=None)
def _fresh_decay_scan(q, d):
    """The decay scan as one fresh _real_half_transform of each sphere's indicator."""
    bound = 2.0 * float(q) ** (-(d + 1) / 2.0)
    max_ratio, worst_t, worst_m = 0.0, 0, (0,) * d
    for t in range(1, q):
        values = (all_norms(q, d) == t).astype(np.float64)
        moduli = np.abs(_real_half_transform(values, q, d) * (float(q) ** -d))
        moduli[0] = 0.0
        m_idx = int(np.argmax(moduli))
        ratio = float(moduli[m_idx]) / bound
        if ratio > max_ratio:
            max_ratio, worst_t = ratio, t
            worst_m = tuple(int(x) for x in decode_codes(q, d, m_idx))
    return bound, max_ratio, worst_t, worst_m


@pytest.mark.parametrize("q, d", [*((2, d) for d in (1, 2, 3, 4)),
                                  *((q, d) for q in (3, 5, 7, 11, 13) for d in (2, 3)),
                                  (7, 4), (23, 4)])
def test_sphere_decay_scan_matches_a_fresh_transform_per_radius(q, d):
    # One workspace for every radius, and the first axis gathered from one
    # table, leave every float bit of the report as the per-radius route has it.
    rep = sphere_decay_check(make_field(q), d)
    bound, max_ratio, worst_t, worst_m = _fresh_decay_scan(q, d)
    assert rep.bound == bound
    assert rep.max_ratio == max_ratio
    assert rep.worst_t == worst_t
    assert rep.worst_m == worst_m
    assert rep.passed == (max_ratio <= 1.0 + 1e-9)


@pytest.mark.parametrize("q, d, workers", [
    (q, d, w) for q, d in (*((2, d) for d in (1, 2, 3, 4)), (3, 2), (7, 3), (11, 4), (23, 4))
    for w in sorted({1, 2, 3, q - 1})])
def test_sphere_decay_split_matches_a_fresh_transform_per_radius(monkeypatch, q, d, workers):
    # However the radii are split over threads, each radius runs the same
    # calls in its own workspace and the records fold in increasing t, so the
    # report keeps every bit.  At q = 2 a forced 2 or 3 leaves shares empty.
    monkeypatch.setattr(fourier, "_decay_workers", lambda q: workers)
    rep = sphere_decay_check(make_field(q), d)
    assert (rep.bound, rep.max_ratio, rep.worst_t, rep.worst_m) == _fresh_decay_scan(q, d)


@pytest.mark.parametrize("env, q, workers", [
    ({}, 23, 1),  # OpenBLAS's default: a BLAS thread per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 23, 4), ({"OPENBLAS_NUM_THREADS": "1"}, 3, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 23, 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, 23, 1), ({"OPENBLAS_NUM_THREADS": "9"}, 23, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 23, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 23, 2),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 23, 4),
    ({"OMP_NUM_THREADS": "1"}, 23, 4), ({"OMP_NUM_THREADS": "x"}, 23, 1),
])
def test_decay_workers_divide_the_cpus_by_the_blas_threads(monkeypatch, env, q, workers):
    # Four usable CPUs; the BLAS thread count is read as numpy's OpenBLAS reads it.
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert fourier._decay_workers(q) == workers


def test_sphere_decay_with_one_worker_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(fourier, "_decay_workers", lambda q: 1)
    monkeypatch.setattr(fourier, "threading", types.SimpleNamespace(Thread=no_thread))
    rep = sphere_decay_check(make_field(7), 3)
    assert (rep.bound, rep.max_ratio, rep.worst_t, rep.worst_m) == _fresh_decay_scan(7, 3)


@pytest.mark.parametrize("failing_start", [1, 2, 3], ids=["caller", "worker", "last-worker"])
def test_sphere_decay_share_error_is_raised_after_every_join(monkeypatch, failing_start):
    # Share i starts at radius 1 + i, and the caller runs share 0.  The other
    # shares are still busy when one fails, so no thread may outlive the call.
    scan = fourier._decay_share

    def share(roots, rest_norms, kernel, q, d, radii, workspace, records):
        if radii.start == failing_start:
            raise ValueError(f"share from radius {radii.start}")
        time.sleep(0.05)
        scan(roots, rest_norms, kernel, q, d, radii, workspace, records)

    monkeypatch.setattr(fourier, "_decay_workers", lambda q: 3)
    monkeypatch.setattr(fourier, "_decay_share", share)
    before = threading.active_count()
    with pytest.raises(ValueError, match=f"share from radius {failing_start}"):
        sphere_decay_check(make_field(7), 3)
    assert threading.active_count() == before


def test_sphere_decay_frozen_extremum():
    # Worst nonzero-frequency coefficient of a nonzero circle at q=3 comes to
    # exactly 1/sqrt(3) of the bound 2q^(-3/2).
    rep = sphere_decay_check(make_field(3), 2)
    assert rep.max_ratio == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    assert rep.bound == pytest.approx(2 * 3 ** (-1.5))


@pytest.mark.parametrize("q, d", [(13, 2), (7, 2), (7, 3), (7, 4), (5, 2), (5, 3), (13, 3)])
def test_sphere_sup_against_a_full_scan(q, d):
    # q = 5, 13 are 1 mod 4 and q = 7 is 3 mod 4: sigma_d(t) bounds every
    # nonzero radius's full-spectrum sup, and is the zero sphere's sup exactly.
    field = make_field(q)
    isotropic = norm_fiber_sizes(field, d)[0] > 1
    assert isotropic == (d > 2 or q % 4 == 1)
    for t in range(q):
        moduli = np.abs(forward_transform(indicator_table(enumerate_sphere(field, d, t))).coeffs)
        if t:
            assert moduli[1:].max() <= _sphere_sup(q, d, t) * (1 + 1e-9)
        else:
            assert _sphere_sup(q, d, t) == pytest.approx(moduli[1:].max(), rel=1e-9)


def test_sphere_characters_cached_with_a_column_per_norm_class():
    g = _sphere_characters(7, 2)
    assert g is _sphere_characters(7, 2)
    assert not g.flags.writeable
    assert g.shape == (7, 8)
    assert np.array_equal(g[:, 0], norm_fiber_sizes(make_field(7), 2))  # m = 0
    assert not g[:, 1].any()  # q = 3 mod 4: no nonzero isotropic m in the plane
    assert np.allclose(g[:, 1:].sum(axis=0), 0.0)  # sum over all v of chi(v.m), m != 0


def test_phase_histogram_counts_axis_line():
    # The x-axis line of F_3^2 against frequency (1,0): one point per phase.
    f = make_field(3)
    ps = PointSet.from_vectors(f, 2, [(0, 0), (1, 0), (2, 0)])
    hist = exact_phase_histogram(ps, (1, 0))
    assert hist.counts.tolist() == [1, 1, 1]
    assert abs(hist.coefficient()) < 1e-15  # the three cube roots of unity cancel


def test_phase_histogram_matches_transform():
    f = make_field(7)
    rng = np.random.default_rng(4)
    codes = np.nonzero(rng.random(49) < 0.4)[0]
    ps = PointSet(f, 2, codes)
    spec = forward_transform(indicator_table(ps)).coeffs
    for m in [(0, 0), (1, 0), (3, 5), (6, 6)]:
        hist = exact_phase_histogram(ps, m)
        assert hist.coefficient() == pytest.approx(spec[m[0] * 7 + m[1]], abs=1e-12)
        assert int(hist.counts.sum()) == len(ps)


def test_zero_frequency_is_density():
    f = make_field(5)
    ps = PointSet(f, 2, [1, 2, 3])
    spec = forward_transform(indicator_table(ps)).coeffs
    assert spec[0] == pytest.approx(3 / 25)
