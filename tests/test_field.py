"""Prime-field arithmetic, characters, and the rotation group."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqdist.errors import SizeGuardError
from fqdist.field import (
    MAX_MODULUS,
    Rotation,
    enumerate_so2,
    is_prime,
    make_field,
    quadratic_character,
    rotation_apply,
    rotation_code_permutation,
    rotation_compose,
    rotation_inverse,
    so2_orbit_check,
)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(-2, 30):
        assert is_prime(n) == (n in primes)


def test_field_rejects_composite_and_bad_types():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(TypeError):
        make_field(7.0)
    with pytest.raises(SizeGuardError):
        make_field(1_000_003)  # prime, but beyond the modulus guard
    assert is_prime(MAX_MODULUS - 17)  # the guard is about size, not primality


def test_field_attributes():
    f = make_field(7)
    assert f.q == 7 and f.q_mod_4 == 3
    assert make_field(5).q_mod_4 == 1
    assert len(f.char_table) == 7
    assert not f.char_table.flags.writeable


def test_character_values():
    table = make_field(3).char_table
    omega = np.exp(2j * np.pi / 3)
    assert table[0] == pytest.approx(1.0)
    assert table[1] == pytest.approx(omega)
    assert table[2] == pytest.approx(omega**2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 22), st.integers(0, 22))
def test_character_multiplicative(a, b):
    table = make_field(23).char_table
    assert table[a] * table[b] == pytest.approx(table[(a + b) % 23])


def test_character_sums_to_zero():
    for q in (3, 5, 7, 11):
        assert abs(make_field(q).char_table.sum()) < 1e-12


def test_quadratic_character_q7():
    f = make_field(7)
    assert quadratic_character(f, 0) == 0
    squares = {1, 2, 4}
    for t in range(1, 7):
        assert quadratic_character(f, t) == (1 if t in squares else -1)


def test_so2_q3_frozen():
    rots = enumerate_so2(make_field(3))
    assert sorted((r.a, r.b) for r in rots) == [(0, 1), (0, 2), (1, 0), (2, 0)]


def test_so2_sizes():
    # q = 3 mod 4 gives q + 1 rotations; q = 1 mod 4 gives q - 1.
    for q, expected in [(3, 4), (7, 8), (11, 12), (19, 20), (23, 24), (5, 4), (13, 12)]:
        assert len(enumerate_so2(make_field(q))) == expected
    # The field is immutable: the rotation layer caches nothing on it.
    f = make_field(11)
    before = dict(vars(f))
    enumerate_so2(f)
    so2_orbit_check(f)
    assert vars(f).keys() == before.keys()
    assert all(vars(f)[name] is value for name, value in before.items())


def test_rotation_apply_frozen():
    f = make_field(3)
    r = Rotation(0, 1)
    assert rotation_apply(f, r, (1, 0)) == (0, 1)
    assert rotation_apply(f, r, (1, 2)) == (1, 1)
    # Identity fixes everything.
    ident = Rotation(1, 0)
    assert rotation_apply(f, ident, (2, 1)) == (2, 1)


def test_rotation_group_laws_q7():
    f = make_field(7)
    rots = enumerate_so2(f)
    members = {(r.a, r.b) for r in rots}
    ident = Rotation(1, 0)
    for r in rots:
        inv = rotation_inverse(f, r)
        assert (inv.a, inv.b) in members
        assert rotation_compose(f, r, inv) == ident
        for s in rots:
            comp = rotation_compose(f, r, s)
            assert (comp.a, comp.b) in members


def test_rotation_compose_matches_matrix_product():
    f = make_field(11)
    rots = enumerate_so2(f)
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = rots[rng.integers(len(rots))]
        s = rots[rng.integers(len(rots))]
        v = (int(rng.integers(11)), int(rng.integers(11)))
        # Applying s then r equals applying the composition.
        assert rotation_apply(f, rotation_compose(f, r, s), v) == \
            rotation_apply(f, r, rotation_apply(f, s, v))


def test_orbit_check_passes_for_3_mod_4():
    for q in (3, 7, 11):
        rep = so2_orbit_check(make_field(q))
        assert rep.passed
        assert rep.so2_size == q + 1
        assert rep.vectors_checked == q * q - 1


def test_orbit_check_names_the_first_failing_vector(monkeypatch):
    # One rotation sends code 20 = (2, 6), of norm 5, where it sends code
    # 21 = (3, 0), of norm 2; codes 1 .. 19 keep their circles.
    f = make_field(7)
    broken = enumerate_so2(f)[3]

    def patched(field, rot):
        perm = rotation_code_permutation(field, rot)  # this module's name is not patched
        if rot == broken:
            perm[20] = perm[21]
        return perm

    monkeypatch.setattr("fqdist.field.rotation_code_permutation", patched)
    rep = so2_orbit_check(f)
    assert (rep.passed, rep.vectors_checked, rep.counterexample) == (False, 19, (2, 6, "orbit"))
    assert rep.so2_size == 8


def test_orbit_check_gates():
    with pytest.raises(ValueError):
        so2_orbit_check(make_field(5))
    with pytest.raises(SizeGuardError):
        so2_orbit_check(make_field(991))


def test_rotation_preserves_norm():
    f = make_field(7)
    for r in enumerate_so2(f):
        for v in [(1, 0), (2, 5), (6, 6)]:
            w = rotation_apply(f, r, v)
            assert (w[0] ** 2 + w[1] ** 2) % 7 == (v[0] ** 2 + v[1] ** 2) % 7
