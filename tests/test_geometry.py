"""Vector encoding, norms, spheres, and point-set containers."""

import importlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqdist import (
    ExperimentConfig,
    PointSet,
    SizeGuardError,
    SplitPointSet,
    all_norms,
    decode_codes,
    difference_histogram,
    encode_vectors,
    enumerate_sphere,
    generate_set,
    indicator_table,
    load_point_set,
    make_field,
    norm_fiber_sizes,
    save_point_set,
)


def test_encode_decode_frozen():
    # Codes read the coordinates most-significant first.
    assert encode_vectors(3, [(1, 2)]).tolist() == [5]
    assert decode_codes(3, 2, [5]).tolist() == [[1, 2]]
    assert encode_vectors(3, [(0, 0), (2, 2)]).tolist() == [0, 8]


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_vectors(3, [(0, 3)])
    with pytest.raises(ValueError):
        encode_vectors(3, [(-1, 0)])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
                min_size=1, max_size=20))
def test_encode_decode_roundtrip(vectors):
    codes = encode_vectors(7, vectors)
    back = decode_codes(7, 3, codes)
    assert [tuple(v) for v in back] == [tuple(v) for v in vectors]


def test_fiber_sizes_frozen():
    f = make_field(3)
    assert norm_fiber_sizes(f, 1).tolist() == [1, 2, 0]
    assert norm_fiber_sizes(f, 2).tolist() == [1, 4, 4]


def test_fiber_sizes_sum_to_space():
    for q, d in [(3, 2), (5, 3), (7, 2), (11, 2)]:
        counts = norm_fiber_sizes(make_field(q), d)
        assert int(counts.sum()) == q**d


def test_sphere_count_law():
    # Nonzero spheres have q^(d-1) points up to 2q^(d-2), exactly.
    for q in (3, 7, 11):
        for d in (2, 3, 4):
            counts = norm_fiber_sizes(make_field(q), d)
            for t in range(1, q):
                assert abs(int(counts[t]) - q ** (d - 1)) <= 2 * q ** (d - 2)


def test_unit_circle_q3_frozen():
    s = enumerate_sphere(make_field(3), 2, 1)
    assert sorted(s.points()) == [(0, 1), (0, 2), (1, 0), (2, 0)]


def test_sphere_size_frozen_731():
    assert len(enumerate_sphere(make_field(7), 3, 1).codes) == 42


def test_exact_three_dim_sphere_sizes():
    # In three dimensions nonzero spheres have q^2 + q*eta(-t) points exactly.
    from fqdist import quadratic_character

    for q in (3, 7, 11):
        f = make_field(q)
        counts = norm_fiber_sizes(f, 3)
        for t in range(1, q):
            eta = quadratic_character(f, (-t) % q)
            assert int(counts[t]) == q * q + q * eta


def test_all_norms_cached_and_readonly():
    a = all_norms(5, 2)
    b = all_norms(5, 2)
    assert a is b
    assert not a.flags.writeable


def test_all_norms_guard():
    with pytest.raises(SizeGuardError):
        all_norms(101, 4)  # 104 million codes


def test_one_enumeration_limit_moves_every_guard(monkeypatch):
    field = make_field(3)
    e = SplitPointSet(field, 2, 2, [0, 5, 40])
    assert all_norms(3, 4) is all_norms(3, 4)  # cached before the limit drops
    assert len(e.transform) == 3**4  # cached, so difference_histogram builds no indicator table
    monkeypatch.setattr(importlib.import_module("fqdist.geometry"), "MAX_ENUMERATION", 3**4 - 1)
    for refused in (
        lambda: all_norms(3, 4),
        lambda: PointSet.full(field, 4),
        lambda: SplitPointSet.full(field, 2, 2),
        lambda: indicator_table(e.as_point_set()),
        lambda: difference_histogram(e, e),
        lambda: generate_set(ExperimentConfig(q=3, generator="bernoulli")),
    ):
        with pytest.raises(SizeGuardError, match="enumeration limit 80$"):
            refused()
    assert len(PointSet.full(field, 3)) == 27


def test_point_set_canonicalizes():
    f = make_field(5)
    ps = PointSet(f, 2, [7, 3, 7, 3, 0])
    assert ps.codes.tolist() == [0, 3, 7]
    assert len(ps) == 3


@pytest.mark.parametrize("make", [
    lambda field, codes: PointSet(field, 4, codes),
    lambda field, codes: SplitPointSet(field, 2, 2, codes),
], ids=["PointSet", "SplitPointSet"])
def test_set_codes_canonical_read_only_and_owned(make):
    f = make_field(3)
    assert make(f, np.array([80, 5, 0, 5, 7])).codes.tolist() == [0, 5, 7, 80]
    assert make(f, [[7, 0], [80, 7]]).codes.tolist() == [0, 7, 80]
    caller = np.array([0, 5, 7, 80])
    s = make(f, caller)
    caller[0] = 1  # the set copied the caller's writable array
    assert s.codes.tolist() == [0, 5, 7, 80]
    assert not s.codes.flags.writeable
    with pytest.raises(ValueError):
        s.codes[0] = 2
    # Another set's read-only codes are taken as they are.
    assert np.shares_memory(make(f, s.codes).codes, s.codes)
    with pytest.raises(ValueError):
        make(f, [3, 81])


def test_split_set_views_share_codes():
    s = SplitPointSet(make_field(3), 2, 2, [9, 0, 40])
    ps = s.as_point_set()
    assert np.shares_memory(ps.codes, s.codes)
    assert np.shares_memory(SplitPointSet.from_point_set(ps, 1, 3).codes, s.codes)


def test_point_set_rejects_out_of_range():
    f = make_field(3)
    with pytest.raises(ValueError):
        PointSet(f, 2, [9])
    with pytest.raises(ValueError):
        PointSet(f, 2, [-1])


def test_point_set_from_vectors_reduces_mod_q():
    f = make_field(3)
    ps = PointSet.from_vectors(f, 2, [(4, 5)])
    assert ps.points() == [(1, 2)]


def test_full_point_set():
    f = make_field(3)
    ps = PointSet.full(f, 2)
    assert len(ps) == 9
    with pytest.raises(SizeGuardError):
        PointSet.full(make_field(997), 3)


def test_save_load_roundtrip(tmp_path):
    f = make_field(7)
    ps = PointSet.from_vectors(f, 4, [(1, 2, 3, 4), (0, 0, 0, 0), (6, 6, 6, 6)])
    path = tmp_path / "points.txt"
    save_point_set(path, ps, split=(2, 2))
    loaded, split = load_point_set(path)
    assert split == (2, 2)
    assert loaded.field.q == 7 and loaded.d == 4
    assert loaded.codes.tolist() == ps.codes.tolist()


def test_save_load_without_split(tmp_path):
    f = make_field(3)
    ps = PointSet.from_vectors(f, 2, [(1, 1)])
    path = tmp_path / "p.txt"
    save_point_set(path, ps)
    loaded, split = load_point_set(path)
    assert split is None
    assert loaded.points() == [(1, 1)]


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no header here\n1,2\n")
    with pytest.raises(ValueError):
        load_point_set(path)
    path.write_text("q=4 dims=2\n1,2\n")
    with pytest.raises(ValueError):
        load_point_set(path)
    for header in ("q=x dims=2", "q=7 dims=2 split=1", "q=7 dims=2 split=1,1,0"):
        path.write_text(f"# comment\n{header}\n1,2\n")
        with pytest.raises(ValueError, match=r"bad\.txt, line 2: "):
            load_point_set(path)


@pytest.mark.parametrize("point, reason", [
    ("1,2,7", r"not in \[0, 7\)"),
    ("-1,0,0", r"not in \[0, 7\)"),
    ("99999999999999999999,0,0", r"not in \[0, 7\)"),
    ("10,0,0", r"not in \[0, 7\)"),
    ("0,1,2", "listed twice"),
    ("0,x,2", "non-integer"),
    ("0,1.5,2", "non-integer"),
    ("+3,0,0", "non-integer"),
    ("1_0,0,0", "non-integer"),
    ("\u0663,0,0", "non-integer"),  # ARABIC-INDIC DIGIT THREE
    ("0,1,2\r3,3,3", "non-integer"),  # a lone \r ends no line
    ("3 3,0,0", "non-integer"),
])
def test_load_rejects_noncanonical_points(tmp_path, point, reason):
    path = tmp_path / "bad.txt"
    path.write_text(f"# comment\nq=7 dims=3\n0,1,2\n\n# another\n{point}\n3,3,3\n")
    with pytest.raises(ValueError, match=rf"bad\.txt, line 6: .*{reason}"):
        load_point_set(path)


def test_load_reports_first_repeated_line(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("q=3 dims=2\n2,2\n1,1\n0,0\n1,1\n2,2\n")
    with pytest.raises(ValueError, match=r"line 5: point '1,1' is listed twice"):
        load_point_set(path)


@pytest.mark.parametrize("newline, last", [("\r\n", "\r\n"), ("\n", ""), ("\r\n", "")],
                         ids=["crlf", "no-final-newline", "crlf-no-final-newline"])
def test_load_line_endings(tmp_path, newline, last):
    path = tmp_path / "p.txt"
    path.write_bytes(newline.join(["q=7 dims=2", "# c", "1, 2", "0,6 "]).encode() + last.encode())
    loaded, split = load_point_set(path)
    assert split is None
    assert loaded.points() == [(0, 6), (1, 2)]


_BLANKS = " \t\r\v\f"
_TOKEN = re.compile(f"[{_BLANKS}]*-?[0-9]+[{_BLANKS}]*")


def _reference_load(path):
    """The point-set grammar read literally, one line at a time.

    Returns ("ok", codes, split) or ("error", line number, kind).
    """
    lines = path.read_bytes().decode().split("\n")
    kept = [(number, line.strip(_BLANKS)) for number, line in enumerate(lines, 1)
            if line.strip(_BLANKS) and not line.strip(_BLANKS).startswith("#")]
    fields = dict(token.split("=") for token in kept[0][1].split())
    q, d = int(fields["q"]), int(fields["dims"])
    split = tuple(int(v) for v in fields["split"].split(",")) if "split" in fields else None
    rows = []
    for number, line in kept[1:]:
        tokens = line.split(",")
        if not all(_TOKEN.fullmatch(token) for token in tokens):
            return "error", number, "non-integer"
        if len(tokens) != d:
            return "error", number, "coordinates"
        rows.append((number, tuple(int(token) for token in tokens)))
    for number, row in rows:
        if not all(0 <= x < q for x in row):
            return "error", number, "range"
    seen = set()
    for number, row in rows:
        if row in seen:
            return "error", number, "twice"
        seen.add(row)
    return "ok", sorted(int(encode_vectors(q, row)) for row in seen), split


_KINDS = {"non-integer token": "non-integer", "does not have": "coordinates",
          "are not in [0,": "range", "is listed twice": "twice"}


_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "5", "6", " 1", "2 ", "\t3", "-0", "05", "9", "-1", "10"])


@settings(max_examples=40, deadline=None)
@given(
    header=st.sampled_from(["q=11 dims=2", "q=7 dims=1", " q=19 dims=3 split=1,2"]),
    before=st.lists(st.sampled_from(["", "# note", " \t", "\t# 1,2"]), max_size=2),
    newline=st.sampled_from(["\n", "\r\n"]),
    last=st.booleans(),
    data=st.data(),
)
def test_load_matches_reference_parser(tmp_path_factory, header, before, newline, last, data):
    d = int(header.split("dims=")[1][0])
    body = data.draw(st.lists(st.one_of(
        st.lists(_TOKENS, min_size=d, max_size=d).map(",".join),
        st.lists(_TOKENS, min_size=1, max_size=3).map(",".join),
        st.text(alphabet="0123456789,,,-  \t#x", max_size=9),
    ), max_size=8))
    path = tmp_path_factory.mktemp("fuzz") / "points.txt"
    path.write_bytes((newline.join([*before, header, *body]) + (newline if last else "")).encode())
    expected = _reference_load(path)
    try:
        loaded, split = load_point_set(path)
    except ValueError as exc:
        found = re.fullmatch(rf"{re.escape(str(path))}, line (\d+): (.*)", str(exc), re.S)
        assert found, exc
        kind = next(k for text, k in _KINDS.items() if text in found[2])
        assert expected == ("error", int(found[1]), kind)
    else:
        assert expected == ("ok", loaded.codes.tolist(), split)
