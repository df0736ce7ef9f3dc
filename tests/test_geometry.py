"""Vector encoding, norms, spheres, and point-set containers."""

import importlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqdist.errors import SizeGuardError
from fqdist.experiments import ExperimentConfig, generate_set
from fqdist.field import make_field
from fqdist.fourier import indicator_table
from fqdist.geometry import (
    PointSet,
    all_norms,
    decode_codes,
    encode_vectors,
    enumerate_sphere,
    load_point_set,
    norm_fiber_sizes,
    save_point_set,
)
from fqdist.pair_spectrum import SplitPointSet, difference_histogram


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
    from fqdist.field import quadratic_character

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
        lambda: indicator_table(e),
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
    ps = PointSet(s.field, s.d, s.codes)
    assert np.shares_memory(ps.codes, s.codes)
    assert np.shares_memory(SplitPointSet(ps.field, 1, 3, ps.codes).codes, s.codes)


def test_split_set_is_a_point_set():
    field = make_field(3)
    s = SplitPointSet(field, 1, 3, [9, 0, 40])
    assert isinstance(s, PointSet) and (s.k, s.l, s.d) == (1, 3, 4)
    assert s.points() == PointSet(field, 4, s.codes).points()
    # No inherited constructor builds a split set without its split.
    assert type(SplitPointSet.from_vectors(field, 4, [(0, 0, 0, 1)])) is PointSet


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


@pytest.mark.parametrize("header, reason", [
    ("q=7 dims=4 split=0,4", r"needs split=<k>,<l> with k, l >= 1"),
    ("q=7 dims=4 split=-1,5", r"needs split=<k>,<l> with k, l >= 1"),
    ("q=7 dims=4 q=11", "repeats the field 'q'"),
    ("q=7 dims=4 split=2,2 split=2,2", "repeats the field 'split'"),
    ("q=7 dims=4 sprit=1,1", "has an unknown field 'sprit'"),
    ("q=7 dims", "has a malformed token 'dims'"),
    ("q=7 split=1,1", "must declare q= and dims="),
])
def test_load_refuses_a_bad_header_on_its_line(tmp_path, header, reason):
    path = tmp_path / "bad.txt"
    path.write_text(f"# comment\n{header}\n1,2,3,4\n")
    expected = rf"bad\.txt, line 2: header '{re.escape(header)}' {reason}"
    with pytest.raises(ValueError, match=expected):
        load_point_set(path)


@pytest.mark.parametrize("header, error, reason", [
    ("q=4 dims=2", ValueError, "modulus must be prime, got 4"),
    ("q=1 dims=2", ValueError, "modulus must be prime, got 1"),
    ("q=1000003 dims=2", SizeGuardError, "modulus 1000003 exceeds the desk-scale limit"),
])
def test_load_names_the_header_line_of_a_bad_modulus(tmp_path, header, error, reason):
    path = tmp_path / "bad.txt"
    path.write_text(f"# comment\n{header}\n1,2\n")
    with pytest.raises(error, match=rf"bad\.txt, line 2: header '{header}': {reason}"):
        load_point_set(path)


@pytest.mark.parametrize("split", [(0, 4), (-1, 5), (2, 3)])
def test_save_refuses_a_bad_split(tmp_path, split):
    path = tmp_path / "p.txt"
    with pytest.raises(ValueError, match=r"needs k, l >= 1 and k \+ l = dims 4"):
        save_point_set(path, PointSet(make_field(7), 4, [0]), split=split)
    assert not path.exists()


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
    # Tokens np.fromstring would misread: a lone -, a blank-only token, a sign
    # apart from its digits, an empty last token, blanks inside a number, an
    # overflow it clamps, and a wrong count that adds up to whole rows.
    ("-,0,0", "non-integer"),
    ("0, ,0", "non-integer"),
    ("- 0,0,0", "non-integer"),
    ("0,0,", "non-integer"),
    ("0 \t1,0,0", "non-integer"),
    ("-99999999999999999999,0,0", r"not in \[0, 7\)"),
    ("0,1,2,3\n3,3", "does not have 3 coordinates"),
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


@pytest.mark.parametrize("text, line", [
    ("2,2\n\n1,1\n\n0,0\n1,1\n", 8),  # the plain read takes the data as it is
    ("2,2\n \t\n1, 1\n\t\n0,0\n 1,1\n", 8),
    ("2,2\n# c\n1,1\n\n \t\n#\n0,0\n1,1\n", 10),  # and these once skipped lines are emptied
    ("2,2\r\n\r\n1,1\r\n # c\r\n0,0\r\n1,1\r\n", 8),
], ids=["blank-lines", "blank-only-lines", "comment-lines", "crlf"])
def test_load_numbers_a_repeat_without_the_line_reader(tmp_path, monkeypatch, text, line):
    # A repeat in data the plain read took is numbered from the newlines of
    # the bytes it read; the per-line reader never runs.
    def read_lines(*args):
        raise AssertionError("the per-line reader ran on data the plain read takes")

    monkeypatch.setattr(importlib.import_module("fqdist.geometry"), "_read_lines", read_lines)
    path = tmp_path / "dup.txt"
    path.write_bytes(("# lead\nq=3 dims=2\n" + text).encode())
    with pytest.raises(ValueError, match=rf"line {line}: point '1,1' is listed twice"):
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


# Tokens of plain data, which the plain read takes or refuses (the first six are ones
# np.fromstring would misread; sampled_from draws its first entries most often), and
# tokens that only the line reader takes.
_PLAIN_TOKENS = st.sampled_from(
    ["-", " ", "- 0", "", "99999999999999999999", "3 3",
     "0", "1", "2", "3", "4", "5", "6", " 1", "2 ", "\t3", "-0", "05", "9", "-1", "10"])
_TOKENS = st.one_of(_PLAIN_TOKENS, st.sampled_from(["\r4", "5\v", "\f6", "+1"]))
_SKIPPED_LINES = st.sampled_from(["", "# note", " \t", "\t# 1,2", "\v", "\f# 1"])
# Plain tokens np.fromstring would misread: a lone -, a sign or digits apart,
# which read as -0 = 0 or 10 once blanks go, blanks only, and an overflow it clamps.
_MISREAD_TOKENS = ["-", "-  0", "- 0", "1 \t0", " - ", "", " \t", "3 3", "99999999999999999999"]


@st.composite
def _spoilt_bodies(draw, q, d):
    """Lines of distinct points in [0, q)^d as plain tokens, and one copy of them per
    way to spoil line i: a token of _MISREAD_TOKENS in place of coordinate j, the next
    line's point appended (2d values, a wrong count that adds up to whole rows), or a
    trailing comma.  Every spoil is made, since sampled_from draws its first entries
    far more often than the rest."""
    points = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * d),
                           min_size=2, max_size=6, unique=True))
    lines = [[draw(st.sampled_from(["{}", " {}", "{}\t", "0{}"])).format(x) for x in point]
             for point in points]
    i, j = draw(st.integers(0, len(lines) - 2)), draw(st.integers(0, d - 1))
    spoilt = []
    for token in _MISREAD_TOKENS:
        spoilt.append([list(tokens) for tokens in lines])
        spoilt[-1][i][j] = token
    spoilt.append([*lines[:i], lines[i] + lines[i + 1], *lines[i + 2:]])
    spoilt.append([*lines[:i], [*lines[i], ""], *lines[i + 1:]])
    return [[",".join(tokens) for tokens in body] for body in (lines, *spoilt)]


@settings(max_examples=100, deadline=None)
@given(
    header=st.sampled_from(["q=11 dims=2", "q=7 dims=1", " q=19 dims=3 split=1,2"]),
    before=st.lists(_SKIPPED_LINES, max_size=2),
    newline=st.sampled_from(["\n", "\r\n"]),
    last=st.booleans(),
    data=st.data(),
)
def test_load_matches_reference_parser(tmp_path_factory, header, before, newline, last, data):
    # Free lines mostly fail before the plain read's byte checks, so three examples
    # in four read valid lines and then each spoilt copy, which the plain read must refuse.
    q, d = int(header.split("q=")[1].split()[0]), int(header.split("dims=")[1][0])
    free = st.lists(st.one_of(
        st.lists(_PLAIN_TOKENS, min_size=d, max_size=d).map(",".join),
        st.lists(_TOKENS, min_size=d, max_size=d).map(",".join),
        st.lists(_TOKENS, min_size=1, max_size=3).map(",".join),
        st.lists(_PLAIN_TOKENS, min_size=d, max_size=d).map(lambda t: ",".join(t) + " # c"),
        _SKIPPED_LINES,
        st.text(alphabet="0123456789,,,-  \t\r\v\f#+x", max_size=9),
    ), max_size=8)
    bodies = data.draw(_spoilt_bodies(q, d)) if data.draw(st.integers(0, 3)) else [data.draw(free)]
    path = tmp_path_factory.mktemp("fuzz") / "points.txt"
    for body in bodies:
        path.write_bytes((newline.join([*before, header, *body])
                          + (newline if last else "")).encode())
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


@pytest.mark.parametrize("text, plain_reads, reads_lines", [
    ("6,0,1\n0,0,0\n3,5,2\n", 1, False),
    ("# comment\n6,0,1\n \t\n0,0,0\n3,5,2\n", 2, False),
    ("6,0,1\r\n0,0,0\r\n3,5,2\r\n", 2, False),
    ("6\r,0,1\n0,0,0\n3,5,2\n", 2, True),
    ("6, 0,1 \n\t0 ,0,\t0\n 3,  5,2\n", 1, False),
    ("6,-0,1\n-00,0,0\n3,5,0002\n", 1, False),
    ("\n6,0,1\n\n\n0,0,0\n \t\n3,5,2\n\n", 1, False),
], ids=["plain", "skipped-lines", "crlf", "carriage-return", "blank-padded", "minus-zero",
        "empty-lines"])
def test_load_reads_plain_data_without_the_line_reader(tmp_path, monkeypatch, text, plain_reads,
                                                        reads_lines):
    # The plain read takes plain data at once, blanks, -0 and empty lines
    # included, and comment lines or \r\n on its second try; only the lone \r
    # goes through the per-line reader.  All give the same codes.
    geometry = importlib.import_module("fqdist.geometry")
    calls = []

    def read_plain(*args, _real=geometry._read_plain):
        calls.append("plain")
        return _real(*args)

    def read_lines(*args, _real=geometry._read_lines):
        calls.append("lines")
        assert reads_lines, "the per-line reader ran on data the plain read takes"
        return _real(*args)

    monkeypatch.setattr(geometry, "_read_plain", read_plain)
    monkeypatch.setattr(geometry, "_read_lines", read_lines)
    path = tmp_path / "p.txt"
    path.write_text("q=7 dims=3\n" + text)
    loaded, _ = load_point_set(path)
    assert loaded.codes.tolist() == sorted(encode_vectors(7, [(6, 0, 1), (0, 0, 0), (3, 5, 2)]))
    assert calls == ["plain"] * plain_reads + ["lines"] * reads_lines


def test_load_refuses_rows_a_fromstring_that_stops_early_leaves_short(tmp_path, monkeypatch):
    # A numpy that only warns on unmatched data has np.fromstring stop at the
    # first token it cannot read, where numpy 2.4 raises.  Here it stops after
    # one whole row of two, so only the count of values refuses the plain read.
    def stops_early(text, dtype, sep):
        values = []
        for token in text.split(sep.encode()):
            if not re.fullmatch(rb"-?[0-9]+", token):
                break
            values.append(int(token))
        return np.array(values, dtype=dtype)

    monkeypatch.setattr(np, "fromstring", stops_early)
    path = tmp_path / "bad.txt"
    path.write_text("q=7 dims=3\n0,1,2\n,3,4\n")
    with pytest.raises(ValueError, match=r"bad\.txt, line 3: non-integer token in ',3,4'"):
        load_point_set(path)


@pytest.mark.parametrize("text", [
    "q=101 dims=10\n85,64,51,27,31,4,7,1,17,82\n",  # 101^10 > 2^63: its code would wrap
    "q=7 dims=3000000\n",  # refused before 7^3000000 is computed
    "q=7 dims=0\n",
])
def test_load_refuses_dims_whose_codes_do_not_fit_int64(tmp_path, text):
    path = tmp_path / "p.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"p\.txt, line 1: header .* needs dims >= 1 "
                                         r"and q\^dims <= 2\^63"):
        load_point_set(path)
    # 2^63 points is the most a header may declare; the last code is 2^63 - 1.
    path.write_text("q=2 dims=63\n" + ",".join(["1"] * 63) + "\n")
    assert load_point_set(path)[0].codes.tolist() == [2**63 - 1]
