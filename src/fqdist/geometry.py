"""Points of F_q^d: integer encoding, the quadratic norm, spheres, and file I/O.

A point (x_0, ..., x_{d-1}) is encoded as the base-q integer with x_0 most
significant, so ascending code order is lexicographic order on coordinates.
The norm is the sum of squared coordinates mod q (no square root is taken).

A point set stores its codes once, canonical (sorted, unique, in range) and
read-only: _canonical_codes checks the order in O(n) and sorts only input that
fails the check, so building a set from another set's codes copies nothing.

load_point_set reads a file's data lines with one np.fromstring call, behind
checks on the bytes, when they are plain (digits, commas, minus signs,
blanks), and otherwise line by line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SizeGuardError
from .field import PrimeField, make_field

# Full enumerations of F_q^d are refused above this many points.
MAX_ENUMERATION = 10**8

_norms_cache: dict[tuple[int, int], np.ndarray] = {}


def _require_enumerable(q: int, d: int) -> int:
    """q^d, refused with SizeGuardError above MAX_ENUMERATION (read on every call)."""
    size = q**d
    if size > MAX_ENUMERATION:
        raise SizeGuardError(f"q^d = {size} exceeds the enumeration limit {MAX_ENUMERATION}")
    return size


def encode_vectors(q: int, coords) -> np.ndarray:
    """Base-q codes of the rows of an (n, d) coordinate array (d >= 1)."""
    arr = np.asarray(coords, dtype=np.int64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError("coordinates must form an (n, d) array with d >= 1")
    if np.any(arr < 0) or np.any(arr >= q):
        raise ValueError(f"coordinates must be canonical residues in [0, {q})")
    codes = arr[:, 0].copy()
    for j in range(1, arr.shape[1]):
        codes = codes * q + arr[:, j]
    return codes[0] if single else codes


def decode_codes(q: int, d: int, codes) -> np.ndarray:
    """Inverse of encode_vectors: (n, d) coordinate array from base-q codes."""
    c = np.asarray(codes, dtype=np.int64)
    single = c.ndim == 0
    c = np.atleast_1d(c).copy()
    out = np.empty((len(c), d), dtype=np.int64)
    for j in range(d - 1, -1, -1):
        out[:, j] = c % q
        c //= q
    return out[0] if single else out


def all_norms(q: int, d: int) -> np.ndarray:
    """norms[c] = norm of the point with code c, for every c < q^d (read-only).

    Built one coordinate at a time: appending a coordinate multiplies codes by
    q and adds the new square, which matches the MSB-first encoding.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    _require_enumerable(q, d)
    key = (q, d)
    cached = _norms_cache.get(key)
    if cached is not None:
        return cached
    sq = (np.arange(q, dtype=np.int64) ** 2) % q
    norms = np.zeros(1, dtype=np.int64)
    for _ in range(d):
        norms = ((norms[:, None] + sq[None, :]) % q).reshape(-1)
    norms.setflags(write=False)
    _norms_cache[key] = norms
    return norms


def norm_fiber_sizes(field: PrimeField, d: int) -> np.ndarray:
    """counts[t] = number of points of F_q^d with norm t, by direct scan."""
    return np.bincount(all_norms(field.q, d), minlength=field.q).astype(np.int64)


def enumerate_sphere(field: PrimeField, d: int, t: int) -> PointSet:
    """All points of F_q^d with norm t, codes ascending (lexicographic order).

    Refuses oversized ambients (in all_norms); for counts use norm_fiber_sizes.
    """
    codes = np.flatnonzero(all_norms(field.q, d) == t % field.q)
    codes.setflags(write=False)  # nobody else holds it, so the set need not copy it
    return PointSet(field, d, codes)


def _canonical_codes(codes, ambient: int) -> np.ndarray:
    """Sorted unique int64 codes in [0, ambient), as an array nobody can write.

    Strictly increasing input is kept in order without a sort; anything else
    goes through np.unique.  A writable array the caller passed in is copied,
    so later writes to it cannot change the set; a read-only int64 array (such
    as another set's codes) is used as it is.
    """
    arr = np.asarray(codes, dtype=np.int64)
    caller_writable = arr is codes and arr.flags.writeable
    arr = arr.reshape(-1)
    if len(arr) > 1 and not np.all(arr[1:] > arr[:-1]):
        arr = np.unique(arr)
    elif caller_writable:
        arr = arr.copy()
    if len(arr) and (arr[0] < 0 or arr[-1] >= ambient):
        raise ValueError("codes out of range for this ambient")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PointSet:
    """A subset of F_q^d held as sorted unique read-only codes."""

    field: PrimeField
    d: int
    codes: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        object.__setattr__(self, "codes", _canonical_codes(self.codes, self.field.q**self.d))

    def __len__(self) -> int:
        return len(self.codes)

    def coords(self) -> np.ndarray:
        return decode_codes(self.field.q, self.d, self.codes)

    def points(self) -> list[tuple[int, ...]]:
        return [tuple(int(x) for x in row) for row in self.coords()]

    @staticmethod
    def from_vectors(field: PrimeField, d: int, vectors) -> "PointSet":
        """The plain set of the given vectors, each reduced mod q."""
        arr = np.asarray(list(vectors), dtype=np.int64)
        if arr.size == 0:
            return PointSet(field, d, np.empty(0, dtype=np.int64))
        arr = arr % field.q
        if arr.shape[1] != d:
            raise ValueError(f"expected {d} coordinates per point, got {arr.shape[1]}")
        return PointSet(field, d, encode_vectors(field.q, arr))

    @classmethod
    def full(cls, field: PrimeField, d: int) -> "PointSet":
        return cls(field, d, np.arange(_require_enumerable(field.q, d), dtype=np.int64))


def save_point_set(path, ps: PointSet, split: tuple[int, int] | None = None) -> None:
    """Write a point set as a header line plus one comma-separated point per line.

    Header: ``q=<q> dims=<d>`` with an optional ``split=<k>,<l>`` field, where
    k, l >= 1 and k + l = d.  load_point_set also skips lines starting with #,
    as comments.  A SplitPointSet is a PointSet, so it is saved as any set is;
    its split is written only when passed.
    """
    if split is not None and (min(split) < 1 or split[0] + split[1] != ps.d):
        raise ValueError(f"split {split} needs k, l >= 1 and k + l = dims {ps.d}")
    header = f"q={ps.field.q} dims={ps.d}"
    if split is not None:
        header += f" split={split[0]},{split[1]}"
    lines = [header]
    for row in ps.coords():
        lines.append(",".join(str(int(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


# The point-set grammar over bytes.  Only \n ends a line; blanks are space, \t, \r, \v, \f.
_HEADER = re.compile(rb"^[ \t\r\v\f]*[^ \t\r\v\f\n#].*$", re.M)  # the first line not skipped
_SKIPPED = re.compile(rb"\n[ \t\r\v\f]*(?:#.*)?(?=\n)")  # newline, blank or comment line
_TOKEN = re.compile(rb"[ \t\r\v\f]*(-?[0-9]+)[ \t\r\v\f]*")
# Plain data: lines of only these bytes, which _read_plain reads in one np.fromstring call.
_PLAIN = b"0123456789,- \t\n"
# The bytes of a token's number, and a table that marks them d and makes a tab a space.
_NUMBER = b"0123456789-"
_MARKS = bytes.maketrans(_NUMBER + b"\t", b"d" * len(_NUMBER) + b" ")
# 1 for a byte that is a line's content to _read_plain and the grammar, 0 for a blank or \n.
_CONTENT = bytes(int(b not in b" \t\r\v\f\n") for b in range(256))


def _skeleton_rows(data: bytes, d: int) -> int | None:
    """The number of lines of data, which starts with \n, if each holds d - 1 commas, else None."""
    skeleton = data.translate(None, _NUMBER)
    rows = (len(skeleton) - 1) // d
    return rows if skeleton == b"\n" + (b"," * (d - 1) + b"\n") * rows else None


def _read_plain(data: bytes, q: int, d: int) -> np.ndarray | None:
    """The (n, d) points of plain data, one row per line that is not all blanks,
    or None unless the grammar reads the same points, each in [0, q)^d.

    np.fromstring is lenient: it reads a lone - or a blank-only token as 0,
    takes a trailing comma, and clamps an overflow to the int64 limit.  The
    byte checks, with the count of commas on each line, refuse the first
    three before it runs, and the range check refuses the last.
    """
    if data.isspace() or data.translate(None, _PLAIN):
        return None
    if b" " in data or b"\t" in data:
        marks = data.translate(_MARKS)
        while b"  " in marks:
            marks = marks.replace(b"  ", b" ")
        if b"d d" in marks:  # blanks inside a token, as in 3 3 or - 0
            return None
        data = data.translate(None, b" \t")
    rows = _skeleton_rows(data, d)
    # At d > 1 every line of a matching skeleton holds a comma, so only a
    # skeleton that fails, or d = 1, can hide a line that was empty or all blanks.
    if (rows is None or d == 1) and b"\n\n" in data:
        while b"\n\n" in data:
            data = data.replace(b"\n\n", b"\n")
        rows = _skeleton_rows(data, d)
    if rows is None:
        return None
    flat = data[1:].replace(b"\n", b",")
    if b"-" in flat and b"-," in flat:  # a token that ends in -, such as a lone -
        return None
    # An empty token, or a - after a digit or a -, makes fromstring raise.  A numpy
    # that only warns on unmatched data stops there, so the reshape checks the count.
    try:
        values = np.fromstring(flat, dtype=np.int64, sep=",").reshape(rows, d)
    except ValueError:
        return None
    return values if values.min() >= 0 and values.max() < q else None


def _row_lines(plain: bytes, first: int) -> np.ndarray:
    """The line number of each row _read_plain read from plain, which starts at
    the newline ending line first: the lines that hold a byte other than a blank."""
    ends = np.frombuffer(plain, dtype=np.uint8) == ord("\n")
    filled = np.cumsum(np.frombuffer(plain.translate(_CONTENT), dtype=np.uint8))[ends]
    return first + 1 + np.flatnonzero(np.diff(filled))


def _coordinate(number: bytes, q: int) -> int:
    """The value of a token -?[0-9]+, or q for any value outside [0, q)."""
    digits = number.lstrip(b"-0")  # the sign, then leading zeros: -0 is 0
    if digits and number.startswith(b"-") or len(digits) > len(str(q)):
        return q
    return min(int(digits or b"0"), q)


def _read_lines(data: bytes, first: int, q: int, d: int, bad_line) -> tuple[np.ndarray, list]:
    """(points, line numbers) of data, the file from the newline ending line first on.

    Reads the grammar literally and raises its first error: on the first bad line
    a bad token before a wrong count, then the first coordinate outside [0, q).
    """
    rows, numbers = [], []
    for number, line in enumerate(_SKIPPED.sub(b"\n", data).split(b"\n"), first):
        if not line:
            continue
        tokens = [_TOKEN.fullmatch(token) for token in line.split(b",")]
        if not all(tokens):
            raise bad_line(number, "non-integer token in ")
        if len(tokens) != d:
            raise bad_line(number, "point ", f" does not have {d} coordinates")
        rows.append([_coordinate(token[1], q) for token in tokens])
        numbers.append(number)
    values = np.array(rows, dtype=np.int64).reshape(-1, d)
    outside = (values == q).any(axis=1)
    if outside.any():
        raise bad_line(numbers[outside.argmax()], "coordinates of ", f" are not in [0, {q})")
    return values, numbers


def load_point_set(path) -> tuple[PointSet, tuple[int, int] | None]:
    """Read the format written by save_point_set; returns (set, split or None).

    Lines end at \\n.  Blank lines, and lines whose first non-blank byte is #,
    are skipped.  The first other line is the header: the fields q and dims
    and an optional split=<k>,<l>, each at most once and no other field.  It
    needs k, l >= 1 and k + l = dims for a split, and dims >= 1 and
    q^dims <= 2^63, so that every code fits in int64.  Every later line holds
    exactly dims comma-separated tokens ``blank* -? [0-9]+ blank*`` (blanks:
    space, \\t, \\r, \\v, \\f): a point with every coordinate in [0, q),
    listed once.  Anything else is a ValueError naming the path and the
    1-based line.  The first bad line decides, and on it a bad token beats a
    bad count; range and repeat errors come only once every line has parsed.

    Data that holds only digits, commas, minus signs, spaces, tabs and
    newlines, as it is or with the skipped lines emptied and each \\r\\n made
    \\n, is read with one np.fromstring call behind checks on its bytes;
    other data is read line by line as the grammar says.
    """
    raw = Path(path).read_bytes()
    if not raw.endswith(b"\n"):
        raw += b"\n"

    def bad_line(number: int, before: str, after: str = "") -> ValueError:
        """The error naming line number, with its text between before and after."""
        text = raw.split(b"\n", number)[number - 1].decode(errors="replace").strip()
        return ValueError(f"{path}, line {number}: {before}{text!r}{after}")

    found = _HEADER.search(raw)
    if found is None:
        raise ValueError(f"{path}: no header line found")
    header_number = raw.count(b"\n", 0, found.start()) + 1
    fields = {}
    for token in found[0].decode(errors="replace").split():
        if "=" not in token:
            raise bad_line(header_number, "header ", f" has a malformed token {token!r}")
        key, _, val = token.partition("=")
        if key not in ("q", "dims", "split"):
            raise bad_line(header_number, "header ", f" has an unknown field {key!r}")
        if key in fields:
            raise bad_line(header_number, "header ", f" repeats the field {key!r}")
        fields[key] = val
    if "q" not in fields or "dims" not in fields:
        raise bad_line(header_number, "header ", " must declare q= and dims=")
    try:
        q = int(fields["q"])
        d = int(fields["dims"])
        split = tuple(int(v) for v in fields["split"].split(",")) if "split" in fields else None
    except ValueError:
        raise bad_line(header_number, "header ", " has a non-integer value") from None
    if split is not None and (len(split) != 2 or min(split) < 1 or split[0] + split[1] != d):
        raise bad_line(header_number, "header ",
                       " needs split=<k>,<l> with k, l >= 1 and k + l = dims")
    try:
        field = make_field(q)
    except ValueError as exc:  # not prime, or past the size limit (a SizeGuardError)
        raise type(exc)(str(bad_line(header_number, "header ", f": {exc}"))) from None
    # q >= 2, so dims > 63 alone puts q^dims past 2^63.
    if not 1 <= d <= 63 or q**d > 2**63:
        raise bad_line(header_number, "header ", " needs dims >= 1 and q^dims <= 2^63")

    data = raw[found.end():]  # from the header's newline on
    plain, numbers = data, None  # the bytes _read_plain read; line numbers of the rows
    values = _read_plain(plain, q, d)
    if values is None:
        # Emptying skipped lines and dropping \r before \n keeps every line in its place.
        plain = _SKIPPED.sub(b"\n", data).replace(b"\r\n", b"\n")
        values = _read_plain(plain, q, d)
    if values is None:
        values, numbers = _read_lines(data, header_number, q, d, bad_line)
    codes = values @ q ** np.arange(d - 1, -1, -1)  # base q, first coordinate first
    if not np.all(codes[1:] > codes[:-1]):
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        repeats = np.flatnonzero(codes[1:] == codes[:-1])
        if len(repeats):
            if numbers is None:
                numbers = _row_lines(plain, header_number)
            # The sort is stable, so the smallest index is the earliest repeat.
            raise bad_line(numbers[order[repeats + 1].min()], "point ", " is listed twice")
    codes.setflags(write=False)  # nobody else holds it, so the set need not copy it
    return PointSet(field, d, codes), split
