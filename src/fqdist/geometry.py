"""Points of F_q^d: integer encoding, the quadratic norm, spheres, and file I/O.

A point (x_0, ..., x_{d-1}) is encoded as the base-q integer with x_0 most
significant, so ascending code order is lexicographic order on coordinates.
The norm is the sum of squared coordinates mod q (no square root is taken).

A point set stores its codes once, canonical (sorted, unique, in range) and
read-only: _canonical_codes checks the order in O(n) and sorts only input that
fails the check, so building a set from another set's codes copies nothing.
"""

from __future__ import annotations

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

    @classmethod
    def from_vectors(cls, field: PrimeField, d: int, vectors) -> "PointSet":
        arr = np.asarray(list(vectors), dtype=np.int64)
        if arr.size == 0:
            return cls(field, d, np.empty(0, dtype=np.int64))
        arr = arr % field.q
        if arr.shape[1] != d:
            raise ValueError(f"expected {d} coordinates per point, got {arr.shape[1]}")
        return cls(field, d, encode_vectors(field.q, arr))

    @classmethod
    def full(cls, field: PrimeField, d: int) -> "PointSet":
        return cls(field, d, np.arange(_require_enumerable(field.q, d), dtype=np.int64))


def save_point_set(path, ps: PointSet, split: tuple[int, int] | None = None) -> None:
    """Write a point set as a header line plus one comma-separated point per line.

    Header: ``q=<q> dims=<d>`` with an optional ``split=<k>,<l>`` field.
    load_point_set also skips lines starting with #, as comments.
    """
    if split is not None and split[0] + split[1] != ps.d:
        raise ValueError(f"split {split} does not sum to dims {ps.d}")
    header = f"q={ps.field.q} dims={ps.d}"
    if split is not None:
        header += f" split={split[0]},{split[1]}"
    lines = [header]
    for row in ps.coords():
        lines.append(",".join(str(int(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


# Byte classes of the point-set file grammar: a digit's class is its value.
# Only \n ends a line; \r is a blank, so \r\n files load.  The tables are
# bytes built in plain Python: numpy calls at import raise every run's peak RSS.
_MINUS, _COMMA, _NEWLINE, _BLANK, _HASH, _OTHER = range(10, 16)
_DIGITS = range(10)
_SYMBOLS = {ord("-"): _MINUS, ord(","): _COMMA, ord("\n"): _NEWLINE, ord("#"): _HASH,
            **dict.fromkeys(b" \t\r\v\f", _BLANK)}
_BYTE_CLASS = bytes(b - ord("0") if b in b"0123456789" else _SYMBOLS.get(b, _OTHER)
                    for b in range(256))
# With its blanks removed, a data line must read -?D+(,-?D+)* up to its
# newline.  A machine whose state is the class of the last byte accepts that
# language, so a line is well formed exactly when each class may follow the
# one before it (the previous line's newline included), and no blank was
# removed between two bytes that are each a digit or a minus.
_FOLLOWS = {_NEWLINE: (*_DIGITS, _MINUS), _MINUS: _DIGITS, _COMMA: (*_DIGITS, _MINUS),
            **dict.fromkeys(_DIGITS, (*_DIGITS, _COMMA, _NEWLINE))}
_BAD_PAIR = bytes(c not in _FOLLOWS.get(p, ()) for p in range(16) for c in range(16))


def _lookup(table: bytes, index, dtype=np.uint8) -> np.ndarray:
    """table[index] for a 256-byte table and one-byte indices, as dtype.

    bytes.translate maps each byte through the table in one C pass, without
    the 8-byte index array that numpy's take would build.
    """
    return np.frombuffer(bytes(index).translate(table), dtype=dtype)


def load_point_set(path) -> tuple[PointSet, tuple[int, int] | None]:
    """Read the format written by save_point_set; returns (set, split or None).

    Lines end at \\n.  A line that is blank, or whose first non-blank byte is
    #, is skipped; the first other line is the header, and every later line
    holds exactly dims comma-separated tokens ``blank* -? [0-9]+ blank*``
    (blanks: space, \\t, \\r, \\v, \\f).  The points must be canonical: every
    coordinate in [0, q), no point twice.  Anything else is a ValueError
    naming the path and the 1-based line.  The first bad line decides, and on
    it a bad token beats a bad count; range and repeat errors come only once
    every line has parsed.

    The file is checked and converted by numpy masks over its bytes; the
    text of a line is decoded only to name it in an error.
    """
    raw = Path(path).read_bytes()
    if not raw.endswith(b"\n"):
        raw += b"\n"

    def line_text(number: int) -> str:
        return raw.split(b"\n", number)[number - 1].decode(errors="replace").strip()

    def bad_line(number: int, problem: str) -> ValueError:
        return ValueError(f"{path}, line {number}: {problem}")

    # Drop the blanks, noting which kept bytes followed one.  Newlines stay,
    # so every line keeps its number and ends in one.
    cls = _lookup(_BYTE_CLASS, raw)
    kept = cls != _BLANK
    after_blank = np.zeros_like(kept)
    after_blank[1:] = ~kept[:-1]
    cls, after_blank = cls[kept], after_blank[kept]
    del kept
    newlines = np.flatnonzero(cls == _NEWLINE)
    first = cls.take(np.concatenate(([0], newlines[:-1] + 1)))
    content = np.flatnonzero((first != _NEWLINE) & (first != _HASH))
    if not len(content):
        raise ValueError(f"{path}: no header line found")

    header_number = int(content[0]) + 1
    header = line_text(header_number)
    fields = {}
    for token in header.split():
        if "=" not in token:
            raise ValueError(f"{path}: malformed header token {token!r}")
        key, _, val = token.partition("=")
        fields[key] = val
    if "q" not in fields or "dims" not in fields:
        raise ValueError(f"{path}: header must declare q= and dims=")
    try:
        q = int(fields["q"])
        d = int(fields["dims"])
        split = tuple(int(v) for v in fields["split"].split(",")) if "split" in fields else None
    except ValueError:
        raise bad_line(header_number, f"header {header!r} has a non-integer value") from None
    if split is not None and (len(split) != 2 or split[0] + split[1] != d):
        raise bad_line(header_number, f"header {header!r} needs split=<k>,<l> with k + l = dims")
    field = make_field(q)
    line_numbers = content[1:] + 1
    if not len(line_numbers):
        return PointSet(field, d, []), split

    # Keep the data lines alone and find the first bad one.
    is_data = np.zeros(len(newlines), dtype=bool)
    is_data[content[1:]] = True
    is_data = np.repeat(is_data, np.diff(newlines, prepend=-1))
    cls, after_blank = cls[is_data], after_blank[is_data]
    del is_data, newlines, content
    prev = np.empty_like(cls)
    prev[0] = _NEWLINE
    prev[1:] = cls[:-1]
    bad = _lookup(_BAD_PAIR, prev * 16 + cls, bool)
    bad = bad | (after_blank & (prev <= _MINUS) & (cls <= _MINUS))
    del prev, after_blank
    at = int(bad.argmax())
    first_bad = int(np.count_nonzero(cls[:at] == _NEWLINE)) if bad[at] else len(line_numbers)
    del bad
    # Lines before the first bad one each end in a token, so the tokens that a
    # newline follows split the token list into those lines.
    digit = cls < 10
    ends = np.flatnonzero(digit[:-1] & ~digit[1:])  # the last digit of each token
    counts = np.diff(np.flatnonzero(cls.take(ends + 1) == _NEWLINE), prepend=-1)
    short = np.flatnonzero(counts != d)
    first_short = int(short[0]) if len(short) else len(line_numbers)
    if min(first_bad, first_short) < len(line_numbers):
        number = int(line_numbers[min(first_bad, first_short)])
        if first_short < first_bad:
            raise bad_line(number, f"point {line_text(number)!r} does not have {d} coordinates")
        raise bad_line(number, f"non-integer token in {line_text(number)!r}")

    # Every line is now d tokens -?D+, and a token is a maximal run of digits.
    # value[i] is Horner's value of the last len(str(q)) digits of the run up
    # to byte i, in the narrowest dtype that holds 10 q; at bytes that are no
    # digit it is garbage that is never read.  A token with a nonzero digit
    # before those has more significant digits than q, so it is out of range
    # without being evaluated, and nothing overflows.
    width = len(str(q))
    digit_value = cls.astype(np.min_scalar_type(10**width), copy=False)
    value = digit_value.copy()
    run = digit.copy()  # run[i]: bytes i - back .. i are all digits
    for back in range(1, width + 1):
        run[back:] &= digit[:-back]
        run[:back] = False
        if back < width:
            value[back:] += digit_value[:-back] * run[back:] * 10**back
    values = value.take(ends)
    outside = values >= q
    # A nonzero digit followed by width more digits makes its token too long.
    # A byte's token is the first one to end at or after it.
    too_long = np.flatnonzero((cls[:-width] > 0) & run[width:])
    outside[np.searchsorted(ends, too_long)] = True
    negative = np.searchsorted(ends, np.flatnonzero(cls == _MINUS))
    outside[negative] |= values[negative] != 0  # -0 is 0
    del cls, digit, ends, digit_value, value, run, too_long, negative
    if outside.any():
        number = int(line_numbers[outside.argmax() // d])
        raise bad_line(number, f"coordinates of {line_text(number)!r} are not in [0, {q})")
    codes = encode_vectors(q, values.reshape(-1, d))
    if len(codes) > 1 and not np.all(codes[1:] > codes[:-1]):
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        repeats = np.flatnonzero(codes[1:] == codes[:-1])
        if len(repeats):
            # The sort is stable, so the smallest index is the earliest repeat.
            number = int(line_numbers[order[repeats + 1].min()])
            raise bad_line(number, f"point {line_text(number)!r} is listed twice")
    codes.setflags(write=False)  # nobody else holds it, so the set need not copy it
    return PointSet(field, d, codes), split
