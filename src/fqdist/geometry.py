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
from itertools import islice
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


def _file_line(raw: list[str], index: int) -> int:
    """1-based file line of the index-th non-blank, non-comment line."""
    data = (number for number, ln in enumerate(raw, 1)
            if ln.strip() and not ln.strip().startswith("#"))
    return next(islice(data, index, None))


def load_point_set(path) -> tuple[PointSet, tuple[int, int] | None]:
    """Read the format written by save_point_set; returns (set, split or None).

    The file must list canonical points: every token an integer, every
    coordinate in [0, q), no point twice.  Anything else is a ValueError
    naming the path and the 1-based line.
    """
    raw = Path(path).read_text().splitlines()
    lines = [ln.strip() for ln in raw if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no header line found")
    fields = {}
    for token in lines[0].split():
        if "=" not in token:
            raise ValueError(f"{path}: malformed header token {token!r}")
        key, _, val = token.partition("=")
        fields[key] = val
    if "q" not in fields or "dims" not in fields:
        raise ValueError(f"{path}: header must declare q= and dims=")

    def bad_line(index: int, problem: str) -> ValueError:
        return ValueError(f"{path}, line {_file_line(raw, index)}: {problem}")

    try:
        q = int(fields["q"])
        d = int(fields["dims"])
        split = tuple(int(v) for v in fields["split"].split(",")) if "split" in fields else None
    except ValueError:
        raise bad_line(0, f"header {lines[0]!r} has a non-integer value") from None
    if split is not None and (len(split) != 2 or split[0] + split[1] != d):
        raise bad_line(0, f"header {lines[0]!r} needs split=<k>,<l> with k + l = dims")
    field = make_field(q)
    vectors = []
    for index, ln in enumerate(lines[1:], 1):
        try:
            parts = [int(tok) for tok in ln.split(",")]
        except ValueError:
            raise bad_line(index, f"non-integer token in {ln!r}") from None
        if len(parts) != d:
            raise bad_line(index, f"point {ln!r} does not have {d} coordinates")
        vectors.append(parts)
    if not vectors:
        return PointSet(field, d, []), split
    try:
        arr = np.array(vectors, dtype=np.int64)
    except OverflowError:  # a coordinate beyond int64 is outside [0, q) too
        outside = [i for i, row in enumerate(vectors) if any(not 0 <= x < q for x in row)]
    else:
        outside = np.flatnonzero(((arr < 0) | (arr >= q)).any(axis=1))
    if len(outside):
        index = 1 + int(outside[0])
        raise bad_line(index, f"coordinates of {lines[index]!r} are not in [0, {q})")
    codes = encode_vectors(q, arr)
    if len(codes) > 1 and not np.all(codes[1:] > codes[:-1]):
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        repeats = np.flatnonzero(codes[1:] == codes[:-1])
        if len(repeats):
            # The sort is stable, so the smallest index is the earliest repeat.
            index = 1 + int(order[repeats + 1].min())
            raise bad_line(index, f"point {lines[index]!r} is listed twice")
    codes.setflags(write=False)  # nobody else holds it, so the set need not copy it
    return PointSet(field, d, codes), split
