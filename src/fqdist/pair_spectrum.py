"""Two-parameter pair-distance spectra of split point sets.

For E, F inside F_q^(k+l), each point splits as x = (x', x'') with x' the
first k and x'' the last l coordinates.  The spectrum is the q x q integer
matrix
    s(a, b) = #{(x, y) in E x F : |x' - y'| = a and |x'' - y''| = b},
where |.| is the sum-of-squares norm.  Everything downstream (coverage sets,
discrepancy certificates, energy identities) reads off this matrix, so two
independent routes compute it: a literal pair scan and a convolution route
that sums the exact difference histogram of E - F (difference_histogram,
inverted from the character transforms with a hard-checked rounding) by norm
class.

A SplitPointSet keeps its codes as geometry._canonical_codes leaves them and
computes its indicator transform at most once (SplitPointSet.transform); every
transform-based check reads that cached array instead of transforming again.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from . import geometry
from .errors import PrecisionError, SizeGuardError
from .field import PrimeField
from .fourier import SpectralTable, forward_transform, indicator_table, inverse_transform
from .geometry import (
    PointSet,
    _canonical_codes,
    _require_enumerable,
    all_norms,
    decode_codes,
    encode_vectors,
    load_point_set,
    norm_fiber_sizes,
)

# Literal pair scans are refused above this many pairs.
MAX_PAIRS = 10**8

# Largest rounding residue tolerated when the convolution route snaps to ints.
CONVOLUTION_RESIDUE = 1e-3


def _require_scannable(n_e: int, n_f: int) -> None:
    """Refuse a literal scan of n_e x n_f pairs above MAX_PAIRS (read on every call)."""
    if n_e * n_f > MAX_PAIRS:
        raise SizeGuardError(f"{n_e} x {n_f} pairs exceed the scan limit {MAX_PAIRS}")


def _coverage_threshold(q: int, k: int, l: int) -> int:
    """The product size |E||F| above which every (a, b) cell must be achieved."""
    return 16 * q ** (k + 2 * l + 1)


@dataclass(frozen=True, eq=False)
class SplitPointSet:
    """A subset of F_q^(k+l) with a designated k/l coordinate split."""

    field: PrimeField
    k: int
    l: int
    codes: np.ndarray

    def __post_init__(self):
        if self.k < 1 or self.l < 1:
            raise ValueError(f"split dimensions must be >= 1, got k={self.k}, l={self.l}")
        object.__setattr__(self, "codes", _canonical_codes(self.codes, self.field.q**self.d))

    @cached_property
    def transform(self) -> np.ndarray:
        """Coefficients of the indicator's forward transform, computed once (read-only)."""
        coeffs = forward_transform(indicator_table(self.as_point_set())).coeffs
        coeffs.setflags(write=False)
        return coeffs

    @property
    def d(self) -> int:
        return self.k + self.l

    def __len__(self) -> int:
        return len(self.codes)

    def first_codes(self) -> np.ndarray:
        return self.codes // self.field.q**self.l

    def second_codes(self) -> np.ndarray:
        return self.codes % self.field.q**self.l

    def coords(self) -> np.ndarray:
        return decode_codes(self.field.q, self.d, self.codes)

    def as_point_set(self) -> PointSet:
        return PointSet(self.field, self.d, self.codes)

    @classmethod
    def from_vectors(cls, field: PrimeField, k: int, l: int, vectors) -> "SplitPointSet":
        arr = np.asarray(list(vectors), dtype=np.int64)
        if arr.size == 0:
            return cls(field, k, l, np.empty(0, dtype=np.int64))
        arr = arr % field.q
        if arr.shape[1] != k + l:
            raise ValueError(f"expected {k + l} coordinates per point, got {arr.shape[1]}")
        return cls(field, k, l, encode_vectors(field.q, arr))

    @classmethod
    def from_point_set(cls, ps: PointSet, k: int, l: int) -> "SplitPointSet":
        if ps.d != k + l:
            raise ValueError(f"ambient dimension {ps.d} does not match split {k}+{l}")
        return cls(ps.field, k, l, ps.codes)

    @classmethod
    def full(cls, field: PrimeField, k: int, l: int) -> "SplitPointSet":
        return cls.from_point_set(PointSet.full(field, k + l), k, l)

    @classmethod
    def product(cls, first: PointSet, second: PointSet) -> "SplitPointSet":
        """Cartesian product of a k-dim set and an l-dim set."""
        if first.field.q != second.field.q:
            raise ValueError("factors live over different fields")
        q_l = first.field.q**second.d
        codes = (first.codes[:, None] * q_l + second.codes[None, :]).reshape(-1)
        return cls(first.field, first.d, second.d, codes)


def load_split_point_set(path, k: int | None = None, l: int | None = None) -> SplitPointSet:
    """Load a point-set file; the header split (or explicit k, l) fixes the split."""
    ps, split = load_point_set(path)
    if split is None:
        if k is None or l is None:
            raise ValueError(f"{path}: no split= header; pass k and l explicitly")
        split = (k, l)
    elif k is not None and l is not None and (k, l) != split:
        raise ValueError(f"{path}: header split {split} conflicts with requested ({k}, {l})")
    return SplitPointSet.from_point_set(ps, *split)


def _pairwise_norms(block: np.ndarray, other: np.ndarray, q: int) -> np.ndarray:
    """Norms of all row differences, one coordinate at a time to bound memory."""
    acc = np.zeros((len(block), len(other)), dtype=np.int64)
    for j in range(block.shape[1]):
        dj = (block[:, j, None] - other[None, :, j]) % q
        acc += dj * dj
    return acc % q


def _pair_chunk(n_other: int) -> int:
    """Row-chunk size keeping (chunk x n_other) temporaries near 4e6 cells."""
    return max(1, int(4 * 10**6 // max(1, n_other)))


def distance_set(ps: PointSet) -> set[int]:
    """All norms |x - y| realized by pairs from a nonempty point set."""
    if len(ps) == 0:
        raise ValueError("distance set of an empty point set is undefined")
    _require_scannable(len(ps), len(ps))
    q = ps.field.q
    coords = ps.coords()
    seen = np.zeros(q, dtype=bool)
    chunk = _pair_chunk(len(ps))
    for start in range(0, len(ps), chunk):
        norms = _pairwise_norms(coords[start : start + chunk], coords, q)
        seen[np.unique(norms)] = True
    return {int(t) for t in np.nonzero(seen)[0]}


@dataclass(frozen=True, eq=False)
class PairSpectrum:
    """The q x q matrix s(a, b) for a pair of split sets."""

    field: PrimeField
    k: int
    l: int
    size_e: int
    size_f: int
    s: np.ndarray  # int64, shape (q, q)

    def total(self) -> int:
        return int(self.s.sum())


def _split_norm_classes(field: PrimeField, k: int, l: int) -> np.ndarray:
    """class[c] = q * |first half of c| + |second half of c| over all codes."""
    q = field.q
    nk = all_norms(q, k)
    nl = all_norms(q, l)
    return (nk[:, None] * q + nl[None, :]).reshape(-1)


def pair_spectrum_naive(e: SplitPointSet, f: SplitPointSet) -> PairSpectrum:
    """Literal scan over all |E| x |F| pairs (guarded); the reference route."""
    _check_compatible(e, f)
    q = e.field.q
    _require_scannable(len(e), len(f))
    ce = e.coords()
    cf = f.coords()
    k = e.k
    s_flat = np.zeros(q * q, dtype=np.int64)
    chunk = _pair_chunk(len(f))
    for start in range(0, len(e), chunk):
        block = ce[start : start + chunk]
        a = _pairwise_norms(block[:, :k], cf[:, :k], q)
        b = _pairwise_norms(block[:, k:], cf[:, k:], q)
        joint = (a * q + b).reshape(-1)
        s_flat += np.bincount(joint, minlength=q * q)
    spectrum = PairSpectrum(e.field, e.k, e.l, len(e), len(f), s_flat.reshape(q, q))
    _check_mass(spectrum)
    return spectrum


def difference_histogram(e: SplitPointSet, f: SplitPointSet) -> np.ndarray:
    """D[v] = #{(x, y) in E x F : x - y = v} for every code v, as exact int64.

    D has transform q^d E_hat conj(F_hat), so it is one inversion of the two
    cached set transforms, snapped to integers with a hard failure if any
    residue exceeds CONVOLUTION_RESIDUE.  The pair spectrum and the
    rotation-energy right side both read D from here.
    """
    _check_compatible(e, f)
    q, d = e.field.q, e.d
    _require_enumerable(q, d)  # a cached transform never reaches indicator_table's guard
    product = e.transform * np.conj(f.transform) * float(q) ** d
    h = inverse_transform(SpectralTable(e.field, d, product)).values
    snapped = np.rint(h.real)
    residue = float(np.max(np.abs(h - snapped))) if len(h) else 0.0
    if residue > CONVOLUTION_RESIDUE:
        raise PrecisionError(
            f"difference histogram residue {residue:.3e} exceeds {CONVOLUTION_RESIDUE}"
        )
    return snapped.astype(np.int64)


def pair_spectrum_fast(e: SplitPointSet, f: SplitPointSet) -> PairSpectrum:
    """Transform route: the difference histogram of E - F summed by half-norm class."""
    q = e.field.q
    s_flat = np.zeros(q * q, dtype=np.int64)
    np.add.at(s_flat, _split_norm_classes(e.field, e.k, e.l), difference_histogram(e, f))
    spectrum = PairSpectrum(e.field, e.k, e.l, len(e), len(f), s_flat.reshape(q, q))
    _check_mass(spectrum)
    return spectrum


def pair_spectrum(e: SplitPointSet, f: SplitPointSet) -> PairSpectrum:
    """Route selection: literal scan for small pair counts, transforms otherwise."""
    pairs = len(e) * len(f)
    ambient = e.field.q**e.d
    if pairs <= min(10**6, ambient) or ambient > geometry.MAX_ENUMERATION:
        return pair_spectrum_naive(e, f)
    return pair_spectrum_fast(e, f)


def _check_compatible(e: SplitPointSet, f: SplitPointSet) -> None:
    if e.field.q != f.field.q or e.k != f.k or e.l != f.l:
        raise ValueError("the two sets must share q and the coordinate split")


def _check_mass(spectrum: PairSpectrum) -> None:
    total = spectrum.total()
    expected = spectrum.size_e * spectrum.size_f
    if total != expected:
        raise PrecisionError(
            f"spectrum mass {total} != |E||F| = {expected}; counting is untrusted"
        )


def achieved_pairs(spectrum: PairSpectrum) -> set[tuple[int, int]]:
    """The set of (a, b) with s(a, b) > 0."""
    rows, cols = np.nonzero(spectrum.s)
    return {(int(a), int(b)) for a, b in zip(rows, cols)}


def spectrum_energy(spectrum: PairSpectrum) -> int:
    """sum over (a, b) of s(a, b)^2, in exact arbitrary-precision integers."""
    return int(sum(int(v) * int(v) for v in spectrum.s.reshape(-1)))


def spectrum_energy_bruteforce(e: SplitPointSet, f: SplitPointSet) -> int:
    """Count coincidence quadruples of pairs one comparison at a time.

    Literally counts ((x,y),(z,w)) in (E x F)^2 whose two pair-distance
    labels agree, without ever forming the spectrum matrix.  Quadratic in
    |E| |F|, so only for tiny sets.
    """
    _check_compatible(e, f)
    q = e.field.q
    n_pairs = len(e) * len(f)
    if n_pairs > 4096:
        raise SizeGuardError(f"{n_pairs} pairs is too many for the quadratic count")
    ce = e.coords()
    cf = f.coords()
    k = e.k
    a = _pairwise_norms(ce[:, :k], cf[:, :k], q)
    b = _pairwise_norms(ce[:, k:], cf[:, k:], q)
    labels = (a * q + b).reshape(-1)
    eq = labels[:, None] == labels[None, :]
    return int(eq.sum())


@dataclass(frozen=True, eq=False)
class DiscrepancyReport:
    """Cellwise comparison of s(a, b) against its main term and error budget.

    For each (a, b):
      main(a, b)  = |E| |F| |S_a^(k-1)| |S_b^(l-1)| / q^(k+l)      (exact)
      error(a, b) = s(a, b) - main(a, b)                           (exact)
      budget(a,b) = 2 q^((k-1)/2) sqrt(|E||F|) |S_b|
                  + 2 q^((l-1)/2) sqrt(|E||F|) |S_a|
                  + 4 q^((k+l)/2 - 1) sqrt(|E||F|)                  (float)
    and the certificate is |error| <= budget up to a relative 1e-6.
    """

    field: PrimeField
    k: int
    l: int
    size_e: int
    size_f: int
    s: np.ndarray
    main: list[list[Fraction]]
    error: list[list[Fraction]]
    budget: np.ndarray
    cell_ok: np.ndarray
    max_ratio: float
    all_ok: bool

    def to_json_dict(self) -> dict:
        q = self.field.q
        cells = []
        for a in range(q):
            for b in range(q):
                cells.append({
                    "a": a,
                    "b": b,
                    "count": int(self.s[a, b]),
                    "main": str(self.main[a][b]),
                    "error": str(self.error[a][b]),
                    "budget": float(self.budget[a, b]),
                    "ok": bool(self.cell_ok[a, b]),
                })
        return {
            "q": q,
            "k": self.k,
            "l": self.l,
            "size_e": self.size_e,
            "size_f": self.size_f,
            "max_ratio": self.max_ratio,
            "all_ok": self.all_ok,
            "cells": cells,
        }


def discrepancy_report(e: SplitPointSet, f: SplitPointSet,
                       spectrum: PairSpectrum | None = None) -> DiscrepancyReport:
    """Certify the three-term error budget on every spectrum cell."""
    if spectrum is None:
        spectrum = pair_spectrum(e, f)
    _check_compatible(e, f)
    q, k, l = e.field.q, e.k, e.l
    sphere_k = norm_fiber_sizes(e.field, k)
    sphere_l = norm_fiber_sizes(e.field, l)
    ne, nf = len(e), len(f)
    root_ef = float(np.sqrt(float(ne) * float(nf)))
    term_cross = 4.0 * float(q) ** ((k + l) / 2.0 - 1.0) * root_ef

    main: list[list[Fraction]] = []
    error: list[list[Fraction]] = []
    budget = np.zeros((q, q), dtype=np.float64)
    cell_ok = np.zeros((q, q), dtype=bool)
    max_ratio = 0.0
    denom = q ** (k + l)
    for a in range(q):
        row_main = []
        row_err = []
        for b in range(q):
            m = Fraction(ne * nf * int(sphere_k[a]) * int(sphere_l[b]), denom)
            err = Fraction(int(spectrum.s[a, b])) - m
            bud = (2.0 * float(q) ** ((k - 1) / 2.0) * root_ef * float(sphere_l[b])
                   + 2.0 * float(q) ** ((l - 1) / 2.0) * root_ef * float(sphere_k[a])
                   + term_cross)
            ok = abs(float(err)) <= bud * (1.0 + 1e-6)
            ratio = abs(float(err)) / bud if bud > 0 else (0.0 if err == 0 else float("inf"))
            max_ratio = max(max_ratio, ratio)
            row_main.append(m)
            row_err.append(err)
            budget[a, b] = bud
            cell_ok[a, b] = ok
        main.append(row_main)
        error.append(row_err)
    return DiscrepancyReport(e.field, k, l, ne, nf, spectrum.s, main, error,
                             budget, cell_ok, max_ratio, bool(cell_ok.all()))


@dataclass(frozen=True)
class SurjectivityCheck:
    """Threshold test: |E||F| > 16 q^(k+2l+1) forces full coverage."""

    q: int
    k: int
    l: int
    size_e: int
    size_f: int
    threshold: Fraction
    threshold_met: bool
    coverage: int
    surjective: bool
    consistent: bool


def surjectivity_check(e: SplitPointSet, f: SplitPointSet,
                       spectrum: PairSpectrum | None = None) -> SurjectivityCheck:
    """Test the coverage threshold on a concrete pair of sets.

    consistent is False exactly when the product size clears the threshold
    yet some (a, b) cell is empty, i.e. when the predicted implication fails.
    """
    if not (e.l >= e.k >= 2):
        raise ValueError(f"requires l >= k >= 2, got k={e.k}, l={e.l}")
    if spectrum is None:
        spectrum = pair_spectrum(e, f)
    _check_compatible(e, f)
    q, k, l = e.field.q, e.k, e.l
    threshold = Fraction(_coverage_threshold(q, k, l))
    met = Fraction(len(e) * len(f)) > threshold
    coverage = int(np.count_nonzero(spectrum.s))
    surjective = coverage == q * q
    return SurjectivityCheck(q, k, l, len(e), len(f), threshold, met,
                             coverage, surjective, (not met) or surjective)


@dataclass(frozen=True)
class MarginalMassReport:
    """Spectral mass on frequencies (m', 0) versus its fiber-count identity.

    exact = q^-(k+2l) * sum over x' of n(x')^2 where n counts the fiber of E
    over x'; this equals sum over m' of |E_hat(m', 0)|^2.  The lemma bound is
    q^-(k+l) |E|, saturated exactly when E is one full fiber.
    """

    q: int
    k: int
    l: int
    size: int
    exact: Fraction
    bound: Fraction
    holds: bool
    saturated: bool
    float_value: float
    float_agrees: bool


def marginal_spectral_mass(e: SplitPointSet) -> MarginalMassReport:
    """Evaluate the zero-second-block spectral mass both exactly and in floats."""
    q, k, l = e.field.q, e.k, e.l
    fibers = np.bincount(e.first_codes(), minlength=q**k)
    exact = Fraction(int(np.sum(fibers.astype(object) ** 2)), q ** (k + 2 * l))
    bound = Fraction(len(e), q ** (k + l))
    # Float route: the full (k+l)-dim transform restricted to m'' = 0.
    coeffs = e.transform.reshape(q**k, q**l)[:, 0]
    float_value = float(np.sum(np.abs(coeffs) ** 2))
    agrees = abs(float_value - float(exact)) <= 1e-9
    return MarginalMassReport(q, k, l, len(e), exact, bound, exact <= bound,
                              exact == bound, float_value, agrees)


def write_spectrum_csv(path, spectrum: PairSpectrum) -> None:
    """q rows of q comma-separated counts; row a, column b."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in spectrum.s:
            writer.writerow([int(v) for v in row])


def read_spectrum_csv(path, field: PrimeField, k: int, l: int,
                      size_e: int, size_f: int) -> PairSpectrum:
    """Inverse of write_spectrum_csv given the context the file does not carry."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row:
                rows.append([int(v) for v in row])
    s = np.asarray(rows, dtype=np.int64)
    if s.shape != (field.q, field.q):
        raise ValueError(f"expected a {field.q} x {field.q} table, got {s.shape}")
    return PairSpectrum(field, k, l, size_e, size_f, s)
