"""Two-parameter pair-distance spectra of split point sets.

For E, F inside F_q^(k+l), each point splits as x = (x', x'') with x' the
first k and x'' the last l coordinates.  The spectrum is the q x q integer
matrix
    s(a, b) = #{(x, y) in E x F : |x' - y'| = a and |x'' - y''| = b},
where |.| is the sum-of-squares norm.  Everything downstream (coverage sets,
discrepancy certificates, energy identities) reads off this matrix, so two
independent routes compute it: a literal pair scan and, at odd q, a transform
route (pair_spectrum_fast).  The transform route takes one real cos/sin
transform of each set's indicator and maps the product of the two through
each block's sphere transforms, weighted by the sign orbits of the real
basis: two small matrix products, snapped to integers with a hard-checked
rounding.  The certificates take the PairSpectrum they read as their input
and never compute one; pair_spectrum picks the route for the suites.

A SplitPointSet is a geometry.PointSet of dimension k + l that also records
the split: PointSet validates and stores the codes, and the subclass adds
each half's codes and computes its full indicator transform at most once
(SplitPointSet.transform), for the checks that read all of it: the
difference histogram of the energy chain, the marginal mass and the
rotation-energy checks.  The pair spectrum's real transform is not cached
and leaves that cache alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import geometry
from .errors import PrecisionError, SizeGuardError
from .field import PrimeField
from .fourier import (
    _real_sphere_characters,
    _real_transform,
    _sphere_sup,
    _transform_in_place,
    indicator_table,
)
from .geometry import PointSet, _require_enumerable, load_point_set, norm_fiber_sizes

# Literal pair scans are refused above this many pairs.
MAX_PAIRS = 10**8

# Largest rounding residue tolerated when a transform route snaps to ints.
CONVOLUTION_RESIDUE = 1e-3


def _require_scannable(n_e: int, n_f: int) -> None:
    """Refuse a literal scan of n_e x n_f pairs above MAX_PAIRS (read on every call)."""
    if n_e * n_f > MAX_PAIRS:
        raise SizeGuardError(f"{n_e} x {n_f} pairs exceed the scan limit {MAX_PAIRS}")


def _coverage_threshold(q: int, k: int, l: int) -> int:
    """The product size |E||F| above which every (a, b) cell must be achieved."""
    return 16 * q ** (k + 2 * l + 1)


class SplitPointSet(PointSet):
    """A subset of F_q^(k+l) read as x = (x', x''): x' the first k, x'' the last l coordinates."""

    def __init__(self, field: PrimeField, k: int, l: int, codes):
        if k < 1 or l < 1:
            raise ValueError(f"split dimensions must be >= 1, got k={k}, l={l}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        super().__init__(field, k + l, codes)

    @cached_property
    def transform(self) -> np.ndarray:
        """Coefficients of the indicator's forward transform, computed once (read-only).

        Cached for the set's life: a caller that keeps a set keeps its q^(k+l) complex transform.
        The complex indicator is built here and transformed in place, so the
        transform holds that table and one workspace."""
        table = indicator_table(self, np.complex128).values
        coeffs = _transform_in_place(table, self.field.q, self.d)
        coeffs.setflags(write=False)
        return coeffs

    def first_codes(self) -> np.ndarray:
        return self.codes // self.field.q**self.l

    def second_codes(self) -> np.ndarray:
        return self.codes % self.field.q**self.l

    @classmethod
    def full(cls, field: PrimeField, k: int, l: int) -> "SplitPointSet":
        return cls(field, k, l, np.arange(_require_enumerable(field.q, k + l), dtype=np.int64))

    @classmethod
    def product(cls, first: PointSet, second: PointSet) -> "SplitPointSet":
        """Cartesian product of a k-dim set and an l-dim set (at most MAX_ENUMERATION points)."""
        if first.field.q != second.field.q:
            raise ValueError("factors live over different fields")
        if len(first) * len(second) > geometry.MAX_ENUMERATION:
            raise SizeGuardError(f"{len(first)} x {len(second)} product points exceed "
                                 f"the enumeration limit {geometry.MAX_ENUMERATION}")
        q_l = first.field.q**second.d
        codes = (first.codes[:, None] * q_l + second.codes[None, :]).reshape(-1)
        return cls(first.field, first.d, second.d, codes)


def load_split_point_set(path, k: int, l: int) -> SplitPointSet:
    """Load a point-set file split as k + l; a split= header must agree."""
    ps, split = load_point_set(path)
    if split is not None and split != (k, l):
        raise ValueError(f"{path}: header split {split} conflicts with requested ({k}, {l})")
    if ps.d != k + l:
        raise ValueError(f"{path}: ambient dimension {ps.d} does not match split {k}+{l}")
    return SplitPointSet(ps.field, k, l, ps.codes)


def _pairwise_norms(block: np.ndarray, other: np.ndarray, q: int) -> np.ndarray:
    """Norms of all row differences, one coordinate at a time to bound memory."""
    acc = np.zeros((len(block), len(other)), dtype=np.int64)
    for j in range(block.shape[1]):
        dj = (block[:, j, None] - other[None, :, j]) % q
        acc += dj * dj
    return acc % q


# 2**16 cells are 256 KiB of int32 or 512 KiB of int64: a chunk's temporaries fit a 2 MiB L2.
_BLOCK_CELLS = 2**16


def _pair_chunk(n_other: int, histogram: int) -> int:
    """Rows per chunk of a scan against n_other points whose count writes histogram cells.

    A chunk's (rows x n_other) temporaries hold about _BLOCK_CELLS cells, so
    each chunk is counted while it is still in cache, and a cold process does
    not first write tens of MiB of fresh arrays.  Each chunk zeroes and adds
    its histogram once, so no chunk holds fewer cells than that histogram.
    """
    return max(1, max(_BLOCK_CELLS, histogram) // max(1, n_other))


def distance_set(ps: PointSet, other: PointSet | None = None) -> set[int]:
    """All norms |x - y| with x in ps and y in other (default: ps), both nonempty.

    If either set is all of F_q^d, so is x - y: the cached norm table answers, with no scan.
    """
    other = ps if other is None else other
    if len(ps) == 0 or len(other) == 0:
        raise ValueError("distance set of an empty point set is undefined")
    q, d = ps.field.q, ps.d
    if other.field.q != q or other.d != d:
        raise ValueError("the two sets must share q and the dimension")
    if q**d in (len(ps), len(other)):
        return {int(t) for t in np.flatnonzero(norm_fiber_sizes(ps.field, d))}
    _require_scannable(len(ps), len(other))
    coords, other_coords = ps.coords(), other.coords()
    seen = np.zeros(q, dtype=bool)
    chunk = _pair_chunk(len(other), q)
    for start in range(0, len(ps), chunk):
        norms = _pairwise_norms(coords[start : start + chunk], other_coords, q)
        seen[norms] = True
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


def pair_spectrum_naive(e: SplitPointSet, f: SplitPointSet) -> PairSpectrum:
    """Literal scan over all |E| x |F| pairs (guarded); the reference route."""
    _check_compatible(e, f)
    q = e.field.q
    _require_scannable(len(e), len(f))
    ce = e.coords()
    cf = f.coords()
    k = e.k
    s_flat = np.zeros(q * q, dtype=np.int64)
    chunk = _pair_chunk(len(f), q * q)
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
    residue exceeds CONVOLUTION_RESIDUE.  The rotation-energy right side reads
    D from here; the pair spectrum does not, so the energy chain's orbit-weight
    identity compares D's class sums with a spectrum counted without D.
    """
    _check_compatible(e, f)
    q, d = e.field.q, e.d
    _require_enumerable(q, d)  # a cached transform never reaches indicator_table's guard
    # The product stays one expression: from 256 KiB up numpy writes it into the
    # conj temporary as conj(F_hat) E_hat, which is not bit for bit E_hat conj(F_hat).
    # The scale and the inversion then run in place in that buffer.
    product = e.transform * np.conj(f.transform)
    product *= float(q) ** d
    h = _transform_in_place(product, q, d, inverse=True)
    return _snap(h, "difference histogram")


def _snap(values: np.ndarray, what: str) -> np.ndarray:
    """values rounded to int64; PrecisionError if any residue exceeds CONVOLUTION_RESIDUE."""
    snapped = np.rint(values.real)
    residue = float(np.max(np.abs(values - snapped)))
    if residue > CONVOLUTION_RESIDUE:
        raise PrecisionError(f"{what} residue {residue:.3e} exceeds {CONVOLUTION_RESIDUE}")
    return snapped.astype(np.int64)


def pair_spectrum_fast(e: SplitPointSet, f: SplitPointSet) -> PairSpectrum:
    """Transform route at odd q: s = q^-d B_k (T_E T_F) B_l^T in the real basis.

    With P = E_hat conj(F_hat), both unnormalised, P is q^d times the
    transform of the difference histogram, so s(a, b) = q^-d sum_m P(m)
    G_k[a, cls(m')] G_l[b, cls(m'')] (see _sphere_characters): no inversion.
    Each block's classes are unchanged by a sign flip of any coordinate, so
    the sum runs over the real cos/sin basis of fourier._real_kernel, with T
    each set's real transform reshaped to (q^k, q^l) and B_d its weighted
    class table (fourier._real_sphere_characters).  Each distinct set is
    transformed once per call (F is E: once).  The result is snapped to
    integers; a residue above CONVOLUTION_RESIDUE raises PrecisionError.
    At q = 2 the norm is linear and the class identity fails: ValueError.
    """
    _check_compatible(e, f)
    q, k, l = e.field.q, e.k, e.l
    if q % 2 == 0:
        raise ValueError(f"the transform route needs odd q, got q = {q}")
    product = _real_transform(e)
    product *= product if f is e else _real_transform(f)
    s = (_real_sphere_characters(q, k) @ product.reshape(q**k, q**l)
         @ _real_sphere_characters(q, l).T)
    s *= float(q) ** -(k + l)
    spectrum = PairSpectrum(e.field, k, l, len(e), len(f), _snap(s, "pair spectrum"))
    _check_mass(spectrum)
    return spectrum


def pair_spectrum(e: SplitPointSet, f: SplitPointSet) -> PairSpectrum:
    """Route selection: literal scan for small pair counts and at even q, transforms otherwise."""
    pairs = len(e) * len(f)
    ambient = e.field.q**e.d
    if (e.field.q % 2 == 0 or pairs <= min(10**6, ambient)
            or ambient > geometry.MAX_ENUMERATION):
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

    With N = |E||F| and |S_a^k| the number of points of norm a in F_q^k, for each (a, b):
      main(a, b)  = N |S_a^k| |S_b^l| / q^(k+l)                        (exact)
      error(a, b) = s(a, b) - main(a, b)                               (exact)
      budget(a,b) = 2 q^((k-1)/2) sqrt(N) |S_b^l| rho_k(a)
                  + 2 q^((l-1)/2) sqrt(N) |S_a^k| rho_l(b)
                  + 4 q^((k+l)/2 - 1) sqrt(N) rho_k(a) rho_l(b)       (float)
    where rho_d is 1 at every nonzero radius (see discrepancy_report).  main
    and error hold the integer numerators over q^(k+l), as Python ints in
    object arrays (N |S_a^k| |S_b^l| passes 2^63 at desk scale); the JSON
    detail prints each as a reduced fraction.  The certificate is |error| <= budget up to a
    relative 1e-6.
    """

    spectrum: PairSpectrum
    main: np.ndarray  # object ints, shape (q, q): numerators over q^(k+l)
    error: np.ndarray  # object ints, shape (q, q): numerators over q^(k+l)
    budget: np.ndarray
    cell_ok: np.ndarray
    max_ratio: float
    all_ok: bool

    def to_json_dict(self) -> dict:
        spec = self.spectrum
        q = spec.field.q
        denom = q ** (spec.k + spec.l)
        cells = [{"a": a, "b": b, "count": int(spec.s[a, b]),
                  "main": str(Fraction(self.main[a, b], denom)),
                  "error": str(Fraction(self.error[a, b], denom)),
                  "budget": float(self.budget[a, b]),
                  "ok": bool(self.cell_ok[a, b])}
                 for a in range(q) for b in range(q)]
        return {
            "q": q,
            "k": spec.k,
            "l": spec.l,
            "size_e": spec.size_e,
            "size_f": spec.size_f,
            "max_ratio": self.max_ratio,
            "all_ok": self.all_ok,
            "cells": cells,
        }


def discrepancy_report(spectrum: PairSpectrum) -> DiscrepancyReport:
    """Certify the three-term error budget on every cell of the pair spectrum.

    With d = k + l, s(a, b) = q^(2d) sum_m E_hat(m) conj(F_hat(m)) S_a_hat(m') S_b_hat(m''),
    and its m = 0 term is main(a, b).  The other frequencies fall in three
    blocks: m' != 0 = m'' gives the first term, m' = 0 != m'' the second and
    m', m'' != 0 the third.  Each term is Cauchy-Schwarz with the marginal mass
    lemma, sum over m' of |E_hat(m', 0)|^2 <= q^-d |E| (Plancherel for the
    third block), times the sup of |S_hat| over that block's nonzero
    frequencies, with S_b_hat(0) = q^-l |S_b^l| where m'' = 0.  Weil's
    2 q^-(d+1)/2 bounds that sup at every nonzero radius; rho raises it to
    the zero sphere's sup (fourier._sphere_sup) where that is larger, which is
    only at even d with a nonzero isotropic vector and q >= 7.  The cost: at
    even k with a nonzero isotropic vector, row 0's budget grows like
    q^(k/2) sqrt(N) |S_b^l| rather than 2 q^((k-1)/2) sqrt(N) |S_b^l|, so at
    large q it no longer implies that row 0 is covered just above the
    threshold; there row 0's coverage rests on surjectivity_check alone.
    """
    field, k, l = spectrum.field, spectrum.k, spectrum.l
    q = field.q
    denom = q ** (k + l)
    sphere_k = norm_fiber_sizes(field, k)
    sphere_l = norm_fiber_sizes(field, l)
    ne, nf = spectrum.size_e, spectrum.size_f
    main = ne * nf * np.outer(sphere_k.astype(object), sphere_l.astype(object))
    error = spectrum.s.astype(object) * denom - main
    # int / int is correctly rounded, so this is float(|error| as a Fraction).
    abs_err = (np.abs(error) / denom).astype(np.float64)
    root_ef = float(np.sqrt(float(ne) * float(nf)))
    # rho_d(t) = max(1, sigma_d(t) / sigma_d(1)) is 1 at t != 0 (fourier._sphere_sup).
    rho_k, rho_l = np.ones(q), np.ones(q)
    for rho, d in ((rho_k, k), (rho_l, l)):
        rho[0] = max(1.0, _sphere_sup(q, d, 0) / _sphere_sup(q, d, 1))
    term_k = 2.0 * float(q) ** ((k - 1) / 2.0) * root_ef * sphere_l.astype(np.float64)[None, :]
    term_l = 2.0 * float(q) ** ((l - 1) / 2.0) * root_ef * sphere_k.astype(np.float64)[:, None]
    term_cross = 4.0 * float(q) ** ((k + l) / 2.0 - 1.0) * root_ef
    budget = term_k * rho_k[:, None] + term_l * rho_l[None, :] + term_cross * np.outer(rho_k, rho_l)
    cell_ok = abs_err <= budget * (1.0 + 1e-6)
    ratio = np.divide(abs_err, budget, out=np.where(abs_err == 0, 0.0, np.inf),
                      where=budget > 0)
    return DiscrepancyReport(spectrum, main, error, budget, cell_ok, float(ratio.max()),
                             bool(cell_ok.all()))


@dataclass(frozen=True)
class SurjectivityCheck:
    """Threshold test: |E||F| > 16 q^(k+2l+1) forces full coverage."""

    threshold: int
    threshold_met: bool
    coverage: int
    surjective: bool
    consistent: bool


def surjectivity_check(spectrum: PairSpectrum) -> SurjectivityCheck:
    """Test the coverage threshold on the pair spectrum of a concrete pair of sets.

    consistent is False exactly when the product size clears the threshold
    yet some (a, b) cell is empty, i.e. when the predicted implication fails.
    """
    q, k, l = spectrum.field.q, spectrum.k, spectrum.l
    if not (l >= k >= 2):
        raise ValueError(f"requires l >= k >= 2, got k={k}, l={l}")
    threshold = _coverage_threshold(q, k, l)
    met = spectrum.size_e * spectrum.size_f > threshold
    coverage = int(np.count_nonzero(spectrum.s))
    surjective = coverage == q * q
    return SurjectivityCheck(threshold, met, coverage, surjective, (not met) or surjective)


@dataclass(frozen=True)
class MarginalMassReport:
    """Spectral mass on frequencies (m', 0) versus its fiber-count identity.

    exact = q^-(k+2l) * sum over x' of n(x')^2 where n counts the fiber of E
    over x'; this equals sum over m' of |E_hat(m', 0)|^2.  The lemma bound is
    q^-(k+l) |E|, saturated exactly when E is one full fiber.
    """

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
    return MarginalMassReport(exact, bound, exact <= bound, exact == bound, float_value, agrees)

