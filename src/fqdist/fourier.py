"""Character sums on F_q^d: transforms, certificates, and exact phase counts.

Conventions: for f: F_q^d -> C the forward transform is
    f_hat(m) = q^-d * sum_x chi(-x.m) f(x)
and inversion carries no normalization:
    f(x) = sum_m chi(x.m) f_hat(m).
Plancherel then reads sum_m |f_hat(m)|^2 = q^-d * sum_x |f(x)|^2.

The workhorse is a separable axis-at-a-time transform: d passes, each one
matrix product of the q x q character kernel with the table's leading axis and
one copy that moves that axis last, so after d passes the axes are back in
order.  A defining-sum implementation is kept alongside as an independent
route for self-tests; it is quadratic in q^d and guarded.

The sphere decay certificate transforms real indicators, whose spectra obey
f_hat(-m) = conj(f_hat(m)).  Every nonzero m is +- a frequency with
m_1 <= q/2 of the same modulus (m_1 = -m_1 at q = 2, so there every m_1 is
kept), so the certificate computes only those q//2 + 1 leading rows
(_real_half_transform) and its scan stays exhaustive.  Every other caller
gets the full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizeGuardError
from .field import PrimeField
from .geometry import PointSet, _require_enumerable, decode_codes, enumerate_sphere

# Defining-sum (quadratic) routes are refused above this many phase evaluations.
MAX_QUADRATIC = 6 * 10**7


def _exceeds_quadratic(q: int, d: int) -> bool:
    """True when q^2d phase evaluations exceed MAX_QUADRATIC (read on every call)."""
    return (q**d) ** 2 > MAX_QUADRATIC


@lru_cache(maxsize=32)
def _kernel(q: int) -> np.ndarray:
    """K[m, x] = chi(-m x) on scalars; symmetric, and conj(K) inverts it."""
    k = PrimeField(q).char_table[(-np.outer(np.arange(q), np.arange(q))) % q]
    k.setflags(write=False)
    return k


def _contract_axes(arr: np.ndarray, q: int, kernel: np.ndarray, axes: int) -> np.ndarray:
    """Contract the leading axis of a C-ordered complex table with kernel and
    move it last, `axes` times: one matrix product into a buffer and one copy
    back per axis.  arr is overwritten and returned flat."""
    product = np.empty((q, arr.size // q), dtype=np.complex128)
    for _ in range(axes):
        np.matmul(kernel, arr.reshape(q, -1), out=product)
        arr.reshape(-1, q)[...] = product.T
    return arr.reshape(-1)


def _real_half_transform(values: np.ndarray, q: int, d: int) -> np.ndarray:
    """Unnormalised forward transform of a real table at the frequencies with
    m_1 <= q/2, the first (q//2 + 1) q^(d-1) codes.

    The first axis contracts the float64 table with the real and imaginary
    parts of the kernel's first q//2 + 1 rows, so the input is never promoted
    to complex; the other d-1 axes take the complex loop of _contract_axes.
    For real values f_hat(-m) = conj(f_hat(m)), so these rows determine the
    rest: at odd q they are m_1 <= (q-1)/2, and at q = 2 all of them.
    """
    kernel = _kernel(q)
    h = q // 2 + 1
    flat = np.asarray(values, dtype=np.float64).reshape(q, -1)
    arr = np.empty((flat.shape[1], h), dtype=np.complex128)
    arr.real = (kernel.real[:h] @ flat).T
    arr.imag = (kernel.imag[:h] @ flat).T
    return _contract_axes(arr, q, kernel, d - 1)


@dataclass(frozen=True, eq=False)
class DensityTable:
    """A function on F_q^d, indexed by point code."""

    field: PrimeField
    d: int
    values: np.ndarray

    def __post_init__(self):
        expected = self.field.q**self.d
        if len(self.values) != expected:
            raise ValueError(f"table length {len(self.values)} != q^d = {expected}")


@dataclass(frozen=True, eq=False)
class SpectralTable:
    """Fourier coefficients of a function on F_q^d, indexed by frequency code."""

    field: PrimeField
    d: int
    coeffs: np.ndarray


def indicator_table(ps: PointSet) -> DensityTable:
    """0/1 table of a point set, a SplitPointSet included, as float64."""
    values = np.zeros(_require_enumerable(ps.field.q, ps.d))
    values[ps.codes] = 1.0
    return DensityTable(ps.field, ps.d, values)


def forward_transform(f: DensityTable) -> SpectralTable:
    """f_hat(m) = q^-d sum_x chi(-x.m) f(x), via the separable kernel."""
    q, d = f.field.q, f.d
    coeffs = _contract_axes(np.array(f.values, dtype=np.complex128), q, _kernel(q), d)
    coeffs *= float(q) ** -d
    return SpectralTable(f.field, f.d, coeffs)


def inverse_transform(spec: SpectralTable) -> DensityTable:
    """f(x) = sum_m chi(x.m) f_hat(m); exact inverse of forward_transform."""
    q, d = spec.field.q, spec.d
    values = _contract_axes(np.array(spec.coeffs, dtype=np.complex128), q, np.conj(_kernel(q)), d)
    return DensityTable(spec.field, spec.d, values)


def forward_transform_direct(f: DensityTable) -> SpectralTable:
    """Defining-sum transform, one inner product per frequency.

    Independent of the separable route; used to cross-check it.  Cost is
    q^2d phase evaluations, so this is guarded to small ambients.
    """
    q, d = f.field.q, f.d
    n = q**d
    if _exceeds_quadratic(q, d):
        raise SizeGuardError(
            f"defining-sum transform needs q^2d = {n * n} phases; "
            "use forward_transform instead"
        )
    coords = decode_codes(q, d, np.arange(n))
    table = f.field.char_table
    coeffs = np.empty(n, dtype=np.complex128)
    chunk = 256
    for start in range(0, n, chunk):
        m_block = coords[start : start + chunk]
        phases = (-(m_block @ coords.T)) % q
        coeffs[start : start + chunk] = table[phases] @ f.values
    return SpectralTable(f.field, f.d, coeffs * (float(q) ** -d))


def plancherel_gap(f: DensityTable) -> float:
    """| sum_m |f_hat(m)|^2 - q^-d sum_x |f(x)|^2 |, which should be ~0."""
    q, d = f.field.q, f.d
    spec = forward_transform(f)
    lhs = float(np.sum(np.abs(spec.coeffs) ** 2))
    rhs = float(np.sum(np.abs(f.values) ** 2)) / q**d
    return abs(lhs - rhs)


@dataclass(frozen=True)
class OrthogonalityReport:
    """Brute-force character sums: zero at every m != 0, q^d at m = 0."""

    zero_frequency_sum: float
    max_nonzero_modulus: float
    passed: bool


def orthogonality_check(field: PrimeField, d: int) -> OrthogonalityReport:
    """Sum chi(x.m) over all x for every m, by brute force (guarded)."""
    q = field.q
    n = q**d
    if _exceeds_quadratic(q, d):
        raise SizeGuardError(
            f"orthogonality brute force needs q^2d = {n * n} phases; too large"
        )
    ones = DensityTable(field, d, np.ones(n, dtype=np.complex128))
    sums = forward_transform_direct(ones).coeffs * (float(q) ** d)
    zero_sum = sums[0].real
    max_nonzero = float(np.max(np.abs(sums[1:]))) if n > 1 else 0.0
    tolerance = 1e-8 * n
    passed = (abs(zero_sum - n) < tolerance) and (max_nonzero < tolerance)
    return OrthogonalityReport(float(zero_sum), max_nonzero, passed)


@dataclass(frozen=True)
class SphereDecayReport:
    """Worst ratio of |S_t_hat(m)| to 2 q^-(d+1)/2 over t != 0, m != 0."""

    bound: float
    max_ratio: float
    worst_t: int
    worst_m: tuple[int, ...]
    passed: bool


def sphere_decay_check(field: PrimeField, d: int) -> SphereDecayReport:
    """Certify the Kloosterman-type sphere decay |S_t_hat(m)| <= 2 q^-(d+1)/2.

    Scans every nonzero radius t and every nonzero frequency m exhaustively;
    enumerate_sphere refuses an ambient past the enumeration limit.  The
    indicator is real, so |S_t_hat(-m)| = |S_t_hat(m)|, and every nonzero m is
    +- a frequency with m_1 <= q/2: only those rows are computed.
    """
    q = field.q
    bound = 2.0 * float(q) ** (-(d + 1) / 2.0)
    max_ratio = 0.0
    worst_t = 0
    worst_m: tuple[int, ...] = (0,) * d
    for t in range(1, q):
        values = indicator_table(enumerate_sphere(field, d, t)).values
        coeffs = _real_half_transform(values, q, d) * (float(q) ** -d)
        moduli = np.abs(coeffs)
        moduli[0] = 0.0  # the zero frequency carries the sphere's mass, not decay
        m_idx = int(np.argmax(moduli))
        ratio = float(moduli[m_idx]) / bound
        if ratio > max_ratio:
            max_ratio = ratio
            worst_t = t
            worst_m = tuple(int(x) for x in decode_codes(q, d, m_idx))
    return SphereDecayReport(bound, max_ratio, worst_t, worst_m,
                             max_ratio <= 1.0 + 1e-9)


@dataclass(frozen=True, eq=False)
class ExactPhaseHistogram:
    """Integer counts of the residue -x.m mod q over a point set.

    counts[j] = #{x in E : -x.m = j mod q}, so the Fourier coefficient at m is
    q^-d * sum_j counts[j] chi(j), computed here without cancellation in the
    counting stage.
    """

    field: PrimeField
    d: int
    counts: np.ndarray

    def coefficient(self) -> complex:
        scale = float(self.field.q) ** -self.d
        return complex(np.sum(self.counts * self.field.char_table) * scale)


def exact_phase_histogram(ps: PointSet, m) -> ExactPhaseHistogram:
    """Tally -x.m mod q over the set with exact integers."""
    q = ps.field.q
    m_arr = np.asarray(m, dtype=np.int64) % q
    if m_arr.shape != (ps.d,):
        raise ValueError(f"frequency must have {ps.d} coordinates")
    phases = (-(ps.coords() @ m_arr)) % q
    counts = np.bincount(phases, minlength=q).astype(np.int64)
    return ExactPhaseHistogram(ps.field, ps.d, counts)
