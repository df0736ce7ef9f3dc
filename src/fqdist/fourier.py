"""Character sums on F_q^d: transforms, certificates, and exact phase counts.

Conventions: for f: F_q^d -> C the forward transform is
    f_hat(m) = q^-d * sum_x chi(-x.m) f(x)
and inversion carries no normalization:
    f(x) = sum_m chi(x.m) f_hat(m).
Plancherel then reads sum_m |f_hat(m)|^2 = q^-d * sum_x |f(x)|^2.

One engine, two kernels.  The engine is a separable axis-at-a-time
transform (_contract_axes): d passes, each one matrix product of a q x q
kernel with the table's leading axis and one copy that moves that axis last,
so after d passes the axes are back in order.  The complex character kernel
(_kernel) gives the transforms below; the real cos/sin kernel (_real_kernel)
gives a real table's transform in float64 (_real_transform), which the pair
spectrum reads through the class table weighted by the real basis
(_real_sphere_characters).  A defining-sum implementation is kept alongside
as an independent route for self-tests; it is quadratic in q^d and guarded.

The sphere decay certificate transforms real indicators, whose spectra obey
f_hat(-m) = conj(f_hat(m)).  Every nonzero m is +- a frequency with
m_1 <= q/2 of the same modulus (m_1 = -m_1 at q = 2, so there every m_1 is
kept), so the certificate computes only those q//2 + 1 leading rows
(_real_half_transform) and its scan stays exhaustive.  It reads every
sphere's first axis off one q x q table and runs the other d - 1 axes of
all q - 1 radii through one workspace allocated per call; the coefficients
are bit-identical to a fresh _real_half_transform of each sphere's
indicator.  forward_transform and inverse_transform give the full spectrum.

A complex transform holds its table and one workspace: _transform_in_place
overwrites the caller's complex128 table through _contract_axes' one
product buffer, so it holds two q^d complex tables.  Callers that build a
table only to transform it (a set's cached transform, the difference
histogram) hand it over; forward_transform and inverse_transform copy their
input once into it and never modify the input.

The sphere transforms' other facts live here too: the per-radius sup
sigma_d(t) (_sphere_sup), the table by norm class (_sphere_characters) and
its real-basis form (_real_sphere_characters).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizeGuardError
from .field import PrimeField
from .geometry import PointSet, _require_enumerable, all_norms, decode_codes

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


@lru_cache(maxsize=32)
def _real_kernel(q: int) -> np.ndarray:
    """R[r, x] at odd q: cos(2 pi r x / q) for r <= q // 2, then sin(2 pi m x / q)
    for m = 1, ..., q // 2 in rows q // 2 + 1, ... (read-only).

    A real table's transform in this basis holds the same facts as its
    complex spectrum: with C and S its cos and sin rows, f_hat(+-m) =
    C(m) -+ i S(m) unnormalised.
    """
    h = q // 2 + 1
    phases = 2.0 * np.pi * np.outer(np.arange(h), np.arange(q)) / q
    kernel = np.concatenate([np.cos(phases), np.sin(phases[1:])])
    kernel.setflags(write=False)
    return kernel


def _contract_axes(arr: np.ndarray, q: int, kernel: np.ndarray, axes: int,
                   product: np.ndarray | None = None) -> np.ndarray:
    """Contract the leading axis of a C-ordered table with kernel and move it
    last, `axes` times: one matrix product into a buffer and one copy back per
    axis.  arr is overwritten and returned flat.  product is the caller's
    (q, arr.size // q) buffer, or a fresh one of arr's dtype when None: a
    complex table with the complex kernel, a float64 one with the real kernel."""
    if product is None:
        product = np.empty((q, arr.size // q), dtype=arr.dtype)
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
    Only the leading axis and the d - 1 after it are contracted, so at d = 1 a
    (q, n) table gives its n columns' transforms as n rows of q//2 + 1.
    """
    kernel = _kernel(q)
    h = q // 2 + 1
    flat = np.asarray(values, dtype=np.float64).reshape(q, -1)
    arr = np.empty((flat.shape[1], h), dtype=np.complex128)
    arr.real = (kernel.real[:h] @ flat).T
    arr.imag = (kernel.imag[:h] @ flat).T
    return _contract_axes(arr, q, kernel, d - 1)


def _real_transform(ps: PointSet) -> np.ndarray:
    """Unnormalised transform of the set's indicator in the basis of
    _real_kernel, at odd q: a float64 table indexed like codes, from d passes
    of _contract_axes."""
    q = ps.field.q
    return _contract_axes(indicator_table(ps).values, q, _real_kernel(q), ps.d)


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


def indicator_table(ps: PointSet, dtype=np.float64) -> DensityTable:
    """0/1 table of a point set, a SplitPointSet included, in dtype (float64 by default)."""
    values = np.zeros(_require_enumerable(ps.field.q, ps.d), dtype=dtype)
    values[ps.codes] = 1.0
    return DensityTable(ps.field, ps.d, values)


def _transform_in_place(table: np.ndarray, q: int, d: int, inverse: bool = False) -> np.ndarray:
    """Transform the caller's complex128 table of q^d cells in place and return it flat.

    The forward transform carries the q^-d normalisation; with inverse the
    conjugate kernel inverts it, unnormalised.  The table is overwritten, and
    the one workspace is _contract_axes' product buffer, so a transform holds
    two q^d complex tables.
    """
    if inverse:
        return _contract_axes(table, q, np.conj(_kernel(q)), d)
    coeffs = _contract_axes(table, q, _kernel(q), d)
    coeffs *= float(q) ** -d
    return coeffs


def forward_transform(f: DensityTable) -> SpectralTable:
    """f_hat(m) = q^-d sum_x chi(-x.m) f(x), via the separable kernel; f is left as it is."""
    coeffs = _transform_in_place(np.array(f.values, dtype=np.complex128), f.field.q, f.d)
    return SpectralTable(f.field, f.d, coeffs)


def inverse_transform(spec: SpectralTable) -> DensityTable:
    """f(x) = sum_m chi(x.m) f_hat(m); exact inverse of forward_transform, spec left as it is."""
    values = _transform_in_place(np.array(spec.coeffs, dtype=np.complex128), spec.field.q,
                                 spec.d, inverse=True)
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


def _sphere_sup(q: int, d: int, t: int) -> float:
    """sigma_d(t) >= max over m != 0 of |S_t_hat(m)|, for the radius t in [0, q) of F_q^d at odd q.

    At t != 0 it is Weil's 2 q^-(d+1)/2, which sphere_decay_check certifies.
    At t = 0 it is the zero sphere's sup: a Gauss sum per s gives, for m != 0,
    q^d S_0_hat(m) = q^-1 g^d sum_{s != 0} eta(s)^d chi(-|m| / (4s)), with
    |g| = sqrt(q) and eta the quadratic character.  At odd d the sum is a Gauss
    sum of modulus sqrt(q) (0 at |m| = 0); at even d it is q - 1 at an isotropic
    m and -1 otherwise, and the cached norm table says if an isotropic m exists.
    """
    if t:
        return 2.0 * float(q) ** (-(d + 1) / 2.0)
    if d % 2:
        return float(q) ** (-(d + 1) / 2.0)
    isotropic = bool((all_norms(q, d)[1:] == 0).any())
    return (q - 1 if isotropic else 1) * float(q) ** (-d / 2.0 - 1.0)


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

    Scans every nonzero radius t and every nonzero frequency m exhaustively,
    reading the spheres off the norm table, which refuses an ambient past the
    enumeration limit.  The indicator is real, so |S_t_hat(-m)| = |S_t_hat(m)|,
    and every nonzero m is +- a frequency with m_1 <= q/2: only those rows are computed.
    One workspace, allocated here, serves every radius, and each radius's
    coefficients are bit-identical to _real_half_transform of its indicator.
    """
    q = field.q
    bound = _sphere_sup(q, d, 1)
    max_ratio = 0.0
    worst_t = 0
    worst_m: tuple[int, ...] = (0,) * d
    kernel = _kernel(q)
    h = q // 2 + 1
    # x is on S_t iff x_1^2 = t - |x_rest|^2, x_rest = (x_2, ..., x_d), so the
    # first-axis transform of S_t's indicator at x_rest is row t - |x_rest|^2
    # of `roots`, whose row s transforms the indicator of {x_1 : x_1^2 = s}.
    # Each entry is a sum of at most two kernel entries, the same in any order,
    # so the gathered table is the one _real_half_transform builds from S_t,
    # and the d - 1 products after it are the same calls on the same values.
    squares = np.arange(q) ** 2 % q
    roots = _real_half_transform(squares[:, None] == np.arange(q), q, 1).reshape(q, h)
    rest_norms = all_norms(q, d)[: q ** (d - 1)]  # the norms of (0, x_rest)
    arr = np.empty((rest_norms.size, h), dtype=np.complex128)
    product = np.empty((q, arr.size // q), dtype=np.complex128)
    moduli = np.empty(arr.size)
    for t in range(1, q):
        np.take(roots, t - rest_norms, axis=0, out=arr, mode="wrap")  # rows mod q
        coeffs = _contract_axes(arr, q, kernel, d - 1, product)
        np.multiply(coeffs, float(q) ** -d, out=coeffs)
        np.abs(coeffs, out=moduli)
        moduli[0] = 0.0  # the zero frequency carries the sphere's mass, not decay
        m_idx = int(np.argmax(moduli))
        ratio = float(moduli[m_idx]) / bound
        if ratio > max_ratio:
            max_ratio = ratio
            worst_t = t
            worst_m = tuple(int(x) for x in decode_codes(q, d, m_idx))
    return SphereDecayReport(bound, max_ratio, worst_t, worst_m,
                             max_ratio <= 1.0 + 1e-9)


def _norm_classes(q: int, d: int) -> np.ndarray:
    """cls[c] = 0 for the zero code and 1 + |c| for every other code of F_q^d."""
    classes = all_norms(q, d) + 1
    classes[0] = 0
    return classes


@lru_cache(maxsize=32)
def _sphere_characters(q: int, d: int) -> np.ndarray:
    """G[a, c] = sum over |v| = a of cos(2 pi v.m_c / q), one column per norm class (read-only).

    m_c is the least code of class c (see _norm_classes).  The sum is real,
    since the sphere S_a is symmetric under v -> -v, and at odd q Witt's
    theorem makes it the same at every m of the class: the orthogonal group
    moves m to any other nonzero m of its norm and keeps S_a.  An empty class
    (no nonzero isotropic m when d = 1, or d = 2 and q = 3 mod 4; no m of
    nonsquare norm when d = 1) gets a zero column.  Each column is a literal character sum
    over all q^d points v, with v.m_c built one coordinate at a time as
    all_norms builds the norms, so no coordinate array is formed.
    """
    norms = all_norms(q, d)  # refuses an ambient past the enumeration limit
    cosines = np.cos(2.0 * np.pi * np.arange(q) / q)
    present, firsts = np.unique(_norm_classes(q, d), return_index=True)
    table = np.zeros((q, q + 1))
    axis = np.arange(q)
    for c, rep in zip(present, decode_codes(q, d, firsts)):
        phases = np.zeros(1, dtype=np.int64)
        for m_j in rep:
            phases = ((phases[:, None] + m_j * axis[None, :]) % q).reshape(-1)
        table[:, c] = np.bincount(norms, weights=cosines[phases], minlength=q)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def _real_sphere_characters(q: int, d: int) -> np.ndarray:
    """B[a, r] = w(r) G[a, cls(m_r)] over the codes r of the real basis of F_q^d (read-only).

    m_r is the frequency vector of r's rows of _real_kernel, and w(r) is 2 to
    the number of m_r's nonzero coordinates: flipping their signs gives w(r)
    frequencies of one class, and the sum of P = E_hat conj(F_hat), both
    unnormalised, over them is w(r) times the sum of T_E T_F over the codes
    with that m_r, as the mixed cos/sin terms cancel.  So sum_m P(m) G[a,
    cls(m)] = sum_r B[a, r] T_E(r) T_F(r), with T from _real_transform.
    """
    h = q // 2 + 1
    frequencies = np.concatenate([np.arange(h), np.arange(1, h)])  # of _real_kernel's rows
    weight = np.where(frequencies == 0, 1.0, 2.0)  # a nonzero frequency stands for -m too
    codes, weights = np.zeros(1, dtype=np.int64), np.ones(1)  # the codes of m_r, and w(r)
    for _ in range(d):
        codes = (codes[:, None] * q + frequencies[None, :]).reshape(-1)
        weights = (weights[:, None] * weight[None, :]).reshape(-1)
    table = _sphere_characters(q, d)[:, _norm_classes(q, d)[codes]] * weights
    table.setflags(write=False)
    return table


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
