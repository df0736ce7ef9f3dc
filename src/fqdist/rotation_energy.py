"""Rotation-averaged pair energies for the plane-pair split k = l = 2.

Everything here lives in F_q^4 with q = 3 mod 4, viewed as two planes.  The
central object is the chain
    sum_{a,b} s(a,b)^2  <=  sum over (theta, phi) in SO2^2 of
                            sum_u r_E(u) r_F(u),
where r_{theta,phi}^E(u', u'') counts pairs (x, z) in E^2 with x' - theta z'
= u' and x'' - phi z'' = u''.  The left side is exact integer counting from
the pair spectrum.  The right side is exact too: for each rotation pair
R = (theta, phi) it counts quadruples with x - y = R(z - w), which is
sum_v D(v) D(R v) over the difference histogram D of E - F.  D is
pair_spectrum.difference_histogram, the same exact integer array whose
norm-class sums are the pair spectrum.  Three cross-checks:
  - the literal pair count rotation_correlation, which the energy suite
    compares with the transform identity on sampled rotation pairs
    (correlation_transform_check) and the tests compare with every
    rotation pair's term of rhs;
  - the split of the right side into zero, mixed, and nonzero frequency
    classes through the character transform, which must agree to a relative
    tolerance;
  - the exact orbit-weight identity rhs - lhs = sum (w_a w_b - 1) s(a,b)^2,
    in integers against the pair spectrum.  It holds for any D, so it checks
    the rotation gathers, and D itself whenever the spectrum took the
    literal pair scan.
The transform-based checks here read each set's cached indicator transform
(SplitPointSet.transform), so a set is transformed at most once however many
checks and radii look at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeGuardError
from .field import (
    PrimeField,
    Rotation,
    enumerate_so2,
    rotation_code_permutation,
    rotation_inverse,
)
from .fourier import DensityTable, forward_transform
from .geometry import PointSet, all_norms, decode_codes
from .pair_spectrum import (
    PairSpectrum,
    SplitPointSet,
    _pair_chunk,
    _require_scannable,
    _split_norm_classes,
    achieved_pairs,
    difference_histogram,
    distance_set,
    pair_spectrum,
    spectrum_energy,
)

# Largest |r_hat - q^4 E_hat conj(E_hat o R^-1)| a correlation-transform check passes.
CORRELATION_TOLERANCE = 1e-8


def _require_plane_pair(e: SplitPointSet) -> None:
    if e.field.q_mod_4 != 3:
        raise ValueError(f"requires q = 3 mod 4, got q = {e.field.q}")
    if e.k != 2 or e.l != 2:
        raise ValueError(f"requires the plane-pair split k = l = 2, got ({e.k}, {e.l})")


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """r(u', u'') for one rotation pair, indexed by plane codes."""

    field: PrimeField
    theta: Rotation
    phi: Rotation
    size: int
    counts: np.ndarray  # int64, shape (q^2, q^2)

    def total(self) -> int:
        return int(self.counts.sum())


def _rotated_halves(s: SplitPointSet, rot: Rotation, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the chosen half of every point, rotated by rot."""
    q = s.field.q
    codes = s.first_codes() if which == "first" else s.second_codes()
    rotated = rotation_code_permutation(s.field, rot)[codes]
    return rotated // q, rotated % q


def _half_diff_codes(x1, x2, z1, z2, q: int) -> np.ndarray:
    """Codes of x - z over all (row, column) pairs of plane vectors."""
    u1 = (x1[:, None] - z1[None, :]) % q
    u2 = (x2[:, None] - z2[None, :]) % q
    return u1 * q + u2


def rotation_correlation(e: SplitPointSet, theta: Rotation, phi: Rotation) -> CorrelationTable:
    """Count pairs (x, z) in E^2 by the value (x' - theta z', x'' - phi z'')."""
    _require_plane_pair(e)
    q = e.field.q
    n = len(e)
    _require_scannable(n, n)
    first = decode_codes(q, 2, e.first_codes())
    second = decode_codes(q, 2, e.second_codes())
    rt1, rt2 = _rotated_halves(e, theta, "first")
    rp1, rp2 = _rotated_halves(e, phi, "second")
    flat = np.zeros(q**4, dtype=np.int64)
    chunk = _pair_chunk(max(n, 1))
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        pu = _half_diff_codes(first[rows, 0], first[rows, 1], rt1, rt2, q)
        qu = _half_diff_codes(second[rows, 0], second[rows, 1], rp1, rp2, q)
        joint = (pu * (q * q) + qu).reshape(-1)
        flat += np.bincount(joint, minlength=q**4)
    return CorrelationTable(e.field, theta, phi, n, flat.reshape(q * q, q * q))


@dataclass(frozen=True)
class CorrelationTransformReport:
    """Agreement of the counted correlation with its closed transform form."""

    q: int
    theta: Rotation
    phi: Rotation
    max_deviation: float
    passed: bool


def correlation_transform_check(e: SplitPointSet, theta: Rotation,
                                phi: Rotation) -> CorrelationTransformReport:
    """Check r_hat(m', m'') = q^4 E_hat(m', m'') conj(E_hat(inv theta m', inv phi m'')).

    The frequency argument carries the INVERSE rotations (the matrices are
    orthogonal, so this is the transpose action that falls out of reindexing
    the defining sum).
    """
    _require_plane_pair(e)
    q = e.field.q
    table = rotation_correlation(e, theta, phi)
    r_hat = forward_transform(DensityTable(e.field, 4, table.counts.reshape(-1).astype(np.complex128))).coeffs
    e_hat = e.transform
    perm_t = rotation_code_permutation(e.field, rotation_inverse(e.field, theta))
    perm_p = rotation_code_permutation(e.field, rotation_inverse(e.field, phi))
    m_first = np.arange(q**4) // (q * q)
    m_second = np.arange(q**4) % (q * q)
    rotated_index = perm_t[m_first] * (q * q) + perm_p[m_second]
    rhs = float(q) ** 4 * e_hat * np.conj(e_hat[rotated_index])
    dev = float(np.max(np.abs(r_hat - rhs)))
    return CorrelationTransformReport(q, theta, phi, dev, dev <= CORRELATION_TOLERANCE)


@dataclass(frozen=True)
class SpectralSplit:
    """The transform route to the rotation-summed energy, by frequency class.

    zero/mixed/nonzero are the contributions of the (0,0) class, the classes
    with exactly one vanishing half, and the rest.  zero_formula is the exact
    rational the zero class must equal: |SO2|^2 |E|^2 |F|^2 / q^4.
    """

    zero: float
    mixed: float
    nonzero: float
    zero_formula: Fraction
    total: float


def _spectral_split(e: SplitPointSet, f: SplitPointSet, so2_size: int) -> SpectralSplit:
    q = e.field.q
    g = e.transform * np.conj(f.transform)
    classes = _split_norm_classes(e.field, 2, 2)
    z_real = np.bincount(classes, weights=g.real, minlength=q * q)
    z_imag = np.bincount(classes, weights=g.imag, minlength=q * q)
    z_sq = (z_real**2 + z_imag**2).reshape(q, q)
    scale = float(q) ** 12
    zero = scale * so2_size**2 * float(z_sq[0, 0])
    mixed = scale * so2_size * float(z_sq[1:, 0].sum() + z_sq[0, 1:].sum())
    nonzero = scale * float(z_sq[1:, 1:].sum())
    zero_formula = Fraction(so2_size**2 * len(e) ** 2 * len(f) ** 2, q**4)
    return SpectralSplit(zero, mixed, nonzero, zero_formula, zero + mixed + nonzero)


def _rotation_pair_energies(e: SplitPointSet, f: SplitPointSet,
                            rotations: list[Rotation]) -> np.ndarray:
    """m[i, j] = sum_u r_E(u) r_F(u) at (theta, phi) = (rotations[i], rotations[j]).

    The sum counts quadruples (x, z, y, w) in E^2 x F^2 with
    x - y = R(z - w), R = (theta, phi).  With the difference histogram
    D(v) = #{(x, y) in E x F : x - y = v} each entry is therefore
    sum_v D(v) D(theta v', phi v''), an integer gather over the support of D.
    D comes from difference_histogram, one inversion of the two sets' cached
    transforms; the gathers cost |SO2|^2 |supp D| with
    |supp D| <= min(|E||F|, q^4), never more than half the
    |SO2|^2 (|E|^2 + |F|^2) pairs a literal count scans.  They run in phi
    batches of about 4e6 cells.
    """
    q = e.field.q
    ne, nf = len(e), len(f)
    # Each entry is at most max D * sum D <= min(|E|, |F|) |E||F|.
    if ne * nf * min(ne, nf) >= 2**63:
        raise SizeGuardError("rotation-pair energies would overflow int64")
    d = difference_histogram(e, f)
    support = np.flatnonzero(d)
    weights = d[support]
    first, second = np.divmod(support, q * q)
    perms = np.stack([rotation_code_permutation(e.field, rot) for rot in rotations])
    batch = _pair_chunk(len(support))
    energies = np.empty((len(rotations), len(rotations)), dtype=np.int64)
    for start in range(0, len(rotations), batch):
        rotated_second = perms[start : start + batch, second]
        for i, perm_t in enumerate(perms):
            rotated = rotated_second + perm_t[first] * (q * q)
            energies[i, start : start + batch] = d.take(rotated) @ weights
    return energies


@dataclass(frozen=True)
class EnergyChainReport:
    """Exact two-sided energy comparison plus its transform cross-check."""

    q: int
    size_e: int
    size_f: int
    so2_size: int
    lhs: int
    rhs: int
    holds: bool
    zero_term: Fraction
    zero_float: float
    zero_agrees: bool
    mixed_term: float
    nonzero_term: float
    split_residual: float
    split_ok: bool
    overcount: int
    overcount_matches: bool


def energy_chain_check(e: SplitPointSet, f: SplitPointSet,
                       spectrum: PairSpectrum | None = None) -> EnergyChainReport:
    """Certify lhs <= rhs with exact integers and cross-check the split.

    lhs is the squared mass of the pair spectrum.  rhs is the rotation-summed
    correlation energy, computed exactly from the difference histogram of
    E - F (see _rotation_pair_energies).  The report also carries:
      - the exact orbit-weight identity rhs - lhs = sum (w_a w_b - 1) s(a,b)^2
        with w_0 = |SO2| and w_t = 1 otherwise, a float-free cross-check;
      - the frequency-class split of rhs, whose zero class must equal
        |SO2|^2 |E|^2 |F|^2 / q^4 and whose total must match rhs to a
        relative 1e-6.
    """
    _require_plane_pair(e)
    _require_plane_pair(f)
    if e.field.q != f.field.q:
        raise ValueError("the two sets must share q")
    if len(e) == 0 or len(f) == 0:
        raise ValueError("energy comparison needs nonempty sets")
    q = e.field.q
    if spectrum is None:
        spectrum = pair_spectrum(e, f)
    lhs = spectrum_energy(spectrum)
    rotations = enumerate_so2(e.field)
    so2_size = len(rotations)
    rhs = sum(int(v) for v in _rotation_pair_energies(e, f, rotations).flat)

    weights = np.ones(q, dtype=object)
    weights[0] = so2_size
    overcount = 0
    for a in range(q):
        for b in range(q):
            w = int(weights[a]) * int(weights[b]) - 1
            if w:
                v = int(spectrum.s[a, b])
                overcount += w * v * v

    split = _spectral_split(e, f, so2_size)
    zero_exact = float(split.zero_formula)
    zero_agrees = abs(split.zero - zero_exact) <= 1e-6 * max(1.0, zero_exact)
    residual = abs(split.total - rhs) / max(1.0, float(rhs))
    return EnergyChainReport(
        q=q, size_e=len(e), size_f=len(f), so2_size=so2_size,
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        zero_term=split.zero_formula, zero_float=split.zero, zero_agrees=zero_agrees,
        mixed_term=split.mixed, nonzero_term=split.nonzero,
        split_residual=residual, split_ok=residual <= 1e-6,
        overcount=overcount, overcount_matches=(rhs - lhs == overcount),
    )


@dataclass(frozen=True)
class CircleEnergyReport:
    """Additive energy of a circle: solutions of u + v = u' + v' in S_a^4."""

    q: int
    a: int
    sphere_size: int
    energy: int
    bound: int
    holds: bool


def circle_energy(field: PrimeField, a: int) -> CircleEnergyReport:
    """Count sumset collisions on the radius-a circle and compare to 3|S_a|^2."""
    if field.q_mod_4 != 3:
        raise ValueError(f"requires q = 3 mod 4, got q = {field.q}")
    a = a % field.q
    if a == 0:
        raise ValueError("the zero circle is degenerate here; use a != 0")
    q = field.q
    norms = all_norms(q, 2)
    codes = np.nonzero(norms == a)[0]
    coords = decode_codes(q, 2, codes)
    s1 = (coords[:, 0][:, None] + coords[:, 0][None, :]) % q
    s2 = (coords[:, 1][:, None] + coords[:, 1][None, :]) % q
    sums = np.bincount((s1 * q + s2).reshape(-1), minlength=q * q)
    energy = int(np.dot(sums, sums))
    size = len(codes)
    bound = 3 * size * size
    return CircleEnergyReport(q, a, size, energy, bound, energy <= bound)


@dataclass(frozen=True)
class SphereMassReport:
    """Spectral mass of E on the frequency circle (|m'| = a, m'' = 0)."""

    q: int
    a: int
    size: int
    value: float
    bound: float
    holds: bool


def sphere_restricted_mass(e: SplitPointSet, a: int) -> SphereMassReport:
    """sum over |m'| = a of |E_hat(m', 0)|^2 against sqrt(3) q^-6 |E|^(3/2).

    E's transform is computed on the first call and reused for every radius.
    """
    _require_plane_pair(e)
    q = e.field.q
    a = a % q
    norms = all_norms(q, 2)
    circle = np.nonzero(norms == a)[0]
    restricted = e.transform[circle * (q * q)]  # frequencies (m', 0)
    value = float(np.sum(np.abs(restricted) ** 2))
    bound = float(np.sqrt(3.0)) * float(q) ** -6 * float(len(e)) ** 1.5
    return SphereMassReport(q, a, len(e), value, bound,
                            value <= bound * (1.0 + 1e-9))


@dataclass(frozen=True)
class CoverageBoundReport:
    """Three-branch lower bound for the number of achieved distance pairs."""

    q: int
    size_e: int
    size_f: int
    constant_c: float
    branch_mass: float
    branch_mixed: float
    branch_group: float
    min_bound: float
    achieved: int
    empirical_c: float
    c_dominates: bool
    holds: bool


def coverage_min_bound(e: SplitPointSet, f: SplitPointSet, constant_c: float = 10.0,
                       spectrum: PairSpectrum | None = None) -> CoverageBoundReport:
    """Evaluate min(|E||F|/(3q^4), (|E||F|)^(3/4)/(3Cq^3), q^4/(3|SO2|^2)).

    The middle branch assumes the mixed spectral term is at most
    C q^3 (|E||F|)^(5/4); the report carries the empirical constant
    mixed / (q^3 (|E||F|)^(5/4)) so the assumption is visible.  holds compares
    the bound with the achieved pair count; it is the meaningful certificate
    whenever c_dominates is True.
    """
    _require_plane_pair(e)
    _require_plane_pair(f)
    if len(e) == 0 or len(f) == 0:
        raise ValueError("coverage bound needs nonempty sets")
    if not (np.isfinite(constant_c) and constant_c > 0):
        raise ValueError("constant_c must be finite and positive")
    q = e.field.q
    if spectrum is None:
        spectrum = pair_spectrum(e, f)
    achieved = int(np.count_nonzero(spectrum.s))
    so2_size = len(enumerate_so2(e.field))
    product = len(e) * len(f)
    branch_mass = product / (3.0 * q**4)
    branch_mixed = product**0.75 / (3.0 * constant_c * q**3)
    branch_group = q**4 / (3.0 * so2_size**2)
    min_bound = min(branch_mass, branch_mixed, branch_group)
    split = _spectral_split(e, f, so2_size)
    empirical_c = split.mixed / (q**3 * product**1.25)
    return CoverageBoundReport(
        q=q, size_e=len(e), size_f=len(f), constant_c=constant_c,
        branch_mass=branch_mass, branch_mixed=branch_mixed, branch_group=branch_group,
        min_bound=min_bound, achieved=achieved, empirical_c=empirical_c,
        c_dominates=constant_c >= empirical_c, holds=min_bound <= achieved,
    )


@dataclass(frozen=True)
class StripScanReport:
    """Coverage of (full plane) x (segment of the x-axis) against its product law."""

    q: int
    strip_len: int
    size: int
    coverage: int
    strip_distances: tuple[int, ...]
    expected_coverage: int
    matches: bool
    covers_everything: bool


def plane_strip_scan(field: PrimeField, strip_len: int) -> StripScanReport:
    """Check B(E, E) = F_q x Delta(L) for E = F_q^2 x L, L a strip of the axis."""
    if field.q_mod_4 != 3:
        raise ValueError(f"requires q = 3 mod 4, got q = {field.q}")
    q = field.q
    if not 1 <= strip_len <= q:
        raise ValueError(f"strip length must be in [1, {q}], got {strip_len}")
    strip = PointSet.from_vectors(field, 2, [(i, 0) for i in range(strip_len)])
    e = SplitPointSet.product(PointSet.full(field, 2), strip)
    spectrum = pair_spectrum(e, e)
    coverage = achieved_pairs(spectrum)
    strip_distances = distance_set(strip)
    expected = {(t, dd) for t in range(q) for dd in strip_distances}
    return StripScanReport(
        q=q, strip_len=strip_len, size=len(e), coverage=len(coverage),
        strip_distances=tuple(sorted(strip_distances)),
        expected_coverage=len(expected), matches=coverage == expected,
        covers_everything=len(coverage) == q * q,
    )


def write_circle_energy_csv(path, reports: list[CircleEnergyReport]) -> None:
    """Rows of q, a, sphere size, energy, bound."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "a", "sphere_size", "energy", "bound"])
        for r in reports:
            writer.writerow([r.q, r.a, r.sphere_size, r.energy, r.bound])
