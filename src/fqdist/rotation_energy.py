"""Rotation-averaged pair energies for the plane-pair split k = l = 2.

Everything here lives in F_q^4 with q = 3 mod 4, viewed as two planes.  A
rotation is a row of field.enumerate_so2's table, the code permutation it
makes of a plane, and its inverse is that row's argsort.  The central object
is the chain
    sum_{a,b} s(a,b)^2  <=  sum over (theta, phi) in SO2^2 of
                            sum_u r_E(u) r_F(u),
where r_{theta,phi}^E(u', u'') counts pairs (x, z) in E^2 with x' - theta z'
= u' and x'' - phi z'' = u''.  The left side is exact integer counting from
the pair spectrum.  The right side is exact too: for each rotation pair
R = (theta, phi) it counts quadruples with x - y = R(z - w), which is
sum_v D(v) D(R v) over the difference histogram D of E - F
(pair_spectrum.difference_histogram), an exact integer array whose
norm-class sums must be the pair spectrum.  Viewed as a q^2 x q^2 matrix,
D gives every phi term of one theta from one float64 matrix product over the
circles of the second plane, exact because every partial sum is an integer
below 2^53 (_rotation_pair_energies).
Three cross-checks:
  - the literal pair count rotation_correlation, which visits all |E|^2
    pairs and reads each half of x - R z from one q^2 x q^2 plane-difference
    table, with no transform.  The energy suite compares it with the
    transform identity on sampled rotation pairs (correlation_transform_check)
    and the tests compare it with every rotation pair's term of rhs;
  - the split of the right side into zero, mixed, and nonzero frequency
    classes through the character transform, which must agree to a relative
    tolerance;
  - the exact orbit-weight identity rhs - lhs = sum (w_a w_b - 1) s(a,b)^2,
    in integers against the pair spectrum.  rhs depends on D only through
    its sums over the rotation orbits, which here are the classes
    (|v'|, |v''|), and neither route of the pair spectrum reads D, so the
    identity checks the rotation products and D's class sums against a
    spectrum counted without D.
The chain's transform-based checks read each set's cached indicator transform
(SplitPointSet.transform), so a set is transformed at most once however many
look at it; sphere_restricted_mass transforms only E's q^2 fibre counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeGuardError
from .field import PrimeField, enumerate_so2
from .fourier import DensityTable, _transform_in_place, forward_transform
from .geometry import _require_enumerable, all_norms, enumerate_sphere
from .pair_spectrum import (
    PairSpectrum,
    SplitPointSet,
    _pair_chunk,
    _require_scannable,
    difference_histogram,
    spectrum_energy,
)

# Largest |r_hat - q^4 E_hat conj(E_hat o R^-1)| a correlation-transform check passes.
CORRELATION_TOLERANCE = 1e-8


def _require_plane_pair(e: SplitPointSet) -> None:
    if e.field.q_mod_4 != 3:
        raise ValueError(f"requires q = 3 mod 4, got q = {e.field.q}")
    if e.k != 2 or e.l != 2:
        raise ValueError(f"requires the plane-pair split k = l = 2, got ({e.k}, {e.l})")


def rotation_correlation(e: SplitPointSet, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """r[u', u''] = #{(x, z) in E^2 : x' - theta z' = u', x'' - phi z'' = u''} by plane codes.

    theta and phi are rows of enumerate_so2's table.  Every one of the
    |E|^2 pairs is visited, with no transform: each half of a pair is one
    gather from the plane-difference table
    pdiff[c_x, c_z] = code(x - z), which has q^2 x q^2 cells.  Within a chunk
    of x, the first half pdiff[c, theta z'] q^2 is gathered once per distinct
    first plane code c, at most min(chunk, q^2) rows of n cells, and then
    indexed for every x with that code.  The second half is gathered per x,
    as the rows of the chunk (chunk x q^2 cells) and then the columns of
    every rotated z.  Gathering the second half with one 2-D index instead
    was 27-47% slower at q = 11 and from 12% faster to 8% slower at q in
    {43, 47}, for n in {1000, 2000} (warm alternating calls, one core).
    The table and the joint codes are int32, since every code is below
    q^4 <= MAX_ENUMERATION < 2^31; the counts accumulate in int64.
    """
    _require_plane_pair(e)
    q = e.field.q
    n = len(e)
    _require_scannable(n, n)
    cells = _require_enumerable(q, 4)  # the table and the histogram are both q^4 cells
    plane = q * q
    axis = np.arange(q)
    diff = ((axis[:, None] - axis[None, :]) % q).astype(np.int32)
    pdiff = (diff[:, None, :, None] * q + diff[None, :, None, :]).reshape(plane, plane)
    first, second = e.first_codes(), e.second_codes()
    rotated_first = theta[first]
    rotated_second = phi[second]
    # The first chunk's counts start the sum (an empty E has one empty
    # chunk), so no q^4-cell array of zeros is written and added.
    flat = None
    chunk = _pair_chunk(n, cells)
    for start in range(0, max(n, 1), chunk):
        rows = slice(start, start + chunk)
        distinct, run = np.unique(first[rows], return_inverse=True)
        first_half = pdiff[distinct][:, rotated_first]
        first_half *= plane
        joint = first_half[run]
        joint += pdiff[second[rows]][:, rotated_second]
        counts = np.bincount(joint.reshape(-1), minlength=cells)
        if flat is None:
            flat = counts
        else:
            flat += counts
    return flat.reshape(plane, plane)


@dataclass(frozen=True)
class CorrelationTransformReport:
    """Agreement of the counted correlation with its closed transform form."""

    max_deviation: float
    passed: bool


def correlation_transform_check(e: SplitPointSet, theta: np.ndarray,
                                phi: np.ndarray) -> CorrelationTransformReport:
    """Check r_hat(m', m'') = q^4 E_hat(m', m'') conj(E_hat(inv theta m', inv phi m'')).

    theta and phi are rows of enumerate_so2's table.  The frequency argument
    carries the INVERSE rotations (the matrices are orthogonal, so this is the
    transpose action that falls out of reindexing the defining sum).
    """
    _require_plane_pair(e)
    q = e.field.q
    counts = rotation_correlation(e, theta, phi).reshape(-1)
    r_hat = _transform_in_place(counts.astype(np.complex128), q, 4)
    e_hat = e.transform
    perm_t = np.argsort(theta)
    perm_p = np.argsort(phi)
    rotated_index = (perm_t[:, None] * (q * q) + perm_p[None, :]).reshape(-1)
    rhs = float(q) ** 4 * e_hat * np.conj(e_hat[rotated_index])
    dev = float(np.max(np.abs(r_hat - rhs)))
    return CorrelationTransformReport(dev, dev <= CORRELATION_TOLERANCE)


def _spectral_split(e: SplitPointSet, f: SplitPointSet,
                    so2_size: int) -> tuple[float, float, float]:
    """The transform route to the rotation-summed energy, as (zero, mixed, nonzero).

    These are the (0,0) frequency class, the classes with one zero half, and the rest.
    """
    q = e.field.q
    g = e.transform * np.conj(f.transform)
    plane = all_norms(q, 2)
    classes = (plane[:, None] * q + plane[None, :]).reshape(-1)  # q |m'| + |m''|
    z_real = np.bincount(classes, weights=g.real, minlength=q * q)
    z_imag = np.bincount(classes, weights=g.imag, minlength=q * q)
    z_sq = (z_real**2 + z_imag**2).reshape(q, q)
    scale = float(q) ** 12
    zero = scale * so2_size**2 * float(z_sq[0, 0])
    mixed = scale * so2_size * float(z_sq[1:, 0].sum() + z_sq[0, 1:].sum())
    nonzero = scale * float(z_sq[1:, 1:].sum())
    return zero, mixed, nonzero


def _rotation_pair_energies(e: SplitPointSet, f: SplitPointSet,
                            perms: np.ndarray) -> np.ndarray:
    """m[i, j] = sum_u r_E(u) r_F(u) at (theta, phi) = (perms[i], perms[j]).

    perms is enumerate_so2's table, one code permutation per rotation.  The
    sum counts quadruples (x, z, y, w) in E^2 x F^2 with
    x - y = R(z - w), R = (theta, phi).  With the difference histogram
    D(v) = #{(x, y) in E x F : x - y = v}, viewed as a q^2 x q^2 matrix over
    the plane codes (v', v''), each entry is therefore
    sum_v D(v', v'') D(theta v', phi v'').  D comes from difference_histogram,
    one inversion of the two sets' cached transforms.  For each theta the
    matrix product H = D^T D[theta v', :], with
    H[v'', w''] = sum_v' D(v', v'') D(theta v', w''), gives row i as
    sum_v'' H[v'', phi v''] for every phi at once.  A rotation keeps the
    norm, so only the cells of H with |v''| = |w''| are read.  For
    q = 3 mod 4 the zero vector is the only one of norm 0 and each nonzero
    norm's circle has q + 1 points, so those cells are the zero vector's and
    one (q+1) x (q+1) block per nonzero norm.  Each theta is then one batched
    float64 product of about 2 q^5 flops, against the |SO2| |supp D| random
    gathers of a direct count.

    The floats are exact integers: every term is a nonnegative integer, so
    every partial sum, in any summation order the BLAS picks, is at most the
    entry of m or of H it belongs to, and both are at most
    max D * sum D <= min(|E|, |F|) |E||F|.  Sizes that take that bound to
    2^53 are refused before D is computed.
    """
    q = e.field.q
    plane, size = q * q, q + 1
    ne, nf = len(e), len(f)
    if ne * nf * min(ne, nf) >= 2**53:
        raise SizeGuardError(f"rotation-pair energies of {ne} x {nf} points "
                             "would not be exact in float64")
    # Row c: the plane codes of the circle of the (c+1)-th nonzero norm.
    circles = np.argsort(all_norms(q, 2), kind="stable")[1:].reshape(q - 1, size)
    slot = np.empty(plane, dtype=np.int64)  # a code's position in its circle
    slot[circles] = np.arange(size)
    d = difference_histogram(e, f).astype(np.float64).reshape(plane, plane)
    # Row j: the flat cells (c, s, slot of phi_j circles[c, s]) of the stacked blocks.
    diagonals = np.arange((q - 1) * size) * size + slot[perms[:, circles.reshape(-1)]]
    by_circle = d[:, circles]  # by_circle[v', c, s] = D(v', circles[c, s])
    blocks = by_circle.transpose(1, 2, 0)
    zero = d[:, 0]
    energies = np.empty((len(perms), len(perms)), dtype=np.int64)
    for i, perm_t in enumerate(perms):
        h = blocks @ by_circle[perm_t].transpose(1, 0, 2)
        energies[i] = h.take(diagonals).sum(axis=1) + zero @ zero[perm_t]
    return energies


@dataclass(frozen=True)
class EnergyChainReport:
    """Exact two-sided energy comparison plus its transform cross-check."""

    so2_size: int
    lhs: int
    rhs: int
    holds: bool
    zero_term: Fraction
    zero_agrees: bool
    mixed_term: float
    split_residual: float
    split_ok: bool
    overcount: int
    overcount_matches: bool


def energy_chain_check(e: SplitPointSet, f: SplitPointSet,
                       spectrum: PairSpectrum) -> EnergyChainReport:
    """Certify lhs <= rhs with exact integers and cross-check the split.

    lhs is the squared mass of spectrum, the pair spectrum of E and F.  rhs
    is the rotation-summed correlation energy, computed exactly from the
    difference histogram of E - F (see _rotation_pair_energies).  The report
    also carries:
      - the exact orbit-weight identity rhs - lhs = sum (w_a w_b - 1) s(a,b)^2
        with w_0 = |SO2| and w_t = 1 otherwise, a float-free cross-check of
        the difference histogram against the spectrum, which is counted
        without it;
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
    lhs = spectrum_energy(spectrum)
    perms = enumerate_so2(e.field)
    so2_size = len(perms)
    rhs = sum(int(v) for v in _rotation_pair_energies(e, f, perms).flat)

    # w_a w_b - 1 vanishes off row 0 and column 0, since w_t = 1 for t != 0.
    s = spectrum.s
    axis_mass = sum(int(v) ** 2 for v in (*s[0, 1:], *s[1:, 0]))
    overcount = (so2_size**2 - 1) * int(s[0, 0]) ** 2 + (so2_size - 1) * axis_mass

    zero, mixed, nonzero = _spectral_split(e, f, so2_size)
    zero_formula = Fraction(so2_size**2 * len(e) ** 2 * len(f) ** 2, q**4)
    zero_exact = float(zero_formula)
    zero_agrees = abs(zero - zero_exact) <= 1e-6 * max(1.0, zero_exact)
    residual = abs(zero + mixed + nonzero - rhs) / max(1.0, float(rhs))
    return EnergyChainReport(
        so2_size=so2_size, lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        zero_term=zero_formula, zero_agrees=zero_agrees, mixed_term=mixed,
        split_residual=residual, split_ok=residual <= 1e-6,
        overcount=overcount, overcount_matches=(rhs - lhs == overcount),
    )


@dataclass(frozen=True)
class CircleEnergyReport:
    """Additive energy of a circle: solutions of u + v = u' + v' in S_a^4."""

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
    coords = enumerate_sphere(field, 2, a).coords()
    s1 = (coords[:, 0][:, None] + coords[:, 0][None, :]) % q
    s2 = (coords[:, 1][:, None] + coords[:, 1][None, :]) % q
    sums = np.bincount((s1 * q + s2).reshape(-1), minlength=q * q)
    energy = int(np.dot(sums, sums))
    size = len(coords)
    bound = 3 * size * size
    return CircleEnergyReport(size, energy, bound, energy <= bound)


@dataclass(frozen=True, eq=False)
class SphereMassReport:
    """Spectral mass of E on each frequency circle (|m'| = a, m'' = 0), by radius a."""

    values: np.ndarray
    bound: float
    holds: np.ndarray


def sphere_restricted_mass(e: SplitPointSet) -> SphereMassReport:
    """sum over |m'| = a of |E_hat(m', 0)|^2 against sqrt(3) q^-6 |E|^(3/2), at every radius a.

    E_hat(m', 0) = q^-2 n_hat(m'), where n(x') counts E's points with first half
    x', so one plane transform of n gives every radius.  values and holds are indexed
    by a; radius 0 is the zero frequency, q^-8 |E|^2, which holds since |E| <= q^4.
    """
    _require_plane_pair(e)
    q = e.field.q
    fibers = np.bincount(e.first_codes(), minlength=q * q)
    restricted = forward_transform(DensityTable(e.field, 2, fibers)).coeffs * float(q) ** -2
    values = np.bincount(all_norms(q, 2), weights=np.abs(restricted) ** 2, minlength=q)
    bound = float(np.sqrt(3.0)) * float(q) ** -6 * float(len(e)) ** 1.5
    return SphereMassReport(values, bound, values <= bound * (1.0 + 1e-9))


@dataclass(frozen=True)
class CoverageBoundReport:
    """Three-branch lower bound for the number of achieved distance pairs."""

    branch_mass: float
    branch_mixed: float
    branch_group: float
    min_bound: float
    achieved: int
    empirical_c: float
    c_dominates: bool
    holds: bool


def coverage_min_bound(chain: EnergyChainReport, spectrum: PairSpectrum,
                       constant_c: float) -> CoverageBoundReport:
    """Evaluate min(|E||F|/(3q^4), (|E||F|)^(3/4)/(3Cq^3), q^4/(3|SO2|^2)).

    chain is the energy chain of the same E and F, and spectrum their pair
    spectrum: |SO2| and the mixed spectral term come from chain; q, the set
    sizes and the achieved pair count from spectrum.  The middle branch
    assumes the mixed term is at most C q^3 (|E||F|)^(5/4); the report
    carries the empirical constant mixed / (q^3 (|E||F|)^(5/4)) so the
    assumption is visible.  holds compares the bound with the achieved pair
    count; it is the meaningful certificate whenever c_dominates is True.
    """
    if not (np.isfinite(constant_c) and constant_c > 0):
        raise ValueError("constant_c must be finite and positive")
    q = spectrum.field.q
    achieved = int(np.count_nonzero(spectrum.s))
    product = spectrum.size_e * spectrum.size_f
    branch_mass = product / (3.0 * q**4)
    branch_mixed = product**0.75 / (3.0 * constant_c * q**3)
    branch_group = q**4 / (3.0 * chain.so2_size**2)
    min_bound = min(branch_mass, branch_mixed, branch_group)
    empirical_c = chain.mixed_term / (q**3 * product**1.25)
    return CoverageBoundReport(
        branch_mass=branch_mass, branch_mixed=branch_mixed, branch_group=branch_group,
        min_bound=min_bound, achieved=achieved, empirical_c=empirical_c,
        c_dominates=constant_c >= empirical_c, holds=min_bound <= achieved,
    )
