"""Prime fields, additive characters, and the plane rotation group.

Scalars are canonical residues in [0, q).  All arithmetic here is exact
integer arithmetic mod q; the only floats are the precomputed values of the
additive character chi(t) = exp(2*pi*i*t/q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError

# Trial-division primality keeps field construction instant below this.
MAX_MODULUS = 10**6


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field of integers mod a prime q, with its additive character table.

    Immutable after construction; instances are safe to share across threads.
    Fields with the same modulus are equal and hash alike, so a cache keyed on
    a field serves every instance of it.
    """

    def __init__(self, q: int):
        if not isinstance(q, (int, np.integer)):
            raise TypeError(f"modulus must be an integer, got {type(q).__name__}")
        q = int(q)
        if q > MAX_MODULUS:
            raise SizeGuardError(
                f"modulus {q} exceeds the desk-scale limit {MAX_MODULUS}"
            )
        if q < 2 or not is_prime(q):
            raise ValueError(f"modulus must be prime, got {q}")
        self.q = q
        self.q_mod_4 = q % 4
        # char_table[t] = exp(2*pi*i*t/q); chi(s)chi(t) = chi(s+t) up to float error.
        self.char_table = np.exp(2j * np.pi * np.arange(q) / q)
        self.char_table.setflags(write=False)

    def __repr__(self) -> str:
        return f"PrimeField(q={self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(self.q)


def make_field(q: int) -> PrimeField:
    """Construct the prime field F_q, rejecting composites and oversized moduli."""
    return PrimeField(q)


def quadratic_character(field: PrimeField, t: int) -> int:
    """Legendre symbol of t: 0 at 0, +1 on nonzero squares, -1 otherwise.

    The sphere-count oracle of test_exact_three_dim_sphere_sizes: |S_t| = q^2 + q eta(-t) in 3-D.
    """
    t = t % field.q
    if t == 0:
        return 0
    if field.q == 2:
        return 1
    return 1 if pow(t, (field.q - 1) // 2, field.q) == 1 else -1


@dataclass(frozen=True)
class Rotation:
    """Plane rotation with matrix rows (a, -b), (b, a); needs a^2 + b^2 = 1."""

    a: int
    b: int


def enumerate_so2(field: PrimeField) -> list[Rotation]:
    """All rotations (a, b) with a^2 + b^2 = 1 mod q, in lexicographic order."""
    q = field.q
    roots: list[list[int]] = [[] for _ in range(q)]  # roots[t]: square roots of t, ascending
    for x in range(q):
        roots[x * x % q].append(x)
    return [Rotation(a, b) for a in range(q) for b in roots[(1 - a * a) % q]]


def rotation_apply(field: PrimeField, rot: Rotation, v) -> tuple[int, int]:
    """Apply the rotation matrix to a 2-vector, returning canonical residues.

    The pointwise oracle for rotation_code_permutation, which
    test_rotation_code_permutation_matches_pointwise compares with it.
    """
    v1, v2 = (int(v[0]), int(v[1]))
    q = field.q
    return ((rot.a * v1 - rot.b * v2) % q, (rot.b * v1 + rot.a * v2) % q)


def rotation_compose(field: PrimeField, first: Rotation, second: Rotation) -> Rotation:
    """Matrix product first*second; same rule as multiplying a+ib by complex a'+ib'.

    test_rotation_group_laws_q7 checks the group law of enumerate_so2 and rotation_inverse with it.
    """
    q = field.q
    return Rotation(
        (first.a * second.a - first.b * second.b) % q,
        (first.a * second.b + first.b * second.a) % q,
    )


def rotation_inverse(field: PrimeField, rot: Rotation) -> Rotation:
    """Inverse rotation (a, -b); equals the transpose of the matrix."""
    return Rotation(rot.a, (-rot.b) % field.q)


def rotation_code_permutation(field: PrimeField, rot: Rotation) -> np.ndarray:
    """perm[c] = code of the rotation applied to the plane vector with code c."""
    q = field.q
    codes = np.arange(q * q, dtype=np.int64)
    v1 = codes // q
    v2 = codes % q
    w1 = (rot.a * v1 - rot.b * v2) % q
    w2 = (rot.b * v1 + rot.a * v2) % q
    return w1 * q + w2


@dataclass(frozen=True)
class OrbitReport:
    """Outcome of the exhaustive orbit check on every nonzero plane vector."""

    so2_size: int
    vectors_checked: int
    passed: bool
    counterexample: tuple | None


def so2_orbit_check(field: PrimeField) -> OrbitReport:
    """Certify that SO2 acts simply transitively on each nonzero-vector circle.

    For q = 3 mod 4 every nonzero vector has nonzero norm, and the q+1
    rotations must map it bijectively onto the circle of its norm.  Checks all
    q^2 - 1 nonzero vectors exhaustively, in one sort of the image array.
    """
    if field.q_mod_4 != 3:
        raise ValueError(f"orbit structure requires q = 3 mod 4, got q = {field.q}")
    q = field.q
    if q * q * (q + 2) > 5 * 10**7:
        raise SizeGuardError(f"orbit check enumerates q^2 (q+1) images; q = {q} is too large")
    rotations = enumerate_so2(field)
    m = len(rotations)
    v1, v2 = np.divmod(np.arange(q * q, dtype=np.int64), q)
    norms = (v1 * v1 + v2 * v2) % q
    # Column c, sorted: the codes of every rotation applied to the vector with code c.
    # Codes are below q^2 < 2^31 and norms below q < 2^15 under the guard, so
    # the stack is int32 and its norm gather int16.
    orbits = np.empty((m, q * q), dtype=np.int32)
    for row, rot in zip(orbits, rotations):
        row[:] = rotation_code_permutation(field, rot)
    orbits.sort(axis=0)
    # Column c is its circle when its m codes are distinct and of its norm, and |circle| = m.
    is_circle = (np.all(orbits[1:] != orbits[:-1], axis=0)
                 & np.all(norms.astype(np.int16)[orbits] == norms, axis=0)
                 & (np.bincount(norms, minlength=q)[norms] == m))
    failing = np.flatnonzero((norms[1:] == 0) | ~is_circle[1:])
    if not len(failing):
        return OrbitReport(m, q * q - 1, True, None)
    c = int(failing[0]) + 1  # codes 1 .. c-1 passed
    reason = "norm 0" if norms[c] == 0 else "orbit"
    return OrbitReport(m, c - 1, False, (int(v1[c]), int(v2[c]), reason))
