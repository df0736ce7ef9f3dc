"""Prime fields, additive characters, and the plane rotation group.

Scalars are canonical residues in [0, q).  All arithmetic here is exact
integer arithmetic mod q; the only floats are the precomputed values of the
additive character chi(t) = exp(2*pi*i*t/q).  The rotation group SO2 of the
plane F_q^2 is used only through how it moves plane codes (v1 q + v2), so
enumerate_so2 returns it as one table of code permutations, a row per rotation.
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


def enumerate_so2(field: PrimeField) -> np.ndarray:
    """The plane rotation group SO2 as a table of code permutations, one row per rotation.

    Row i is perm[c] = code of R v for the plane vector v with code c, where R
    has matrix rows (a, -b), (b, a) and (a, b) is the i-th solution of
    a^2 + b^2 = 1 mod q in lexicographic order.  The inverse of a row is
    np.argsort(row).  The table is a fresh int32 array of shape (|SO2|, q^2),
    filled one row at a time; q^2 (q+2) > 5e7 is refused, which bounds it
    and keeps every code below 2^31.
    """
    q = field.q
    if q * q * (q + 2) > 5 * 10**7:
        raise SizeGuardError(f"the SO2 table is refused where q^2 (q+2) > 5e7; "
                             f"q = {q} gives {q * q * (q + 2)}")
    squares = np.arange(q) ** 2 % q
    rotations = np.argwhere((squares[:, None] + squares[None, :]) % q == 1)  # lexicographic (a, b)
    v1, v2 = np.divmod(np.arange(q * q, dtype=np.int64), q)
    perms = np.empty((len(rotations), q * q), dtype=np.int32)
    for row, (a, b) in zip(perms, rotations):
        row[:] = (a * v1 - b * v2) % q * q + (b * v1 + a * v2) % q
    return perms


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
    # Column c, sorted: the codes of every rotation applied to the vector with code c.
    orbits = enumerate_so2(field)
    orbits.sort(axis=0)
    m = len(orbits)
    v1, v2 = np.divmod(np.arange(q * q, dtype=np.int64), q)
    norms = (v1 * v1 + v2 * v2) % q
    # Column c is its circle when its m codes are distinct and of its norm, and
    # |circle| = m.  Norms are below q < 2^15 under the table's guard, so the gather is int16.
    is_circle = (np.all(orbits[1:] != orbits[:-1], axis=0)
                 & np.all(norms.astype(np.int16)[orbits] == norms, axis=0)
                 & (np.bincount(norms, minlength=q)[norms] == m))
    failing = np.flatnonzero((norms[1:] == 0) | ~is_circle[1:])
    if not len(failing):
        return OrbitReport(m, q * q - 1, True, None)
    c = int(failing[0]) + 1  # codes 1 .. c-1 passed
    reason = "norm 0" if norms[c] == 0 else "orbit"
    return OrbitReport(m, c - 1, False, (int(v1[c]), int(v2[c]), reason))
