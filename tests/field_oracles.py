"""Pointwise oracles on F_q and the plane rotation group, used only by the tests.

Each is the textbook rule written one scalar at a time, to check the table
and array routes of fqdist against.  A rotation is a pair (a, b) with
a^2 + b^2 = 1, the matrix with rows (a, -b), (b, a).
"""

from fqdist.field import PrimeField


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


def so2_pairs(field: PrimeField) -> list[tuple[int, int]]:
    """Every (a, b) with a^2 + b^2 = 1 mod q, by brute force, in lexicographic order.

    The row order of enumerate_so2's table, which test_so2_rows_match_rotation_apply
    checks row by row.
    """
    q = field.q
    return [(a, b) for a in range(q) for b in range(q) if (a * a + b * b) % q == 1]


def rotation_apply(field: PrimeField, rot: tuple[int, int], v) -> tuple[int, int]:
    """Apply the rotation (a, b) to a 2-vector, returning canonical residues.

    The pointwise oracle for the rows of enumerate_so2, which
    test_so2_rows_match_rotation_apply compares with it.
    """
    a, b = rot
    v1, v2 = (int(v[0]), int(v[1]))
    q = field.q
    return ((a * v1 - b * v2) % q, (b * v1 + a * v2) % q)


def rotation_compose(field: PrimeField, first: tuple[int, int],
                     second: tuple[int, int]) -> tuple[int, int]:
    """Matrix product first*second; same rule as multiplying a+ib by complex a'+ib'.

    test_rotation_compose_matches_matrix_product checks it against rotation_apply.
    """
    (a, b), (c, d) = first, second
    q = field.q
    return ((a * c - b * d) % q, (a * d + b * c) % q)
