"""Pointwise oracles on F_q and the plane rotation group, used only by the tests.

Each is the textbook rule written one scalar at a time, to check the table
and array routes of fqdist against.
"""

from fqdist.field import PrimeField, Rotation


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
