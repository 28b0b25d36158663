"""Exact multiplication table for the 16-element Dirac matrix algebra.

Every 4x4 matrix used here is a tensor product (left ⊗ right) of Pauli
factors, the left factor acting on the particle/antiparticle blocks and the
right factor on spin.  Factor indices follow the convention 0 = identity,
1..3 = sigma_x, sigma_y, sigma_z, and a basis matrix is the int code
left * 4 + right.  Products close on the 16 phase-free matrices up to a
phase i^ip, ip in 0..3, so the whole algebra is exact: MAT_TABLE[m1][m2] is
the (code, ip) of m1 m2, built at import from the Pauli product.
"""

from __future__ import annotations

# The Levi-Civita symbol, typed once: (i, j) -> (k, eps_ijk) for i != j, the
# cyclic pairs first.  sigma_i sigma_j = delta_ij + i eps_ijk sigma_k; algebra
# reads it for [Pi_i, Pi_j] and hamiltonians for Sigma . (F x Pi).
LEVI_CIVITA = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
               (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1)}

ID_MAT = 0
BETA_MAT = 12


def mat_code(left: int, right: int) -> int:
    return left * 4 + right


def mat_parts(mat: int) -> tuple[int, int]:
    return mat // 4, mat % 4


def _pauli_product(a: int, b: int) -> tuple[int, int]:
    """Product of two Pauli factors as (index, power of i)."""
    if a == 0:
        return b, 0
    if b == 0:
        return a, 0
    if a == b:
        return 0, 0
    k, sign = LEVI_CIVITA[(a, b)]
    return k, sign % 4


def _mat_mul(m1: int, m2: int) -> tuple[int, int]:
    (l1, r1), (l2, r2) = mat_parts(m1), mat_parts(m2)
    (left, pl), (right, pr) = _pauli_product(l1, l2), _pauli_product(r1, r2)
    return mat_code(left, right), (pl + pr) % 4


MAT_TABLE = tuple(tuple(_mat_mul(m1, m2) for m2 in range(16)) for m1 in range(16))

# MAT_ANTI[m1][m2]: the two basis matrices anticommute (else they commute),
# read off the phases of m1 m2 and m2 m1, which differ by 1 or by -1.
MAT_ANTI = tuple(tuple((MAT_TABLE[m1][m2][1] - MAT_TABLE[m2][m1][1]) % 4 == 2
                       for m2 in range(16)) for m1 in range(16))

# MAT_ODD[mat]: the matrix anticommutes with beta = (z ⊗ 1), so it is odd in
# the block grading (else it commutes and is even).
MAT_ODD = MAT_ANTI[BETA_MAT]
