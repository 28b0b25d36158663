"""Exact multiplication table for the 16-element Dirac matrix algebra.

Every 4x4 matrix used here is a tensor product (left ⊗ right) of Pauli
factors, the left factor acting on the particle/antiparticle blocks and the
right factor on spin.  Factor indices follow the convention 0 = identity,
1..3 = sigma_x, sigma_y, sigma_z.  Products close on the 16 phase-free
elements up to a phase in {+1, -1, +i, -i}, so the whole algebra is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

# The Levi-Civita symbol, typed once: (i, j) -> (k, eps_ijk) for i != j, the
# cyclic pairs first.  sigma_i sigma_j = delta_ij + i eps_ijk sigma_k; algebra
# reads it for [Pi_i, Pi_j] and hamiltonians for Sigma . (F x Pi).
LEVI_CIVITA = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
               (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1)}

PHASES = (1, 1j, -1, -1j)

EVEN = "even"
ODD = "odd"


def pauli_mul(a: int, b: int) -> tuple[int, complex]:
    """Product of two Pauli factors as (index, phase)."""
    if a == 0:
        return b, 1
    if b == 0:
        return a, 1
    if a == b:
        return 0, 1
    k, sign = LEVI_CIVITA[(a, b)]
    return k, sign * 1j


@dataclass(frozen=True)
class BasisElement:
    """One of the 16 basis matrices, carrying an explicit phase."""

    left: int
    right: int
    phase: complex = 1

    def __post_init__(self):
        if not (0 <= self.left <= 3 and 0 <= self.right <= 3):
            raise ValueError(f"factor indices out of range: {self.left}, {self.right}")
        if self.phase not in PHASES:
            raise ValueError(f"phase must be a fourth root of unity, got {self.phase}")

    def __repr__(self):
        return f"BasisElement({self.left}, {self.right}, {self.phase})"


def basis_mul(a: BasisElement, b: BasisElement) -> BasisElement:
    """Exact product; always a single basis element with a phase."""
    left, pl = pauli_mul(a.left, b.left)
    right, pr = pauli_mul(a.right, b.right)
    return BasisElement(left, right, a.phase * b.phase * pl * pr)


def beta_grade(a: BasisElement) -> str:
    """EVEN if the element commutes with beta = (z ⊗ 1), ODD if it anticommutes.

    Only the left factor matters: sigma_z commutes with {1, sigma_z} and
    anticommutes with {sigma_x, sigma_y}.
    """
    return ODD if a.left in (1, 2) else EVEN


# Named elements.  gamma_i = i (y ⊗ sigma_i) and eta = -i (y ⊗ 1) carry the
# phase that makes their block form real.

def identity() -> BasisElement:
    return BasisElement(0, 0)


def beta() -> BasisElement:
    return BasisElement(3, 0)


def alpha(i: int) -> BasisElement:
    return BasisElement(1, i)


def sigma(i: int) -> BasisElement:
    return BasisElement(0, i)


def beta_sigma(i: int) -> BasisElement:
    return BasisElement(3, i)


def gamma_vec(i: int) -> BasisElement:
    return BasisElement(2, i, 1j)


def eta() -> BasisElement:
    return BasisElement(2, 0, -1j)
