"""Dirac and Dirac-Pauli dyon Hamiltonians and the vector-expression helpers
used to transcribe closed-form targets.

The rest energy is written as (Eg/2) * beta with Eg the energy gap symbol, so
the staged block-diagonalization can track expansion orders by Eg powers
alone.  The anomalous-moment couplings enter through the gap-scaled symbols
mu = Eg * mu' and d = Eg * d', each carrying an explicit 1/Eg.

The vector shapes (c alpha.Pi, Sigma.F, F.Pi, Sigma.(F x Pi), Pi^2k) have
unit coefficients and are each normal ordered in one pass; callers give
them their scalar prefactor with Expression.scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import algebra as al
from . import clifford


@dataclass(frozen=True)
class ParticleParams:
    """Mass, charges and gyro-ratios of a spin-1/2 dyon.

    The anomalous moments are derived quantities: mu' = (ge/2 - 1) e hbar/2mc
    and d' = (gte/2 - 1) et hbar/2mc, never stored.
    """

    m: Fraction = Fraction(1)
    e: Fraction = Fraction(1)
    etilde: Fraction = Fraction(0)
    ge: Fraction = Fraction(2)
    gte: Fraction = Fraction(2)

    def __post_init__(self):
        for name in ("m", "e", "etilde", "ge", "gte"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @property
    def amm_factor(self) -> Fraction:
        return self.ge / 2 - 1

    @property
    def aem_factor(self) -> Fraction:
        return self.gte / 2 - 1


# fully generic preset: both charges on, both gyro-ratios anomalous
GENERIC_DYON = ParticleParams(e=1, etilde=1, ge=3, gte=3)


# -- elementary building blocks ---------------------------------------------

def rest_mass_term() -> al.Expression:
    return al.Expression.term(Fraction(1, 2), mat=al.BETA_MAT, dims=al.dim(Eg=1))


def potential() -> al.Expression:
    return al.Expression.term(1, word=(al.VPOT,))


def _sum(terms) -> al.Expression:
    """The normal-ordered sum of (mat, word, sign) unit terms, in one pass;
    no two of them share a (mat, word)."""
    return al.Expression({(al.DIM_ZERO, mat, 0, word): sign for mat, word, sign in terms})


def omega_odd() -> al.Expression:
    """c alpha . Pi"""
    return _sum((al.mat_code(1, i), (al.pi(i),), 1)
                for i in (1, 2, 3)).scale(1, dims=al.dim(c=1))


def omega_even() -> al.Expression:
    return potential()


def _field_atom(kind: str, i: int) -> int:
    return al.field_e(i) if kind == "E" else al.field_b(i)


def mat_dot_field(mat_left: int, kind: str) -> al.Expression:
    """Sum_i (left ⊗ sigma_i) F_i for F the E or B field."""
    return _sum((al.mat_code(mat_left, i), (_field_atom(kind, i),), 1)
                for i in (1, 2, 3))


def sigma_dot_pi() -> al.Expression:
    return _sum((al.mat_code(0, i), (al.pi(i),), 1) for i in (1, 2, 3))


def field_dot_pi(kind: str) -> al.Expression:
    return _sum((al.ID_MAT, (_field_atom(kind, i), al.pi(i)), 1) for i in (1, 2, 3))


def sigma_dot_field_cross_pi(kind: str) -> al.Expression:
    """Sum over eps_ijk Sigma_i F_j Pi_k (the spin-orbit word shape)."""
    return _sum((al.mat_code(0, i), (_field_atom(kind, j), al.pi(k)), sign)
                for (i, j), (k, sign) in clifford.LEVI_CIVITA.items())


def pi_squared(power: int) -> al.Expression:
    """(Pi . Pi)^power; power 0 is 1."""
    square = _sum((al.ID_MAT, (al.pi(i), al.pi(i)), 1) for i in (1, 2, 3))
    out = al.Expression.term(1)
    for _ in range(power):
        out = al.mul(out, square)
    return out


# -- Hamiltonians ------------------------------------------------------------

def build_dirac_hamiltonian(p: ParticleParams) -> al.Expression:
    """H = (Eg/2) beta + c alpha.Pi + V; V is omitted for a neutral particle."""
    h = rest_mass_term() + omega_odd()
    if p.e or p.etilde:
        h = h + potential()
    return h


def pauli_even_coupling() -> al.Expression:
    """beta Sigma . (-mu B + d E), gap-scaled moments."""
    return (mat_dot_field(3, "B").scale(-1, dims=al.dim(mu=1))
            + mat_dot_field(3, "E").scale(1, dims=al.dim(d=1)))


def pauli_odd_coupling() -> al.Expression:
    """i gamma . (mu E + d B), gap-scaled moments."""
    return (mat_dot_field(2, "E").scale(1, ip=2, dims=al.dim(mu=1))
            + mat_dot_field(2, "B").scale(1, ip=2, dims=al.dim(d=1)))


def build_dirac_pauli_hamiltonian(p: ParticleParams) -> al.Expression:
    """Dirac Hamiltonian plus the anomalous-moment couplings.

    A coupling is included only when the corresponding anomalous moment is
    nonzero, so ge = gte = 2 reproduces the plain Dirac Hamiltonian.
    """
    h = build_dirac_hamiltonian(p)
    extra = al.Expression.zero()
    if p.e and p.amm_factor:
        extra = extra + al.drop_symbols(
            pauli_even_coupling() + pauli_odd_coupling(), "d")
    if p.etilde and p.aem_factor:
        extra = extra + al.drop_symbols(
            pauli_even_coupling() + pauli_odd_coupling(), "mu")
    return h + extra.scale(1, dims=al.dim(Eg=-1))
