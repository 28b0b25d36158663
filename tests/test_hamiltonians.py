"""Hamiltonian construction and the even/odd decomposition."""

import itertools
from fractions import Fraction

import numpy as np

from dyonfw import algebra as al
from dyonfw import hamiltonians as ham
from dyonfw.fw import split_even_odd

import oracles


def test_dirac_hamiltonian_pieces():
    h = ham.build_dirac_hamiltonian(ham.ParticleParams(e=1, etilde=1))
    split = split_even_odd(h)
    assert split.even == ham.potential()
    assert split.odd == ham.omega_odd()
    assert split.mass == ham.rest_mass_term()


def test_neutral_particle_has_no_potential():
    h = ham.build_dirac_hamiltonian(ham.ParticleParams(e=0, etilde=0))
    assert h == ham.rest_mass_term() + ham.omega_odd()


def test_electron_case_matches_dirac():
    # no magnetic charge: structurally the same operator content
    h = ham.build_dirac_hamiltonian(ham.ParticleParams(e=1, etilde=0))
    assert h == ham.rest_mass_term() + ham.omega_odd() + ham.potential()


def test_pauli_reduces_to_dirac_at_g_two():
    p = ham.ParticleParams(e=1, etilde=1, ge=2, gte=2)
    assert ham.build_dirac_pauli_hamiltonian(p) == ham.build_dirac_hamiltonian(p)


def test_pauli_split_gains_field_couplings():
    p = ham.ParticleParams(e=1, etilde=1, ge=3, gte=3)
    h = ham.build_dirac_pauli_hamiltonian(p)
    split = split_even_odd(h)
    even_extra = split.even - ham.potential()
    odd_extra = split.odd - ham.omega_odd()
    assert even_extra == ham.pauli_even_coupling().scale(1, dims=al.dim(Eg=-1))
    assert odd_extra == ham.pauli_odd_coupling().scale(1, dims=al.dim(Eg=-1))
    # couplings are Hermitian even though the odd one carries i gamma
    assert al.hermitian_conjugate(even_extra) == even_extra
    assert al.hermitian_conjugate(odd_extra) == odd_extra


def test_electron_amm_only():
    p = ham.ParticleParams(e=1, etilde=0, ge=Fraction("2.0023"), gte=2)
    h = ham.build_dirac_pauli_hamiltonian(p)
    extra = h - ham.build_dirac_hamiltonian(p)
    assert not extra.is_zero()
    assert al.drop_symbols(extra, "mu").is_zero()  # everything carries mu


def test_split_of_zero():
    split = split_even_odd(al.Expression.zero())
    assert split.mass.is_zero() and split.even.is_zero() and split.odd.is_zero()


def test_derived_moment_factors():
    p = ham.ParticleParams(m=2, e=3, etilde=5, ge=4, gte=1)
    assert p.amm_factor == 1
    assert p.aem_factor == Fraction(-1, 2)


_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1, -1]))


def _eps(i, j, k):
    """Levi-Civita symbol as the parity of a permutation matrix."""
    return round(np.linalg.det(np.eye(3)[[i - 1, j - 1, k - 1]]))


def test_vector_shapes_match_the_oracle():
    """Each shape against raw terms, written with np.kron matrices and a
    permutation-parity epsilon and reordered by the independent oracle."""
    one, idx = al.DIM_ZERO, (1, 2, 3)

    def mat(left, i):
        return np.kron(_PAULI[left], _PAULI[i])

    def field(kind, i):
        return al.field_e(i) if kind == "E" else al.field_b(i)

    cases = [(ham.omega_odd(), [(1, al.dim(c=1), mat(1, i), [al.pi(i)]) for i in idx]),
             (ham.sigma_dot_pi(), [(1, one, mat(0, i), [al.pi(i)]) for i in idx])]
    for kind in ("E", "B"):
        cases += [(ham.mat_dot_field(left, kind),
                   [(1, one, mat(left, i), [field(kind, i)]) for i in idx])
                  for left in range(4)]
        cases.append((ham.field_dot_pi(kind),
                      [(1, one, np.eye(4), [field(kind, i), al.pi(i)]) for i in idx]))
        cases.append((ham.sigma_dot_field_cross_pi(kind),
                      [(_eps(i, j, k), one, mat(0, i), [field(kind, j), al.pi(k)])
                       for i, j, k in itertools.permutations(idx)]))
    powers = [(ham.pi_squared(n), n, one) for n in (0, 1, 2, 3)]
    powers.append((ham.pi_squared(2).scale(1, dims=al.dim(m=-4, c=-4)), 2, al.dim(m=-4, c=-4)))
    for shape, power, dims in powers:
        # (Pi.Pi)^n expanded: Pi_i Pi_i Pi_j Pi_j ... over every index word
        cases.append((shape, [(1, dims, np.eye(4), [al.pi(i) for i in word for _ in range(2)])
                              for word in itertools.product(idx, repeat=power)]))
    for shape, raw in cases:
        assert oracles.matrices_equal(oracles.expand(raw),
                                      oracles.expression_to_matrices(shape))
