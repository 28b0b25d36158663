"""The anomalous-coupling commutator chain through the staged pipeline."""

from fractions import Fraction

from dyonfw import algebra as al
from dyonfw import hamiltonians as ham

import oracles


def _w_f():
    """[[Omega_o, even coupling], Omega_o] under linear-field truncation."""
    omega = ham.omega_odd()
    return al.truncate_fields(
        al.commutator(al.commutator(omega, ham.pauli_even_coupling()), omega))


def test_anomalous_double_commutator_closed_form():
    # -4 c^2 beta (Sigma.Pi) ((-mu B + d E).Pi)
    rhs = al.truncate_fields(al.mul(
        al.mul(al.Expression.term(1, mat=al.BETA_MAT),
               ham.sigma_dot_pi()).scale(1, dims=al.dim(c=2)),
        ham.field_dot_pi("B").scale(4, dims=al.dim(mu=1))
        + ham.field_dot_pi("E").scale(-4, dims=al.dim(d=1))))
    assert _w_f() == rhs


def test_anomalous_chain_enters_at_order_three(pauli_result):
    # the mu/d part of the first-stage even slice at order 3 is exactly half
    # the anomalous double commutator, carried by the explicit 1/Eg
    slice3 = al.order_slice(pauli_result.stages[0].even, 3)
    anom = al.Expression({k: v for k, v in slice3.terms.items()
                          if k[0][6] > 0 or k[0][7] > 0})
    expected = _w_f().scale(Fraction(1, 2), dims=al.dim(Eg=-3))
    assert al.truncate_fields(anom) == expected


def test_no_anomalous_longitudinal_terms_at_order_four(pauli_result):
    # the |Pi|^2-scaled anomalous term is pushed one order up by its 1/Eg:
    # slice 4 carries no (Sigma.Pi)(field.Pi) words with a moment symbol
    slice4 = al.order_slice(pauli_result.stages[0].even, 4)
    for key in slice4.terms:
        if key[0][6] > 0 or key[0][7] > 0:
            pi_count = sum(1 for a in key[3] if oracles.is_pi(a))
            assert pi_count != 4


def test_anomalous_quartic_appears_at_order_five(pauli_result):
    slice5 = al.order_slice(pauli_result.stages[0].even, 5)
    found = any((key[0][6] > 0 or key[0][7] > 0)
                and sum(1 for a in key[3] if oracles.is_pi(a)) == 4
                for key in slice5.terms)
    assert found
