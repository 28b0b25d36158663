"""Fourth- to sixth-order assembled fixtures as canonical-form identities.

The displayed intermediate forms: the nested chains reduce to pure powers,
the pair sums to symmetric momentum-power sandwiches of the spin-orbit core,
and under linear-field truncation every sixth-order aggregate collapses onto
c^4 |Pi|^4 W with the advertised rational weights.
"""

from fractions import Fraction

from dyonfw import algebra as al
from dyonfw import catalog as cat_mod
from dyonfw import hamiltonians as ham

from oracles import nested_commutator


def _beta():
    return al.Expression.term(1, mat=al.BETA_MAT)


def _forms():
    """(even, odd) first-stage forms of the Dirac Hamiltonian."""
    return cat_mod.first_stage_forms(ham.omega_odd(), ham.omega_even())


def _core_ops():
    omega = ham.omega_odd()
    d_op = al.commutator(omega, ham.omega_even())
    w_op = al.commutator(d_op, omega)
    return omega, d_op, w_op


def _power(e, n):
    out = al.Expression.term(1)
    for _ in range(n):
        out = al.mul(out, e)
    return out


def _sandwich_sum(omega, w_op, weights):
    """sum_k weights[k] * Omega^k W Omega^(4-k)."""
    out = al.Expression.zero()
    for k, wt in enumerate(weights):
        if wt:
            out = out + al.mul(al.mul(_power(omega, k), w_op),
                               _power(omega, 4 - k)).scale(wt)
    return out


def test_fifth_order_chain_is_thirtytwo_omega_sixth():
    omega, _, _ = _core_ops()
    chain = nested_commutator(al.mul(_beta(), omega), omega, 5)
    assert chain == al.mul(_beta(), _power(omega, 6)).scale(32)


def test_fifth_order_pair_sum_truncates_to_omega_sixth():
    omega, _, _ = _core_ops()
    pair = cat_mod.odd_pair_sum(_forms()[1], 4)
    expected = al.mul(_beta(), _power(omega, 6)).scale(Fraction(32, 9))
    assert al.truncate_fields(pair) == al.truncate_fields(expected)


def test_fifth_order_triple_sum_is_pure_field_square():
    # both displayed pieces are bilinear in the fields, so nothing survives
    even, odd = _forms()
    assert al.truncate_fields(cat_mod.odd_triple_sum(odd, even, 3)).is_zero()


def test_fourth_order_triple_sum_vanishes_exactly():
    # [beta O_1, [beta O_1, h_0]] = [D, [D, V]]: D is a field, so it commutes
    # with V, and order 4 carries no triple term at all
    even, odd = _forms()
    _, d_op, _ = _core_ops()
    assert nested_commutator(d_op, ham.omega_even(), 2).is_zero()
    assert cat_mod.odd_triple_sum(odd, even, 2).is_zero()


def test_sixth_order_pair_commutators_exact():
    omega, d_op, w_op = _core_ops()
    _, odd = _forms()
    b = _beta()

    lhs_14 = al.commutator(al.mul(b, odd[1]), odd[4])
    rhs_14 = _sandwich_sum(omega, w_op, [Fraction(8, 15)] * 5)
    assert lhs_14 == rhs_14

    lhs_23 = al.commutator(al.mul(b, odd[2]), odd[3])
    rhs_23 = _sandwich_sum(
        omega, w_op,
        [Fraction(2, 9), Fraction(-2, 9), 0, Fraction(-2, 9), Fraction(2, 9)])
    assert lhs_23 == rhs_23

    # the mirrored orderings coincide
    assert al.commutator(al.mul(b, odd[3]), odd[2]) == lhs_23
    assert al.commutator(al.mul(b, odd[4]), odd[1]) == lhs_14


def test_sixth_order_nested_chain_binomial_pattern():
    omega, _, w_op = _core_ops()
    chain = nested_commutator(al.mul(_beta(), omega), ham.omega_even(), 6)
    expected = _sandwich_sum(omega, w_op, [1, -4, 6, -4, 1])
    assert chain == expected


def test_sixth_order_aggregates_collapse_onto_spin_orbit_core():
    omega, _, w_op = _core_ops()
    pi4w = al.mul(ham.pi_squared(2).scale(1, dims=al.dim(c=4)), w_op)

    def collapses_to(expr, weight):
        return al.truncate_fields(expr) == al.truncate_fields(pi4w.scale(weight))

    chain = nested_commutator(al.mul(_beta(), omega), ham.omega_even(), 6)
    assert collapses_to(chain, 16)
    even, odd = _forms()
    assert collapses_to(cat_mod.odd_pair_sum(odd, 5), Fraction(128, 45))
    assert collapses_to(cat_mod.odd_triple_sum(odd, even, 4), Fraction(64, 9))
