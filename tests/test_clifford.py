"""Multiplication table, grading and numeric representation of the basis
(the numeric matrices come from the test oracles)."""

import numpy as np
import pytest

from dyonfw import clifford as cl
from oracles import PAULI_NUMERIC, to_numeric

ALL_ELEMENTS = [cl.BasisElement(left, right)
                for left in range(4) for right in range(4)]


def test_alpha_x_alpha_y_gives_i_sigma_z():
    prod = cl.basis_mul(cl.alpha(1), cl.alpha(2))
    assert prod == cl.BasisElement(0, 3, 1j)


def test_beta_squares_to_identity():
    assert cl.basis_mul(cl.beta(), cl.beta()) == cl.identity()


def test_all_elements_square_to_plus_or_minus_one():
    for elem in ALL_ELEMENTS:
        square = cl.basis_mul(elem, elem)
        assert (square.left, square.right) == (0, 0)
        assert square.phase in (1, -1)


def test_eta_alpha_commutator():
    # [eta, alpha_l] = -2 beta Sigma_l
    for i in (1, 2, 3):
        ab = cl.basis_mul(cl.eta(), cl.alpha(i))
        ba = cl.basis_mul(cl.alpha(i), cl.eta())
        diff = to_numeric(ab) - to_numeric(ba)
        assert np.array_equal(diff, -2 * to_numeric(cl.beta_sigma(i)))


def test_alpha_products_split_into_delta_and_epsilon_parts():
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for q in (1, 2, 3):
        for j in (1, 2, 3):
            prod = cl.basis_mul(cl.alpha(q), cl.alpha(j))
            if q == j:
                assert prod == cl.identity()
            else:
                sign = 1 if (q, j) in eps else -1
                k = eps.get((q, j)) or eps[(j, q)]
                assert prod == cl.BasisElement(0, k, sign * 1j)


def test_known_grades():
    assert cl.beta_grade(cl.sigma(3)) == cl.EVEN
    assert cl.beta_grade(cl.alpha(1)) == cl.ODD
    assert cl.beta_grade(cl.gamma_vec(2)) == cl.ODD
    assert cl.beta_grade(cl.eta()) == cl.ODD
    assert cl.beta_grade(cl.beta()) == cl.EVEN


def test_grade_matches_numeric_anticommutator():
    beta_num = to_numeric(cl.beta())
    for elem in ALL_ELEMENTS:
        m = to_numeric(elem)
        if cl.beta_grade(elem) == cl.EVEN:
            assert np.array_equal(beta_num @ m, m @ beta_num)
        else:
            assert np.array_equal(beta_num @ m, -(m @ beta_num))


def test_grading_is_multiplicative():
    for a in ALL_ELEMENTS:
        for b in ALL_ELEMENTS:
            prod = cl.basis_mul(a, b)
            odd_a = cl.beta_grade(a) == cl.ODD
            odd_b = cl.beta_grade(b) == cl.ODD
            assert (cl.beta_grade(prod) == cl.ODD) == (odd_a != odd_b)


def test_numeric_beta_and_eta_blocks():
    assert np.array_equal(to_numeric(cl.beta()), np.diag([1, 1, -1, -1]))
    eta = to_numeric(cl.eta())
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = -1
    expected[2, 0] = expected[3, 1] = 1
    assert np.array_equal(eta, expected)
    assert np.array_equal(to_numeric(cl.identity()), np.eye(4))


def test_gamma_block_form():
    # gamma_i has sigma_i in the upper-right block and -sigma_i lower-left
    gamma_x = to_numeric(cl.gamma_vec(1))
    assert np.array_equal(gamma_x[0:2, 2:4], PAULI_NUMERIC[1])
    assert np.array_equal(gamma_x[2:4, 0:2], -PAULI_NUMERIC[1])


def test_gamma_equals_beta_times_alpha():
    for i in (1, 2, 3):
        assert cl.basis_mul(cl.beta(), cl.alpha(i)) == cl.gamma_vec(i)


def test_numeric_representation_is_a_homomorphism():
    # all 256 ordered pairs, exact complex-integer entries
    for a in ALL_ELEMENTS:
        for b in ALL_ELEMENTS:
            lhs = to_numeric(cl.basis_mul(a, b))
            rhs = to_numeric(a) @ to_numeric(b)
            assert np.array_equal(lhs, rhs)


def test_invalid_elements_rejected():
    with pytest.raises(ValueError):
        cl.BasisElement(4, 0)
    with pytest.raises(ValueError):
        cl.BasisElement(0, 0, 2)
