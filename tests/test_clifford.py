"""Multiplication table and grading of the basis, as int codes and powers
of i (the numeric matrices come from the test oracles; criterion 8 checks
all 256 products against them)."""

import numpy as np

from dyonfw import clifford as cl
from oracles import PAULI_NUMERIC, to_numeric

# Elements as (code, ip), the matrix i^ip * code.  gamma_i = i (y ⊗ sigma_i)
# and eta = -i (y ⊗ 1) carry the phase that makes their block form real.
ONE, BETA, ETA = (cl.ID_MAT, 0), (cl.BETA_MAT, 0), (cl.mat_code(2, 0), 3)


def alpha(i):
    return cl.mat_code(1, i), 0


def sigma(i):
    return cl.mat_code(0, i), 0


def gamma(i):
    return cl.mat_code(2, i), 1


def product(*factors):
    """The product of (code, ip) elements, read off MAT_TABLE."""
    mat, ip = ONE
    for m, p in factors:
        mat, q = cl.MAT_TABLE[mat][m]
        ip = (ip + p + q) % 4
    return mat, ip


def numeric(element):
    mat, ip = element
    return to_numeric(*cl.mat_parts(mat), 1j ** ip)


def test_alpha_x_alpha_y_gives_i_sigma_z():
    assert product(alpha(1), alpha(2)) == (cl.mat_code(0, 3), 1)


def test_beta_squares_to_identity():
    assert product(BETA, BETA) == ONE


def test_all_elements_square_to_plus_or_minus_one():
    for m in range(16):
        assert cl.MAT_TABLE[m][m] in ((cl.ID_MAT, 0), (cl.ID_MAT, 2))


def test_eta_alpha_commutator():
    # eta alpha_l = -beta Sigma_l and alpha_l eta = beta Sigma_l, so
    # [eta, alpha_l] = -2 beta Sigma_l
    for i in (1, 2, 3):
        assert product(ETA, alpha(i)) == (cl.mat_code(3, i), 2)
        assert product(alpha(i), ETA) == (cl.mat_code(3, i), 0)


def test_alpha_products_split_into_delta_and_epsilon_parts():
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for q in (1, 2, 3):
        for j in (1, 2, 3):
            prod = product(alpha(q), alpha(j))
            if q == j:
                assert prod == ONE
            else:
                ip = 1 if (q, j) in eps else 3
                k = eps.get((q, j)) or eps[(j, q)]
                assert prod == (sigma(k)[0], ip)


def test_known_grades():
    assert [cl.MAT_ODD[m] for m, _ in (sigma(3), alpha(1), gamma(2), ETA, BETA)] == [
        False, True, True, True, False]


def test_grade_matches_numeric_anticommutator():
    beta_num = numeric(BETA)
    for m in range(16):
        a = to_numeric(*cl.mat_parts(m))
        sign = -1 if cl.MAT_ODD[m] else 1
        assert np.array_equal(beta_num @ a, sign * (a @ beta_num))


def test_grading_is_multiplicative():
    for a in range(16):
        for b in range(16):
            prod = cl.MAT_TABLE[a][b][0]
            assert cl.MAT_ODD[prod] == (cl.MAT_ODD[a] != cl.MAT_ODD[b])


def test_numeric_beta_and_eta_blocks():
    assert np.array_equal(numeric(BETA), np.diag([1, 1, -1, -1]))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = -1
    expected[2, 0] = expected[3, 1] = 1
    assert np.array_equal(numeric(ETA), expected)
    assert np.array_equal(numeric(ONE), np.eye(4))


def test_gamma_block_form():
    # gamma_i has sigma_i in the upper-right block and -sigma_i lower-left
    gamma_x = numeric(gamma(1))
    assert np.array_equal(gamma_x[0:2, 2:4], PAULI_NUMERIC[1])
    assert np.array_equal(gamma_x[2:4, 0:2], -PAULI_NUMERIC[1])


def test_gamma_equals_beta_times_alpha():
    for i in (1, 2, 3):
        assert product(BETA, alpha(i)) == gamma(i)
