"""Exact series arithmetic and the kinematic expansions."""

from fractions import Fraction

import pytest

from dyonfw.series import (BOOSTED, INTRINSIC, SeriesPoly, gamma_ratio_series,
                           gamma_series, xi_series)


def test_arithmetic_basics():
    x = SeriesPoly.x(6)
    p = (1 + x) * (1 - x)
    assert p == SeriesPoly([1, 0, -1], 6)
    assert (p - 1 + x * x).coeffs == SeriesPoly.zero(6).coeffs
    assert (x ** 3)[3] == 1 and (x ** 3)[2] == 0


def test_inverse_series():
    x = SeriesPoly.x(8)
    geom = (1 - x).inverse()
    assert all(geom[k] == 1 for k in range(9))
    assert ((1 + x) * (1 + x).inverse()) == SeriesPoly.const(1, 8)


def test_inverse_requires_nonzero_constant():
    with pytest.raises(ZeroDivisionError):
        SeriesPoly.x(4).inverse()


def test_rsqrt_against_square():
    x = SeriesPoly.x(8)
    f = 1 - x * x
    r = f.rsqrt()
    assert (r * r * f) == SeriesPoly.const(1, 8)


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        SeriesPoly.x(4).compose(SeriesPoly.const(1, 4))


def test_gamma_series_through_degree_six():
    g = gamma_series(8)
    assert [g[k] for k in range(7)] == [
        1, 0, Fraction(1, 2), 0, Fraction(3, 8), 0, Fraction(5, 16)]


def test_xi_series_leading_terms():
    xi = xi_series(8)
    # beta (1 - beta^2)^(-1/2) = beta + beta^3/2 + 3 beta^5/8 + ...
    assert [xi[k] for k in range(6)] == [
        0, 1, 0, Fraction(1, 2), 0, Fraction(3, 8)]


def test_gamma_ratio_low_speed_limit():
    r = gamma_ratio_series(8)
    assert r[0] == Fraction(1, 2)
    assert r[2] == Fraction(1, 8)


def test_xi_inverts_to_beta():
    # beta = xi / sqrt(1 + xi^2) composed with xi(beta) returns beta
    deg = 8
    xi = xi_series(deg)
    xi2 = xi * xi
    rsq = (1 + SeriesPoly.x(deg) * SeriesPoly.x(deg)).rsqrt()
    beta_of_xi_coeffs = SeriesPoly.x(deg) * rsq
    assert beta_of_xi_coeffs.compose(xi) == SeriesPoly.x(deg)
    assert (xi2 - SeriesPoly.x(deg) ** 2 * gamma_series(deg) ** 2).coeffs == \
        SeriesPoly.zero(deg).coeffs


def test_prefactor_tables_are_taylor_coefficients_of_their_closed_forms():
    """The tables are typed as literals; here each is checked against the
    Taylor series in x = xi^2 of 1/gamma and 2/(gamma (gamma + 1)),
    gamma = sqrt(1 + x)."""
    x = SeriesPoly.x(8)
    gamma = (1 + x).rsqrt().inverse()
    for table, closed in ((INTRINSIC, (1 + x).rsqrt()),
                          (BOOSTED, 2 * (gamma * (gamma + 1)).inverse())):
        assert tuple(closed[k] for k in range(len(table))) == table
