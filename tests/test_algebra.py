"""Canonical form, normal ordering, truncation, conjugation, serialization."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dyonfw import algebra as al
from dyonfw import fw
from dyonfw import hamiltonians as ham

import oracles


def term(coeff, word=(), mat=al.ID_MAT, ip=0, **dims):
    return al.Expression.term(coeff, word=word, mat=mat, ip=ip, dims=al.dim(**dims))


def test_pi_past_potential_emits_field_correction():
    # Pi_x V = V Pi_x + i hbar (e E_x + et B_x)
    lhs = term(1, word=(al.pi(1), al.VPOT))
    expected = (term(1, word=(al.VPOT, al.pi(1)))
                + term(1, word=(al.field_e(1),), ip=1, hbar=1, e=1)
                + term(1, word=(al.field_b(1),), ip=1, hbar=1, et=1))
    assert lhs == expected


def test_pi_pi_swap_emits_dual_field_pair():
    # Pi_y Pi_x = Pi_x Pi_y - (i hbar / c)(e B_z - et E_z)
    lhs = term(1, word=(al.pi(2), al.pi(1)))
    expected = (term(1, word=(al.pi(1), al.pi(2)))
                + term(-1, word=(al.field_b(3),), ip=1, hbar=1, c=-1, e=1)
                + term(1, word=(al.field_e(3),), ip=1, hbar=1, c=-1, et=1))
    assert lhs == expected


def test_fields_commute_without_correction():
    assert term(1, word=(al.pi(2), al.field_e(1))) == term(1, word=(al.field_e(1), al.pi(2)))
    assert term(1, word=(al.VPOT, al.field_b(2))) == term(1, word=(al.field_b(2), al.VPOT))


def test_mul_by_zero():
    omega = ham.omega_odd()
    assert al.mul(omega, al.Expression.zero()).is_zero()
    assert al.mul(al.Expression.zero(), omega).is_zero()


def test_omega_squared_closed_form():
    omega = ham.omega_odd()
    expected = (ham.pi_squared(1).scale(1, dims=al.dim(c=2))
                + ham.mat_dot_field(0, "B").scale(-1, dims=al.dim(hbar=1, c=1, e=1))
                + ham.mat_dot_field(0, "E").scale(1, dims=al.dim(hbar=1, c=1, et=1)))
    assert al.mul(omega, omega) == expected


def test_omega_cubed_is_odd_with_momentum_degree_three():
    omega = ham.omega_odd()
    cubed = al.mul(al.mul(omega, omega), omega)
    assert fw.split_even_odd(cubed).odd == cubed
    degrees = {sum(1 for a in key[3] if oracles.is_pi(a)) for key in cubed.terms}
    assert degrees == {1, 3}
    # cross-check the full canonical form against the brute-force expander
    raw = oracles.raw_terms_from_expression(omega)
    triple = [(c1 * c2 * c3, al.dim_mul(al.dim_mul(d1, d2), d3),
               m1 @ m2 @ m3, w1 + w2 + w3)
              for c1, d1, m1, w1 in raw
              for c2, d2, m2, w2 in raw
              for c3, d3, m3, w3 in raw]
    assert oracles.matrices_equal(
        oracles.expand(triple), oracles.expression_to_matrices(cubed))


def test_commutator_of_anything_with_itself_vanishes():
    d_op = al.commutator(ham.omega_odd(), ham.omega_even())
    assert al.commutator(d_op, d_op).is_zero()


def test_truncate_fields_drops_bilinear_terms():
    mixed = term(1, word=(al.field_e(1), al.field_b(2), al.pi(1)))
    assert al.truncate_fields(mixed).is_zero()
    kinetic = ham.pi_squared(1)
    assert al.truncate_fields(kinetic) == kinetic


def test_sixth_power_weak_field_reduction():
    # Omega^6 under linear-field truncation is the kinetic sextic plus a
    # quartic Zeeman-type piece: c^6 Pi^6 - 3 c^5 hbar Pi^4 Sigma.(eB - et E);
    # rescaled by (1/2mc^2)^5 that is the 1/32 kinetic and -3/16 dipole pair.
    omega = ham.omega_odd()
    omega2 = al.mul(omega, omega)
    omega6 = al.mul(al.mul(omega2, omega2), omega2)
    direct = al.truncate_fields(
        ham.pi_squared(3).scale(1, dims=al.dim(c=6))
        + al.mul(ham.pi_squared(2).scale(1, dims=al.dim(c=5, hbar=1)),
                 ham.mat_dot_field(0, "B").scale(-3, dims=al.dim(e=1))
                 + ham.mat_dot_field(0, "E").scale(3, dims=al.dim(et=1))))
    assert al.truncate_fields(omega6) == direct


def test_hermitian_conjugation_examples():
    d_op = al.commutator(ham.omega_odd(), ham.omega_even())
    assert al.hermitian_conjugate(d_op) == -d_op
    w_op = al.commutator(d_op, ham.omega_odd())
    assert al.hermitian_conjugate(w_op) == w_op
    kinetic = al.mul(al.Expression.term(1, mat=al.BETA_MAT), ham.pi_squared(1))
    assert al.hermitian_conjugate(kinetic) == kinetic


def test_conjugate_matches_numeric_oracle_with_commuting_placeholders():
    # evaluate D as a matrix with scalar placeholders for the field atoms
    import numpy as np
    d_op = al.commutator(ham.omega_odd(), ham.omega_even())
    placeholders = {al.field_e(i): 0.3 * i for i in (1, 2, 3)}
    placeholders.update({al.field_b(i): 0.1 * i + 0.7 for i in (1, 2, 3)})
    numeric = np.zeros((4, 4), dtype=complex)
    for (d, mat, ip, w), c in d_op.terms.items():
        scalar = complex(c) * (1j if ip else 1)
        for atom in w:
            scalar *= placeholders[atom]
        numeric += scalar * oracles.to_numeric(*al.mat_parts(mat))
    assert np.abs(numeric + numeric.conj().T).max() < 1e-12  # anti-Hermitian


def test_order_bookkeeping_reads_energy_gap_exponent():
    e = term(1, word=(al.pi(1),), Eg=-3)
    assert oracles.eg_order(next(iter(e.terms))) == 3
    assert al.truncate_order(e, 2).is_zero()
    assert al.truncate_order(e, 3) == e


def test_substitute_energy_gap():
    e = term(3, word=(al.pi(1),), Eg=-2)
    out = al.substitute_energy_gap(e)
    assert out == term(Fraction(3, 4), word=(al.pi(1),), m=-2, c=-4)


def test_substitute_moments():
    e = term(1, word=(al.field_b(1),), mu=1)
    out = al.substitute_moments(e, ge=3, gte=2)
    assert out == term(Fraction(1, 2), word=(al.field_b(1),), e=1, hbar=1, c=1)
    assert al.substitute_moments(e, ge=2, gte=2).is_zero()


def test_normal_order_rebuilds_hand_made_dicts():
    raw = al.Expression({(al.DIM_ZERO, al.ID_MAT, 0, (al.pi(2), al.pi(1))): Fraction(1)})
    assert raw == term(1, word=(al.pi(2), al.pi(1)))
    assert (al.DIM_ZERO, al.ID_MAT, 0, (al.pi(1), al.pi(2))) in raw.terms
    assert (al.DIM_ZERO, al.ID_MAT, 0, (al.pi(2), al.pi(1))) not in raw.terms


def test_hand_built_dicts_equal_their_term_twins():
    """The constructor normal orders: a hand-built dict with an unsorted V/Pi
    word, or with ip 2 or 3, compares equal to, hashes like and differs by
    zero from the Expression.term of the same key."""
    keys = [((al.pi(2), al.pi(1)), 0), ((), 2), ((al.VPOT, al.pi(1)), 3),
            ((al.pi(3), al.field_b(1), al.VPOT), 2), ((al.pi(1), al.VPOT, al.field_e(2)), 3)]
    for word, ip in keys:
        dims = al.dim(hbar=1, Eg=-2)
        built = al.Expression({(dims, al.BETA_MAT, ip, word): Fraction(-2, 3)})
        twin = al.Expression.term(Fraction(-2, 3), word, al.BETA_MAT, ip, dims)
        assert built == twin and twin == built and hash(built) == hash(twin)
        assert (built - twin).is_zero() and (twin - built).is_zero()


def test_builders_merge_repeated_terms_and_drop_zeros():
    (entry,) = al.to_json_dict(term(1, word=(al.pi(1),)))["terms"]
    data = {"terms": [entry, dict(entry, coeff="2"), dict(entry, coeff="0")]}
    assert al.from_json_dict(data) == term(3, word=(al.pi(1),))
    data["terms"].append(dict(entry, coeff="-3"))
    assert al.from_json_dict(data).is_zero()
    key = (al.DIM_ZERO, al.ID_MAT, 0, (al.pi(2), al.pi(1)))
    assert al.Expression({key: Fraction(0)}).is_zero()


def test_json_roundtrip():
    d_op = al.commutator(ham.omega_odd(), ham.omega_even())
    data = al.to_json_dict(d_op)
    assert al.from_json_dict(data) == d_op
    assert data["terms"][0]["mat"]["phase"] in ("+1", "+i")


def test_latex_emits_zero_and_terms():
    assert al.to_latex(al.Expression.zero()) == "0"
    text = al.to_latex(term(Fraction(-1, 2), word=(al.pi(1),), mat=al.BETA_MAT, c=2))
    assert "\\check\\beta" in text and "\\Pi_x" in text and "\\frac" in text


# ---------------------------------------------------------------------------
# Properties

_atoms = st.integers(min_value=0, max_value=9)
_words = st.lists(_atoms, min_size=0, max_size=6).map(tuple)


# At most 5 V/Pi atoms (the brute-force expander stays quick) shuffled among
# up to 4 field atoms, so that commutator corrections land between fields.
_field_rich_words = st.tuples(
    st.lists(st.integers(al.VPOT, al.P3), max_size=5),
    st.lists(st.integers(al.E1, al.B3), max_size=4),
).flatmap(lambda parts: st.permutations(parts[0] + parts[1])).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_words, _field_rich_words))
def test_normal_order_is_confluent(word):
    """Same canonical form from the engine and the opposite-sweep expander;
    the ordering table of the word's V/Pi atoms holds merged, nonzero
    contributions on sorted V/Pi words (field atoms live in the monomial)."""
    import numpy as np
    table = al._order_vp(tuple(a for a in word if a >= al.VPOT))
    assert len({(w, dd, ip) for w, dd, ip, _ in table}) == len(table)
    assert all(c and list(w) == sorted(w) and all(a >= al.VPOT for a in w)
               for w, _, _, c in table)
    engine = al.Expression.term(1, word=word)
    brute = oracles.expand([(1.0, al.DIM_ZERO, np.eye(4, dtype=complex), list(word))])
    assert oracles.matrices_equal(brute, oracles.expression_to_matrices(engine))


# Raw dict keys as a hand-built expression may hold them: words in any
# order with field atoms anywhere, any phase ip in 0..3, a few monomials
# (so that keys which order alike meet) and zero coefficients among the rest.
_raw_keys = st.tuples(st.sampled_from((al.DIM_ZERO, al.dim(hbar=1, c=-1), al.dim(Eg=-2, mu=1))),
                      st.integers(0, 15), st.integers(0, 3),
                      st.one_of(_words, _field_rich_words))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_raw_keys, st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3))),
                       min_size=1, max_size=3))
def test_constructor_matches_the_bruteforce_expander(raw):
    """Expression(d) on a raw dict against oracles.expand of the same terms,
    their basis matrices and phases i^ip multiplied out numerically."""
    terms = [(complex(c) * 1j ** ip, d, oracles.to_numeric(*al.mat_parts(mat)),
              list(w)) for (d, mat, ip, w), c in raw.items()]
    assert oracles.matrices_equal(oracles.expand(terms),
                                  oracles.expression_to_matrices(al.Expression(raw)))


@settings(max_examples=200, deadline=None)
@given(_words, st.integers(0, 15), st.integers(0, 3))
def test_hermitian_conjugate_is_an_involution(word, mat, ip):
    e = al.Expression.term(Fraction(3, 7), word=word, mat=mat, ip=ip,
                           dims=al.dim(hbar=1))
    assert al.hermitian_conjugate(al.hermitian_conjugate(e)) == e


@settings(max_examples=100, deadline=None)
@given(_words, _words)
def test_product_matches_bruteforce(word1, word2):
    import numpy as np
    a = al.Expression.term(1, word=word1)
    b = al.Expression.term(2, word=word2, dims=al.dim(c=1))
    engine = al.mul(a, b)
    brute = oracles.expand([(2.0, al.dim(c=1), np.eye(4, dtype=complex),
                             list(word1) + list(word2))])
    assert oracles.matrices_equal(brute, oracles.expression_to_matrices(engine))


# Small alphabet and coefficients, so that terms cancel often, both inside an
# operand and between the pairs of a product.
_graded_atoms = st.sampled_from((al.field_e(1), al.field_b(3), al.VPOT, al.pi(1), al.pi(2)))
_graded_coeffs = st.sampled_from((-2, -1, 1, 2, Fraction(1, 2)))


@st.composite
def _graded_expressions(draw):
    """Sums over a few distinct 1/Eg orders in -1..6, gaps between them,
    possibly none at all (the zero expression)."""
    total = al.Expression.zero()
    for order in draw(st.lists(st.integers(-1, 6), max_size=4, unique=True)):
        for _ in range(draw(st.integers(1, 3))):
            total = total + al.Expression.term(
                draw(_graded_coeffs),
                word=draw(st.lists(_graded_atoms, max_size=3).map(tuple)),
                mat=draw(st.integers(0, 15)), ip=draw(st.integers(0, 3)),
                dims=al.dim(Eg=-order, hbar=draw(st.integers(0, 1))))
    return total


@settings(max_examples=80, deadline=None)
@given(_graded_expressions(), _graded_expressions())
def test_truncated_products_are_exact(a, b):
    full = al.mul(a, b)
    for k in range(-3, 13):
        ab, ba = al.mul(a, b, k), al.mul(b, a, k)
        assert ab == al.truncate_order(full, k)
        assert al.commutator(a, b, k) == ab - ba
        assert al.anticommutator(a, b, k) == ab + ba
        assert al.commutator(a, a, k).is_zero()


def test_mat_anti_matches_the_numeric_matrices():
    """MAT_ANTI[m1][m2] against A B == -B A (else A B == B A) on 4x4 matrices."""
    import numpy as np
    numeric = [oracles.to_numeric(*al.mat_parts(m)) for m in range(16)]
    for m1, a in enumerate(numeric):
        for m2, b in enumerate(numeric):
            sign = -1 if al.MAT_ANTI[m1][m2] else 1
            assert np.array_equal(a @ b, sign * (b @ a))


# Terms whose words carry no V or Pi atom commute with every word, so their
# commutator pairs cancel or double without normal ordering both products.
_central_terms = st.tuples(st.integers(-3, 3).filter(bool),
                           st.lists(st.integers(al.E1, al.B3), max_size=3).map(tuple),
                           st.integers(0, 15), st.integers(0, 3))
_any_terms = st.tuples(st.integers(-3, 3).filter(bool), st.lists(_atoms, max_size=4).map(tuple),
                       st.integers(0, 15), st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(st.lists(_central_terms, min_size=1, max_size=3),
       st.lists(_any_terms, min_size=1, max_size=3), st.booleans())
def test_commutators_of_field_only_words_match_the_oracle(central, other, central_left):
    """[a, b] and {a, b} with one operand's words field-only or empty,
    against the oracle's expansion of ab -+ ba with numeric matrices."""
    left, right = (central, other) if central_left else (other, central)

    def numeric(raw):
        return [(c * 1j ** ip, oracles.to_numeric(*al.mat_parts(m)), list(w))
                for c, w, m, ip in raw]

    a, b = (_raw_sum((c, w, m, ip, al.DIM_ZERO) for c, w, m, ip in raw) for raw in (left, right))
    numeric_right = numeric(right)
    pairs = [(x, y) for x in numeric(left) for y in numeric_right]
    for product, sign in ((al.commutator, -1), (al.anticommutator, 1)):
        raw = [(c1 * c2, al.DIM_ZERO, m1 @ m2, w1 + w2) for (c1, m1, w1), (c2, m2, w2) in pairs]
        raw += [(sign * c2 * c1, al.DIM_ZERO, m2 @ m1, w2 + w1)
                for (c1, m1, w1), (c2, m2, w2) in pairs]
        assert oracles.matrices_equal(oracles.expand(raw),
                                      oracles.expression_to_matrices(product(a, b)))


# Denominators that differ between and within operands; with the Mersenne
# prime 2**61 - 1 some numerator products exceed 64 bits.  One kind of term
# sits at 1/Eg orders -1..6 on a small alphabet, so truncation and
# cancellation show; the other varies every dimension slot over -12..12, so
# a packed exponent that reads back wrong, or carries into its neighbour,
# changes some key.
_wide_coeffs = st.builds(Fraction, st.integers(-7, 7).filter(bool),
                         st.sampled_from((1, 2, 3, 7, 105, 2**61 - 1)))
_wide_terms = st.one_of(
    st.tuples(_wide_coeffs, st.lists(_graded_atoms, max_size=3).map(tuple),
              st.integers(0, 15), st.integers(0, 3),
              st.integers(-1, 6).map(lambda order: al.dim(Eg=-order))),
    st.tuples(_wide_coeffs, st.lists(_atoms, max_size=3).map(tuple),
              st.integers(0, 15), st.integers(0, 3),
              st.tuples(*[st.integers(-12, 12)] * 8)))


def _raw_sum(raw) -> al.Expression:
    total = al.Expression.zero()
    for c, word, mat, ip, dims in raw:
        total = total + al.Expression.term(c, word, mat, ip, dims)
    return total


def _pairwise_product(raw1, raw2, k) -> al.Expression:
    """Sum over raw term pairs within order k (None: all of them), with the
    dimension tuples added slot by slot, in Fraction arithmetic only."""
    total = al.Expression.zero()
    for c1, w1, m1, ip1, d1 in raw1:
        for c2, w2, m2, ip2, d2 in raw2:
            dims = tuple(x + y for x, y in zip(d1, d2))
            if k is None or -dims[3] <= k:  # dims[3]: the Eg exponent
                mat, mip = al.MAT_TABLE[m1][m2]
                total = total + al.Expression.term(c1 * c2, w1 + w2, mat, ip1 + ip2 + mip, dims)
    return total


@settings(max_examples=250, deadline=None)
@given(st.lists(_wide_terms, max_size=5), st.lists(_wide_terms, max_size=5))
def test_products_equal_the_pairwise_fraction_sum(raw_a, raw_b):
    """The int-numerator, packed-monomial products, sums, conjugates and
    JSON round trips against naive Fraction and tuple arithmetic."""
    a, b = _raw_sum(raw_a), _raw_sum(raw_b)
    assert al.hermitian_conjugate(a) == _raw_sum(
        (c if ip % 2 == 0 else -c, word[::-1], mat, ip, dims)
        for c, word, mat, ip, dims in raw_a)
    assert al.from_json_dict(al.to_json_dict(a)) == a
    results, expected = [], []
    for k in (-2, 0, 3, 6, 12, None):
        ab, ba = _pairwise_product(raw_a, raw_b, k), _pairwise_product(raw_b, raw_a, k)
        results += [al.mul(a, b, k), al.commutator(a, b, k), al.anticommutator(a, b, k)]
        expected += [ab, ab - ba, ab + ba]
    weights = (Fraction(1, 105), Fraction(-2, 3))
    results.append(al.linear_combination(zip(weights, (a, b))))
    expected.append(a.scale(weights[0]) + b.scale(weights[1]))
    assert results == expected
    for e in results:
        assert all(type(v) is Fraction and math.gcd(v.numerator, v.denominator) == 1
                   for v in e.terms.values())


def _raw_of(e):
    """e's terms, read off its view, as _raw_sum and _pairwise_product take them."""
    return [(c, w, mat, ip, d) for (d, mat, ip, w), c in e.terms.items()]


def _reduced(e) -> bool:
    """e's grouped ints are nonzero, in no empty group, each under a
    monomial of its group's 1/Eg order, and share no factor with their
    denominator, which is the lcm of its view's denominators: the form ==
    and hash compare."""
    groups, den = e._grouped
    nums = [c for sub in groups.values() for c in sub.values()]
    return (all(groups.values()) and 0 not in nums
            and all(oracles.eg_order(al._unpack_key(p, *key[1:])) == key[0]
                    for key, sub in groups.items() for p in sub)
            and math.gcd(den, *nums) == 1
            and den == math.lcm(*(v.denominator for v in e.terms.values())))


def _merged(items) -> dict:
    """(key, Fraction) items summed under their keys, zeros dropped."""
    out = {}
    for key, v in items:
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def _dict_sum(parts) -> dict:
    """Sum of weight * e over (weight, e) pairs, in Fractions over the views."""
    return _merged((key, Fraction(w) * v) for w, e in parts for key, v in e.terms.items())


def _expanded(x, y, k, sign):
    """oracles.expand of x y + sign * y x, over the raw term pairs of the
    views within order k (None: all), with the matrices multiplied numerically."""
    raw = []
    for p, q, s in ((x, y, 1), (y, x, sign)):
        raw += [(s * c1 * c2, al.dim_mul(d1, d2), m1 @ m2, w1 + w2)
                for c1, d1, m1, w1 in oracles.raw_terms_from_expression(p)
                for c2, d2, m2, w2 in oracles.raw_terms_from_expression(q)
                if s and (k is None or -(d1[3] + d2[3]) <= k)]
    return oracles.expand(raw)


@settings(max_examples=60, deadline=None)
@given(st.lists(_wide_terms, max_size=4), st.lists(_wide_terms, max_size=4))
def test_packed_results_reenter_like_their_terms(raw_a, raw_b):
    """Product results fed back in (as operands, to linear_combination, to
    the conjugate and to the order and adjoint reads) against oracles on
    the raw terms of their views: Fraction pairwise sums, the numeric
    expander and dict sums and reads; every result is reduced."""
    a, b = _raw_sum(raw_a), _raw_sum(raw_b)
    weights = (Fraction(1, 105), Fraction(-2, 3), 3)
    for k in (0, 3, None):
        results = [f(a, b, k) for f in (al.mul, al.commutator, al.anticommutator)]
        combined = al.linear_combination(zip(weights, results))
        assert combined.terms == _dict_sum(zip(weights, results))
        reentered = [combined]
        for r in results:
            raw_r = _raw_of(r)
            adjoint = _raw_sum((c if ip % 2 == 0 else -c, w[::-1], mat, ip, d)
                               for c, w, mat, ip, d in raw_r)
            assert len(r) == len(r.terms)
            assert al.min_order(r) == min(map(oracles.eg_order, r.terms), default=None)
            assert al.is_anti_hermitian(r) == (adjoint == -r)
            got = [al.commutator(r, a, k), al.mul(b, r), al.hermitian_conjugate(r)]
            assert got == [_pairwise_product(raw_r, raw_a, k) - _pairwise_product(raw_a, raw_r, k),
                           _pairwise_product(raw_b, raw_r, None), adjoint]
            if k == 3:
                assert oracles.matrices_equal(_expanded(r, a, k, -1),
                                              oracles.expression_to_matrices(got[0]))
            reentered += got
        assert all(map(_reduced, results + reentered))


_MASS_TERM = (al.dim(Eg=1), al.BETA_MAT, 0, ())  # (Eg/2) beta's key, unpacked


def _is_mass(key) -> bool:
    """A term of the fw split's mass part: beta at 1/Eg order -1."""
    return oracles.eg_order(key) == -1 and key[1] == al.BETA_MAT


_P1, _P2 = (al.pi(1),), (al.pi(2),)


@settings(max_examples=150, deadline=None)
@given(st.lists(_wide_terms, max_size=5), st.lists(_wide_terms, max_size=5),
       st.integers(-2, 7), st.booleans())
# Groups that meet under one map: Eg^-1 m^2 and Eg^-2 m^3 c^2 both become
# m / c^2 under substitute_energy_gap (here they cancel); beta Sigma_3 and
# Sigma_3 meet under project_particle_block; and scale's dims, which carry
# Eg, move groups at orders -1, 0 and 2, the rest mass among them.
@example([(Fraction(1), _P1, al.ID_MAT, 0, al.dim(Eg=-1, m=2)),
          (Fraction(-2), _P1, al.ID_MAT, 0, al.dim(Eg=-2, m=3, c=2))],
         [(Fraction(3), _P2, al.ID_MAT, 1, al.dim(Eg=-1))], 0, False)
@example([(Fraction(1, 2), _P2, al.mat_code(3, 3), 0, al.DIM_ZERO),
          (Fraction(3), _P2, al.mat_code(0, 3), 0, al.DIM_ZERO)],
         [(Fraction(1), _P1, al.BETA_MAT, 0, al.dim(Eg=-1))], 1, False)
@example([(Fraction(1, 2), (), al.BETA_MAT, 0, al.dim(Eg=1)),
          (Fraction(2), (al.VPOT,), al.ID_MAT, 0, al.DIM_ZERO),
          (Fraction(-1, 3), _P1 + _P1, al.BETA_MAT, 1, al.dim(Eg=-2))],
         [(Fraction(5), _P2, al.mat_code(1, 2), 0, al.dim(Eg=-1, e=1))], 0, True)
def test_filters_sums_and_equality_match_dict_oracles(raw_a, raw_b, n, mass):
    """The order and field filters, the fw split, scale, the
    substitutions, linear_combination, == and hash against dict filters,
    maps and sums over the views: every result is reduced, and the
    constructor gives back the expression of a view."""
    a, b = _raw_sum(raw_a), _raw_sum(raw_b)
    rest_mass = al.Expression.term(Fraction(1, 2), mat=al.BETA_MAT, dims=al.dim(Eg=1))
    built = [al.mul(a, b), al.commutator(a, b, 4),
             al.linear_combination([(1, al.mul(a, b)), (Fraction(-2, 3), b),
                                    (int(mass), rest_mass)]),
             al.linear_combination([(Fraction(1, 2), al.mul(a, b))]), a, b]
    views = [dict(e.terms) for e in built]
    assert [[x == y for y in built] for x in built] == [[x == y for y in views] for x in views]
    assert all(hash(x) == hash(y) for x in built for y in built if x == y)
    fe, ft = Fraction(1, 6), Fraction(1)  # ge = 7/3, gte = 4
    for k, (e, view) in enumerate(zip(built, views)):
        def kept(test, view=view):
            return {key: v for key, v in view.items() if test(key)}

        assert al.Expression(view) == e
        split, slices = fw.split_even_odd(e), al.by_order(e)
        orders = sorted({oracles.eg_order(key) for key in view})
        even = split.mass + split.even
        got = [al.truncate_order(e, n), al.order_slice(e, n),
               split.mass, split.even, split.odd, *slices.values(),
               al.truncate_fields(e), al.drop_symbols(e, "mu", "et"),
               e.scale(Fraction(-3, 5), ip=3, dims=al.dim(hbar=2, Eg=-1)),
               al.substitute_energy_gap(e), al.substitute_moments(e, Fraction(7, 3), 4),
               al.project_particle_block(even)]
        expected = [
            kept(lambda key: oracles.eg_order(key) <= n),
            kept(lambda key: oracles.eg_order(key) == n),
            kept(_is_mass),
            kept(lambda key: not _is_mass(key) and not al.MAT_ODD[key[1]]),
            kept(lambda key: al.MAT_ODD[key[1]]),
            *[kept(lambda key, o=o: oracles.eg_order(key) == o) for o in orders],
            kept(lambda key: oracles.field_degree(key[3]) < 2),
            kept(lambda key: key[0][6] <= 0 and key[0][5] <= 0),  # mu and et exponents
            _merged(((al.dim_mul(d, al.dim(hbar=2, Eg=-1)), mat, (ip + 3) % 2, w),
                     v * Fraction(-3, 5) * (-1 if (ip + 3) % 4 > 1 else 1))
                    for (d, mat, ip, w), v in view.items()),
            _merged(((al.dim_mul(d, al.dim(Eg=-d[3], m=d[3], c=2 * d[3])), mat, ip, w),
                     v * Fraction(2) ** d[3]) for (d, mat, ip, w), v in view.items()),
            _merged(((al.dim_mul(d, al.dim(mu=-d[6], d=-d[7], e=d[6], et=d[7],
                                           hbar=d[6] + d[7], c=d[6] + d[7])), mat, ip, w),
                     v * fe ** d[6] * ft ** d[7]) for (d, mat, ip, w), v in view.items()),
            _merged(((d, mat % 4, ip, w), v) for (d, mat, ip, w), v in even.terms.items())]
        assert list(slices) == orders
        assert [x.terms for x in got] == expected
        if split.odd:
            with pytest.raises(ValueError, match="inter-block"):
                al.project_particle_block(e)
        parts = [(Fraction(3, 7), e), (-2, built[k - 1]), (5, built[k - 2])]
        combined = al.linear_combination(parts)
        assert combined.terms == _dict_sum(parts)
        assert all(map(_reduced, got + [combined]))


def test_constructor_drops_zero_coefficients():
    """A zero coefficient leaves no term, and keys that pack alike (the same
    field atom elsewhere in the word) are summed, so they may cancel."""
    zero_term = al.Expression({(al.DIM_ZERO, al.ID_MAT, 0, ()): Fraction(0)})
    assert len(zero_term) == 0 and zero_term.is_zero() and zero_term.terms == {}
    assert zero_term == al.Expression.zero() and hash(zero_term) == hash(al.Expression.zero())
    p1, e2 = al.pi(1), al.field_e(2)
    cancelled = al.Expression({(al.DIM_ZERO, al.ID_MAT, 0, (p1, e2)): Fraction(1, 3),
                               (al.DIM_ZERO, al.ID_MAT, 0, (e2, p1)): Fraction(-1, 3)})
    assert cancelled == al.Expression.zero()


def test_filters_hand_back_an_expression_they_keep_whole():
    e = (term(Fraction(2, 3), word=(al.field_e(1), al.pi(1)), Eg=-1)
         + term(5, word=(al.pi(2), al.pi(3))) + term(-1, word=(al.field_b(3),), Eg=-2))
    assert al.truncate_fields(e) is e
    split = fw.split_even_odd(e)
    assert split.even is e and split.odd.is_zero() and split.mass.is_zero()
    zeeman = al.order_slice(e, 2)
    assert zeeman is not e and zeeman == term(-1, word=(al.field_b(3),), Eg=-2)


def test_truncate_order_hands_back_an_expression_within_the_limit():
    e = (term(3, word=(al.pi(1),), Eg=-1) + term(Fraction(1, 2), word=(al.VPOT,), Eg=-2)
         + term(5, word=(al.pi(2), al.pi(3)), Eg=-4))
    assert al.truncate_order(e, 4) is e and al.truncate_order(e, 9) is e
    before = dict(e.terms)
    for n, kept in ((2, 2), (1, 1), (0, 0)):
        cut = al.truncate_order(e, n)
        assert len(cut) == kept and cut is not e and _reduced(cut)
        assert cut.terms == {key: v for key, v in before.items() if oracles.eg_order(key) <= n}
        assert e.terms == before and len(e) == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(_wide_terms, max_size=4), st.lists(_wide_terms, max_size=4))
def test_reading_terms_changes_nothing(raw_a, raw_b):
    """An expression whose .terms was read and its unread twin agree on len,
    ==, hash, min_order, a product and by_order; the view is cached and
    read-only, and equal expressions hash alike."""
    a, b = _raw_sum(raw_a), _raw_sum(raw_b)
    read, twin = al.commutator(a, b), al.commutator(a, b)
    grouped, view = read._grouped, read.terms
    assert read.terms is view and read._grouped is grouped and twin._terms is None
    assert ((len(read), al.min_order(read), hash(read))
            == (len(twin), al.min_order(twin), hash(twin)))
    assert read == twin and twin == read
    assert al.mul(read, a) == al.mul(twin, a) and al.by_order(read) == al.by_order(twin)
    assert twin._terms is None
    for x, y in ((a + b, b + a), (al.Expression(dict(view)), twin),
                 (a - a, al.Expression.zero()), (-(-b), b)):
        assert x == y and hash(x) == hash(y)
    with pytest.raises(TypeError):
        view[_MASS_TERM] = Fraction(1)
    with pytest.raises(AttributeError):
        read.terms = {}


def test_products_at_the_packing_limit():
    """Exponents at the packing bound in every slot, both signs, through a
    product whose word emits commutator corrections."""
    lim = al._DIM_LIMIT
    for sign in (1, -1):
        d = (sign * lim,) * 8
        a = al.Expression.term(1, (al.pi(2),), dims=d)
        b = al.Expression.term(1, (al.VPOT, al.pi(1)), dims=d)
        # 2 * lim is past what Expression.term packs; scale adds tuples
        expected = al.Expression.term(1, (al.pi(2), al.VPOT, al.pi(1)), dims=d).scale(1, dims=d)
        assert al.mul(a, b) == expected
        assert al.anticommutator(a, b) == expected + al.Expression.term(
            1, (al.VPOT, al.pi(1), al.pi(2)), dims=d).scale(1, dims=d)


def _unchecked_reads(e):
    """Every filter, split, comparison and sum that reads e without a range
    check, its nonzero results."""
    n = al.min_order(e)
    split = fw.split_even_odd(e)
    reads = [al.truncate_order(e, n), al.order_slice(e, n), *al.by_order(e).values(),
             split.mass, split.even, split.odd,
             al.linear_combination([(2, e), (Fraction(-1, 3), e)])]
    assert sum(map(len, (split.mass, split.even, split.odd))) == len(e)
    assert e == al.truncate_order(e, n)
    return [r for r in reads if len(r)]


def test_chained_products_keep_the_packing_limit():
    """A product at twice the packing bound stays readable, through the
    filters, splits, comparisons, sums and its .terms view as well, but
    entering another product or the conjugate, it or any part read from it
    raises the error _pack raises for its terms.  So does the constructor,
    given a copy of its view."""
    lim = al._DIM_LIMIT
    c = al.Expression.term(1, (al.pi(3),))
    for sign in (1, -1):
        d = (sign * lim,) * 8
        a = al.Expression.term(1, (al.pi(2),), dims=d)
        b = al.Expression.term(1, (al.VPOT, al.pi(1)), dims=d)
        assert al.min_order(al.mul(a, b)) == -2 * sign * lim
        reads = _unchecked_reads(al.mul(a, b))
        assert al.mul(a, b) == al.mul(a, b) != al.anticommutator(a, b)
        message = rf"^hbar exponent {2 * sign * lim} outside the packable range -{lim}..{lim}$"
        for build in (lambda: al.mul(al.mul(a, b), c),
                      lambda: al.commutator(c, al.mul(a, b), 3),
                      lambda: al.hermitian_conjugate(al.mul(a, b)),
                      lambda: al.Expression(dict(al.mul(a, b).terms)),
                      *[lambda r=r: al.mul(r, c) for r in reads]):
            with pytest.raises(ValueError, match=message):
                build()
    # Field atoms are digits of the packed monomial: the same holds for them.
    # Pi_2 V Pi_1 emits corrections in E2, B2, E3 and B3 only.
    plain = al.mul(al.Expression.term(1, (al.pi(2),)), al.Expression.term(1, (al.VPOT, al.pi(1))))
    for atom in (al.E1, al.B1):
        half = (atom,) * lim
        a = al.Expression.term(1, (al.pi(2),) + half)
        b = al.Expression.term(1, half + (al.VPOT, al.pi(1)))
        ab = al.mul(a, b)
        assert al.min_order(ab) == 0
        reads = _unchecked_reads(ab)
        assert ab.terms == {(d, mat, ip, tuple(sorted(w + 2 * half))): val
                            for (d, mat, ip, w), val in plain.terms.items()}
        message = (rf"^{al.ATOM_NAMES[atom]} exponent {2 * lim} "
                   rf"outside the packable range -{lim}..{lim}$")
        for build in (lambda: al.mul(al.mul(a, b), c),
                      lambda: al.commutator(c, al.mul(a, b), 3),
                      lambda: al.hermitian_conjugate(al.mul(a, b)),
                      lambda: al.Expression(dict(al.mul(a, b).terms)),
                      *[lambda r=r: al.mul(r, c) for r in reads]):
            with pytest.raises(ValueError, match=message):
                build()


def test_pack_rejects_out_of_range_exponents():
    lim = al._DIM_LIMIT
    d = (lim, -lim, 0, 1, -1, 2, -2, lim)
    fields = (al.E1,) * lim + (al.E3, al.E3, al.B2) + (al.B3,) * 3
    assert al._unpack(al._pack(d + (lim, 0, 2, 0, 1, 3))) == (d, fields)
    # a raw word's field atoms are counted wherever they sit
    word = (al.pi(2),) + fields[::-1] + (al.VPOT, al.B3)
    assert al._pack_key(d, 5, 1, word) == (al._pack(d + (lim, 0, 2, 0, 1, 4)), 5, 1,
                                           (al.pi(2), al.VPOT))
    assert al._unpack(al._pack(d)) == (d, ())
    for k, name in enumerate(al.DIM_NAMES):
        for exp in (lim + 1, -lim - 1):
            d = tuple(exp if j == k else 0 for j in range(8))
            raw = {(d, al.ID_MAT, 0, (al.pi(2), al.pi(1))): Fraction(1)}
            data = {"terms": [{"coeff": "1", "dim": {name: exp}, "word": ["P1"],
                               "mat": {"left": 0, "right": 0, "phase": "+1"}}]}
            for build in (lambda: al._pack(d),
                          lambda: al.Expression(raw),
                          lambda: al.Expression.term(1, dims=d),
                          lambda: al.Expression.term(1).scale(1, dims=d),
                          lambda: al.from_json_dict(data)):
                with pytest.raises(ValueError, match=rf"^{name} exponent {exp} "):
                    build()
    for atom in range(al.VPOT):
        name = al.ATOM_NAMES[atom]
        word = (al.pi(2),) + (atom,) * (lim + 1) + (al.pi(1),)
        raw = {(al.DIM_ZERO, al.ID_MAT, 0, word): Fraction(1)}
        data = {"terms": [{"coeff": "1", "dim": {},
                           "word": [name] * (lim + 1) + ["P1", "P2"],
                           "mat": {"left": 0, "right": 0, "phase": "+1"}}]}
        for build in (lambda: al.Expression(raw),
                      lambda: al.Expression.term(1, word),
                      lambda: al.from_json_dict(data)):
            with pytest.raises(ValueError, match=rf"^{name} exponent {lim + 1} outside "
                                                 rf"the packable range -{lim}..{lim}$"):
                build()


def test_randomized_oracle_equivalence_small():
    rng = random.Random(20260810)
    for _ in range(100):
        raw = [oracles.random_raw_term(rng) for _ in range(rng.randint(1, 3))]
        engine = al.Expression.zero()
        for r in raw:
            engine = engine + oracles.engine_term_from_raw(r)
        assert oracles.matrices_equal(
            oracles.expand(raw), oracles.expression_to_matrices(engine))
