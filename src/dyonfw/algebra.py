"""Canonical noncommutative expressions over kinetic-momentum and field atoms.

An expression is a merged sum of terms

    coeff * i^ip * (dimension monomial) * (basis matrix) * (word of atoms)

with coeff an exact rational, ip in {0, 1}, and the word kept in a fixed
canonical order: field components first (E before B, by index), then the
scalar potential V, then momentum components Pi by index.  Reordering a word
emits the commutator corrections

    [Pi_i, Pi_j] = (i hbar / c) eps_ijk (e B_k - et E_k)
    [Pi_i, V]    = i hbar (e E_i + et B_i)

while field atoms commute with everything.  Fields are homogeneous by
construction: there is no gradient atom, so gradient terms cannot appear.

The dimension monomial tracks integer exponents of hbar, c, m, the energy
gap Eg = 2 m c^2, the charges e and et, and the gap-scaled anomalous moments
mu and d.  The 1/Eg order of a term is minus its Eg exponent.

Orders add under multiplication (normal ordering only brings in hbar, c,
the charges and field atoms), so a product truncated at a 1/Eg order is
exact.  A truncated product buckets the right factor's groups by order once
and, for each left group, stops at the first bucket past the limit, so the
pairs it drops are never visited one by one.

Coefficients are exact rationals and dimension monomials are 8-tuples at
the interface: Expression.terms is a read-only view of Fractions under
(dims, mat, ip, word) keys.  An expression holds one form only: int
numerators over one denominator, in groups keyed by (1/Eg order, mat, ip,
V/Pi word), each group mapping packed monomials to numerators.  The
numerators are reduced by their gcd with the denominator and no group is
empty, so the form is canonical and equality and hashing read it as it is.
A term's monomial is one int whose 14 digits are the 8 dimension exponents
and the counts of the central field atoms E1..B3, so its word holds V and
Pi atoms only, and a term is central exactly when that word is empty.
Expression(terms) packs a dict once, through _pack's range check, and
normal orders it, so every expression is canonical from construction and
== and hash are exact for all of them; the view is built, each monomial
unpacked once (its field atoms becoming the sorted word prefix), when
.terms is first read, and cached beside the grouped form.

Multiplying monomials is adding ints; only V/Pi words are normal ordered,
through the cached _order_vp, which scales by +-1 and adds each commutator
correction's field atom and dimensions to one packed delta.  A product
walks pairs of groups: the truncation test, the cancel test, the matrix
product and the word ordering run once per pair, and each ordered
contribution merges the two groups' monomials, under int keys, into one
output group, over the product of the operands' denominators.  A
commutator or anticommutator visits each pair once: basis matrices commute
or anticommute, so a pair needs its matrix product and ord(w1 w2) +-
ord(w2 w1); a pair with a central group cancels or doubles outright, and
any other pair of words is ordered once, through the cached _order_pair.
The constructor (and so Expression.term and from_json_dict) and
hermitian_conjugate take the product of their raw groups with the unit, so
words are ordered in that one loop only, once per group, and every exponent
and field atom count that enters is held to the packing bound.
linear_combination sums int numerators group by group over one common
denominator.  scale, substitute_energy_gap and project_particle_block map
whole groups (_mapped): a group takes a new key, one packed shift and one
rational factor.  Every split, in this module or another, goes through
split_groups, its label reading (order, mat) once per group, or split_terms,
its label reading a term's (dims, field atoms) through the _unpack cache, so
no other module sees a packed key.  None of these reads the view.
"""

from __future__ import annotations

import math
import re
import reprlib
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import add
from types import MappingProxyType

from .clifford import (BETA_MAT, ID_MAT, LEVI_CIVITA, MAT_ANTI, MAT_ODD, MAT_TABLE,
                       mat_code, mat_parts)

# ---------------------------------------------------------------------------
# Atoms

E1, E2, E3, B1, B2, B3, VPOT, P1, P2, P3 = range(10)

ATOM_NAMES = ("E1", "E2", "E3", "B1", "B2", "B3", "V", "P1", "P2", "P3")

ATOM_LATEX = ("E_x", "E_y", "E_z", "B_x", "B_y", "B_z", "V",
              r"\Pi_x", r"\Pi_y", r"\Pi_z")


def field_e(i: int) -> int:
    """Electric field component atom, i in 1..3."""
    return E1 + i - 1


def field_b(i: int) -> int:
    return B1 + i - 1


def pi(i: int) -> int:
    return P1 + i - 1


# ---------------------------------------------------------------------------
# Dimension monomials

DIM_NAMES = ("hbar", "c", "m", "Eg", "e", "et", "mu", "d")
_DIM_INDEX = {name: k for k, name in enumerate(DIM_NAMES)}
DIM_ZERO = (0,) * 8

_I_EG, _I_MU, _I_D = (_DIM_INDEX[name] for name in ("Eg", "mu", "d"))


def dim(**exponents: int) -> tuple[int, ...]:
    vec = [0] * 8
    for name, exp in exponents.items():
        vec[_DIM_INDEX[name]] = exp
    return tuple(vec)


def dim_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


# ---------------------------------------------------------------------------
# Basis-matrix labels (mat codes and their product table are in clifford)

_MAT_LATEX = {
    ID_MAT: "",
    BETA_MAT: r"\check\beta",
}
for _i in (1, 2, 3):
    _MAT_LATEX[mat_code(0, _i)] = rf"\Sigma_{'xyz'[_i-1]}"
    _MAT_LATEX[mat_code(3, _i)] = rf"\check\beta\Sigma_{'xyz'[_i-1]}"
    _MAT_LATEX[mat_code(1, _i)] = rf"\check\alpha_{'xyz'[_i-1]}"


# ---------------------------------------------------------------------------
# Packed monomials
#
# Inside products a monomial is one int, sum(exp_k << k * _DIM_BITS) over 14
# digits: the 8 dimension exponents, then the counts of the field atoms
# E1..B3, which commute with everything.  The map is linear, so multiplying
# monomials is adding ints, with no bias to remove.  Each digit is read back
# as a signed value in [-_DIM_BIAS, _DIM_BIAS).  A product adds two packed
# operands and, for each commutator correction, one unit of a field digit
# and at most one unit per dimension digit; a correction consumes two V/Pi
# atoms of the word.  With operand digits held to a quarter of the digit
# range, a sum could carry into the next digit only for a word of 2**15
# atoms or more.

_DIM_BITS = 16
_DIM_BIAS = 1 << (_DIM_BITS - 1)
_DIM_LIMIT = _DIM_BIAS >> 2  # largest |exponent| _pack admits
_DIM_MASK = (1 << _DIM_BITS) - 1
_EXP_NAMES = DIM_NAMES + ATOM_NAMES[:VPOT]  # the 14 digits, lowest first
_DIM_BIAS_ALL = sum(_DIM_BIAS << (k * _DIM_BITS) for k in range(len(_EXP_NAMES)))
_FIELD_UNIT = tuple(1 << ((8 + a) * _DIM_BITS) for a in range(VPOT))


def _held(exps):
    """exps, if every digit is packable; else a ValueError naming the first."""
    for k, exp in enumerate(exps):
        if not -_DIM_LIMIT <= exp <= _DIM_LIMIT:
            raise ValueError(f"{_EXP_NAMES[k]} exponent {exp} outside the packable "
                             f"range -{_DIM_LIMIT}..{_DIM_LIMIT}")
    return exps


@lru_cache(maxsize=None)
def _pack(exps: tuple[int, ...]) -> int:
    """The packed int of the 8 dimension exponents, optionally followed by
    the 6 field atom counts."""
    return sum(exp << (k * _DIM_BITS) for k, exp in enumerate(_held(exps)))


@lru_cache(maxsize=None)
def _split_word(word: tuple[int, ...]) -> tuple[int, tuple]:
    """A raw word's field atoms, counted into a packed monomial wherever
    they sit (exact, as they commute with everything), and its V/Pi atoms."""
    if not word or min(word) >= VPOT:
        return 0, word
    return (_pack(DIM_ZERO + tuple(map(word.count, range(VPOT)))),
            tuple(a for a in word if a >= VPOT))


def _pack_key(d: tuple, mat: int, ip: int, word: tuple) -> tuple:
    """The (packed monomial, mat, ip, V/Pi word) key of a raw term key."""
    fields, vp = _split_word(word)
    return _pack(d) + fields, mat, ip, vp


@lru_cache(maxsize=None)
def _unpack(packed: int) -> tuple[tuple, tuple]:
    """The 8-tuple of dimension exponents and the sorted field prefix of a
    packed monomial: biased, every digit is a plain one."""
    biased = packed + _DIM_BIAS_ALL
    exps = [((biased >> (k * _DIM_BITS)) & _DIM_MASK) - _DIM_BIAS
            for k in range(len(_EXP_NAMES))]
    return tuple(exps[:8]), tuple(a for a in range(VPOT) for _ in range(exps[8 + a]))


# ---------------------------------------------------------------------------
# Word normal ordering

_DIM_PIV_E = _pack(dim(hbar=1, e=1))
_DIM_PIV_B = _pack(dim(hbar=1, et=1))
_DIM_PIPI_B = _pack(dim(hbar=1, c=-1, e=1))
_DIM_PIPI_E = _pack(dim(hbar=1, c=-1, et=1))


@lru_cache(maxsize=None)
def _order_vp(word: tuple[int, ...]):
    """Canonicalize a word of V and Pi atoms.

    Returns merged, nonzero (vp_word, packed delta, ip, int coeff)
    contributions.  Each adjacent swap of an out-of-order pair replaces it
    with its commutator, a field atom times a shorter V/Pi word; the field
    atom is central, so the correction adds its unit and its dimensions to
    the delta and only the V/Pi rest recurses.
    """
    for k in range(len(word) - 1):
        if word[k] > word[k + 1]:
            break
    else:
        return ((word, 0, 0, 1),)

    a, b = word[k], word[k + 1]
    head, tail = word[:k], word[k + 2:]
    rest = head + tail
    i = a - VPOT
    if b == VPOT:
        # Pi_i V -> V Pi_i + i hbar (e E_i + et B_i)
        corrections = ((_FIELD_UNIT[field_e(i)] + _DIM_PIV_E, 1),
                       (_FIELD_UNIT[field_b(i)] + _DIM_PIV_B, 1))
    else:
        # Pi_i Pi_j -> Pi_j Pi_i + (i hbar / c) eps_ijk (e B_k - et E_k)
        kk, sign = LEVI_CIVITA[(i, b - VPOT)]
        corrections = ((_FIELD_UNIT[field_b(kk)] + _DIM_PIPI_B, sign),
                       (_FIELD_UNIT[field_e(kk)] + _DIM_PIPI_E, -sign))
    acc: dict[tuple, int] = {}
    for w, dd, ip, c in _order_vp(head + (b, a) + tail):
        acc[w, dd, ip] = c
    for delta, scale in corrections:
        for w, dd, ip, c in _order_vp(rest):
            key = (w, dd + delta, 1 - ip)  # times i: i * i = -1
            acc[key] = acc.get(key, 0) + (c * scale if ip == 0 else -c * scale)
    return tuple((*key, c) for key, c in acc.items() if c)


@lru_cache(maxsize=None)
def _order_pair(w1: tuple[int, ...], w2: tuple[int, ...], sigma: int):
    """ord(w1 w2) + sigma * ord(w2 w1), sigma = +-1, for V/Pi words, as
    merged, nonzero contributions in _order_vp's form: one commutator or
    anticommutator term pair, the sign of its matrices in sigma.  Both words
    are ordered uncached, so no word goes into both caches."""
    acc: dict[tuple, int] = {}
    for word, s in ((w1 + w2, 1), (w2 + w1, sigma)):
        for w, dd, ip, c in _order_vp.__wrapped__(word):
            key = (w, dd, ip)
            acc[key] = acc.get(key, 0) + s * c
    return tuple((w, dd, ip, c) for (w, dd, ip), c in acc.items() if c)


# ---------------------------------------------------------------------------
# Expressions

class Expression:
    """Merged sum of terms; the empty sum is zero.

    Instances are immutable: every operation returns a fresh expression.
    Its one state is _grouped, the pair (groups, den): int numerators over
    one denominator den, grouped by (1/Eg order, mat, ip, V/Pi word), each
    group mapping packed monomials to numerators.  Every monomial of a group
    has the group's order, no group is empty, no numerator is zero and no
    factor is common to den and all numerators.  That form is canonical, so
    equal expressions hold equal grouped forms.  .terms is a read-only view
    of the form, built on first read and cached beside it in _terms.
    """

    __slots__ = ("_grouped", "_terms")

    def __init__(self, terms: dict):
        """The normal-ordered expression of a (dims, mat, ip, word) ->
        rational dict, each key packed once with _pack's range check.  A
        word's atoms may come in any order and ip is read mod 4; keys that
        order alike are summed and zero coefficients are dropped."""
        groups, den = _grouped_numerators(terms.items())
        self._grouped, self._terms = _lowest(_ordered(groups), den), None

    @staticmethod
    def _from_grouped(groups: dict, den: int) -> "Expression":
        """The expression of int numerator groups over den, reduced."""
        e = Expression.__new__(Expression)
        e._grouped, e._terms = _lowest(groups, den), None
        return e

    @property
    def terms(self):
        """The (dims, mat, ip, word) -> Fraction view, each word starting with
        its sorted field atoms: one Fraction and one cached unpacking per
        term, on the first read only."""
        terms = self._terms
        if terms is None:
            terms = self._terms = MappingProxyType(_ungrouped(*self._grouped))
        return terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Expression":
        return Expression._from_grouped({}, 1)

    @staticmethod
    def term(coeff, word=(), mat: int = ID_MAT, ip: int = 0, dims: tuple = DIM_ZERO) -> "Expression":
        return Expression({(dims, mat, ip, tuple(word)): Fraction(coeff)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Expression") -> "Expression":
        return linear_combination(((1, self), (1, other)))

    def __sub__(self, other: "Expression") -> "Expression":
        return linear_combination(((1, self), (-1, other)))

    def __neg__(self) -> "Expression":
        return linear_combination(((-1, self),))

    def scale(self, coeff, ip: int = 0, dims: tuple = DIM_ZERO) -> "Expression":
        """Multiply by a scalar monomial coeff * i^ip * dims: each group
        moves by dims' 1/Eg order and the phase, and its monomials shift by
        _pack(dims)."""
        coeff, shift, moved = Fraction(coeff), _pack(dims), -dims[_I_EG]
        return _mapped(self, lambda order, mat, tip, w: (
            (order + moved, mat, (tip + ip) & 1, w), shift,
            -coeff if (tip + ip) & 2 else coeff))

    def __eq__(self, other) -> bool:
        return isinstance(other, Expression) and self._grouped == other._grouped

    def __hash__(self):
        groups, den = self._grouped
        return hash((frozenset((key, frozenset(sub.items())) for key, sub in groups.items()),
                     den))

    def is_zero(self) -> bool:
        return not self._grouped[0]

    def __len__(self):
        return sum(map(len, self._grouped[0].values()))

    def __repr__(self):
        if self.is_zero():
            return "Expression(0)"
        return f"Expression({len(self)} terms)"

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])


def _numerators(groups: dict):
    """An iterator over every numerator of the groups."""
    return chain.from_iterable(map(dict.values, groups.values()))


def _lowest(groups: dict, den: int) -> tuple[dict, int]:
    """Int numerator groups over a positive den, without their zeros (and
    the groups left empty) and divided by the gcd of den and all
    numerators: the grouped form of Expression.  The groups are the
    caller's own and change in place.  Over den 1 the gcd is 1."""
    if 0 in _numerators(groups):
        for key in [key for key, sub in groups.items() if 0 in sub.values()]:
            sub = {p: c for p, c in groups[key].items() if c}
            if sub:
                groups[key] = sub
            else:
                del groups[key]
    if den != 1:
        g = math.gcd(den, *_numerators(groups))
        if g != 1:
            for sub in groups.values():
                for p in sub:
                    sub[p] //= g
            den //= g
    return groups, den


def _grouped_numerators(items) -> tuple[dict, int]:
    """(key, rational) items summed into int numerator groups over the lcm
    of their denominators, each key through _pack_key's range check; a
    group's word is a raw V/Pi word, in any order, and its ip any power of i."""
    den = math.lcm(*{val.denominator for _, val in items})
    groups: dict[tuple, dict] = {}
    for key, val in items:
        p, mat, ip, w = _pack_key(*key)
        gkey, c = (-_unpack(p)[0][_I_EG], mat, ip, w), val.numerator * (den // val.denominator)
        sub = groups.get(gkey)
        if sub is None:
            groups[gkey] = {p: c}
        else:
            sub[p] = sub.get(p, 0) + c
    return groups, den


def _unpack_key(p: int, mat: int, ip: int, w: tuple) -> tuple:
    """The (dims, mat, ip, word) key of a packed key, through _unpack."""
    d, fields = _unpack(p)
    return d, mat, ip, fields + w


def _ungrouped(groups: dict, den: int) -> dict:
    """The terms of int numerator groups over den: one Fraction, in lowest
    terms, and one cached unpacking per term."""
    return {_unpack_key(p, mat, ip, w): Fraction(c, den)
            for (_, mat, ip, w), sub in groups.items() for p, c in sub.items()}


# Biased by _HELD_BIAS, a monomial with a digit outside _pack's range sets
# bit 14 or 15 of that digit, which _HELD_MASK reads.  A digit of
# _DIM_LIMIT itself, or one a lower digit borrowed from, may set them too.
_HELD_BIAS = sum(_DIM_LIMIT << (k * _DIM_BITS) for k in range(len(_EXP_NAMES)))
_HELD_MASK = sum((_DIM_MASK & -(2 * _DIM_LIMIT)) << (k * _DIM_BITS)
                 for k in range(len(_EXP_NAMES)))


def _check_held(groups: dict) -> None:
    """Raise _pack's error if a monomial of the groups is outside _pack's
    range.  A product's digits may reach twice that range, and a result
    enters the next product without going through _pack, so each operand
    monomial is tested here, with one add and one mask; one it flags is
    checked exactly."""
    for sub in groups.values():
        for p in sub:
            if (p + _HELD_BIAS) & _HELD_MASK:
                d, fields = _unpack(p)
                _held(d + tuple(map(fields.count, range(VPOT))))


def _add_product(out: dict, a: dict, b: dict, max_order: int | None, swapped: int) -> None:
    """Merge a * b + swapped * (b * a) into out, swapped in {-1, 0, 1},
    keeping 1/Eg orders <= max_order; a, b and out are int numerator groups
    (see Expression), so only V/Pi words are ever ordered, once per pair of
    groups, and each ordered contribution merges the two groups' monomials
    under int keys into one group of out.  Its order is the sum of the
    pair's: normal ordering only brings in hbar, c, charges and field atoms.

    b's groups are bucketed by order once and the buckets walked lowest
    first; each group of a stops at the first bucket that would exceed
    max_order.  b * a has the same pairs, so each pair is visited once:
    basis matrices commute or anticommute (M2 M1 = s M1 M2, s = -1 where
    MAT_ANTI) and field atoms are in the monomials, so the pair gives
    c i^ip M1 M2 (ord(w1 w2) + sigma ord(w2 w1)) with sigma = swapped * s.
    An empty word is central: the pair then gives nothing or twice
    ord(w1 w2).  Otherwise _order_pair holds the sum.
    """
    _check_held(a)
    _check_held(b)
    buckets: dict[int, list] = {}
    for (o, m, ip, w), sub in b.items():
        buckets.setdefault(o, []).append((m, ip, w, sub.items()))
    buckets = sorted(buckets.items())
    limit = math.inf if max_order is None else max_order
    for (o1, m1, ip1, w1), sub1 in a.items():
        room = limit - o1  # highest order of b this group may meet
        row, anti = MAT_TABLE[m1], MAT_ANTI[m1]
        items1 = sub1.items()
        for o2, bucket in buckets:
            if o2 > room:
                break
            order = o1 + o2
            for m2, ip2, w2, items2 in bucket:
                k = 1
                if not swapped:
                    ordered = _order_vp(w1 + w2)
                elif not (w1 and w2):
                    if (swapped < 0) != anti[m2]:  # sigma = -1: the pair cancels
                        continue
                    k = 2
                    ordered = _order_vp(w1 + w2)
                else:
                    ordered = _order_pair(w1, w2, -swapped if anti[m2] else swapped)
                mat, ip = row[m2]
                ip += ip1 + ip2
                for w, dd, dip, cw in ordered:
                    tot = ip + dip
                    val = k * cw
                    if tot & 2:
                        val = -val
                    key = (order, mat, tot & 1, w)
                    sub = out.get(key)
                    if sub is None:
                        sub = out[key] = {}
                    get = sub.get
                    for p1, c1 in items1:  # merged inline: this runs once per term pair
                        p1 += dd
                        c1 *= val
                        for p2, c2 in items2:
                            p = p1 + p2
                            sub[p] = get(p, 0) + c1 * c2


def _products(a: Expression, b: Expression, max_order: int | None, swapped: int) -> Expression:
    """a * b + swapped * (b * a), truncated like mul, with swapped in {-1, 0, 1}:
    one _add_product pass over the operands' numerator groups, over the
    denominator den_a * den_b, so terms that cancel never build a Fraction."""
    (groups_a, den_a), (groups_b, den_b) = a._grouped, b._grouped
    out: dict[tuple, dict] = {}
    _add_product(out, groups_a, groups_b, max_order, swapped)
    return Expression._from_grouped(out, den_a * den_b)


# The unit, 1, as _add_product groups.
_UNIT = {(0, ID_MAT, 0, ()): {0: 1}}


def _ordered(groups: dict) -> dict:
    """The numerator groups of the normal-ordered sum of int numerator
    groups, as their product with the unit, zeros not yet dropped.  A
    group's V/Pi word may be in any order and its ip any power of i; each
    word is ordered once, and the group's monomials shift by each
    correction's delta."""
    out: dict[tuple, dict] = {}
    _add_product(out, groups, _UNIT, None, 0)
    return out


def mul(a: Expression, b: Expression, max_order: int | None = None) -> Expression:
    """Product in canonical form.

    max_order drops every product term whose 1/Eg order exceeds it.  Orders
    add under multiplication, so this is an exact truncation, not a bound;
    the right factor's groups are bucketed by order and whole buckets past
    the limit are skipped before any normal ordering.  The arithmetic runs
    on int numerators (see Expression).
    """
    return _products(a, b, max_order, 0)


def commutator(a: Expression, b: Expression, max_order: int | None = None) -> Expression:
    """[a, b] = ab - ba, truncated like mul, in one pass over the group
    pairs: each pair's two words are ordered together, and a pair of
    commuting groups is skipped before any ordering (see _add_product)."""
    return _products(a, b, max_order, -1)


def anticommutator(a: Expression, b: Expression, max_order: int | None = None) -> Expression:
    """{a, b} = ab + ba, truncated like mul, in one pass like commutator."""
    return _products(a, b, max_order, 1)


def linear_combination(parts) -> Expression:
    """Sum of weight * e over (weight, e) pairs, weight rational: every
    part's int numerators over one common denominator, the lcm over all
    parts, summed group by group."""
    parts = [(Fraction(w), *e._grouped) for w, e in parts]
    den = math.lcm(*(w.denominator * d for w, _, d in parts))
    out: dict[tuple, dict] = {}
    for w, groups, d in parts:
        factor = w.numerator * (den // (w.denominator * d))
        for key, sub in groups.items():
            acc = out.get(key)
            if acc is None:
                out[key] = {p: c * factor for p, c in sub.items()}
            else:
                for p, c in sub.items():
                    acc[p] = acc.get(p, 0) + c * factor
    return Expression._from_grouped(out, den)


def _mapped(e: Expression, f) -> Expression:
    """The sum over e's groups of factor * (the group under a new key), for
    f(*group key) = (new group key, packed shift, rational factor): each
    monomial of the group shifts by the one packed shift, which must move
    its 1/Eg order as the new key does.  Groups whose new keys coincide are
    summed."""
    groups, den = e._grouped
    mapped = [(f(*key), sub) for key, sub in groups.items()]
    lcm = math.lcm(*{factor.denominator for (_, _, factor), _ in mapped})
    out: dict[tuple, dict] = {}
    for (key, shift, factor), sub in mapped:
        k = factor.numerator * (lcm // factor.denominator)
        acc = out.get(key)
        if acc is None:
            out[key] = {p + shift: c * k for p, c in sub.items()}
        else:
            for p, c in sub.items():
                p += shift
                acc[p] = acc.get(p, 0) + c * k
    return Expression._from_grouped(out, den * lcm)


def hermitian_conjugate(e: Expression) -> Expression:
    """Adjoint: words reverse (all atoms are self-adjoint), i conjugates,
    and the phase-free basis matrices are Hermitian.  Field atoms sit in the
    packed monomials, so only each group's V/Pi word reverses, and it is
    ordered once for the whole group."""
    groups, den = e._grouped
    return Expression._from_grouped(
        _ordered({(o, mat, -ip, w[::-1]): sub for (o, mat, ip, w), sub in groups.items()}),
        den)


def is_anti_hermitian(e: Expression) -> bool:
    """hermitian_conjugate(e) == -e, read on the grouped forms."""
    groups, den = e._grouped
    adjoint, adjoint_den = hermitian_conjugate(e)._grouped
    return adjoint_den == den and adjoint == {
        key: {p: -c for p, c in sub.items()} for key, sub in groups.items()}


def min_order(e: Expression) -> int | None:
    """The lowest 1/Eg order among e's terms, None for zero."""
    return min((key[0] for key in e._grouped[0]), default=None)


def split_groups(e: Expression, label, names: tuple) -> dict:
    """e split by label(order, mat), called once per group of e: a group
    labelled None is dropped, and every name in names gets a part, empty or
    not.  A part that takes every term is e itself."""
    parts: dict = {name: {} for name in names}
    for key, sub in e._grouped[0].items():
        name = label(key[0], key[1])
        if name is not None:
            parts.setdefault(name, {})[key] = sub
    return _expressions(e, parts)


def split_terms(e: Expression, label, names: tuple) -> dict:
    """e split term by term by label(dims, fields), the term's 8 dimension
    exponents in DIM_NAMES order and its sorted field atoms, read through
    the _unpack cache; None and names as in split_groups.  A label that
    reads only the order or the matrix belongs to split_groups."""
    parts: dict = {name: {} for name in names}
    for gkey, sub in e._grouped[0].items():
        labels = [label(*_unpack(p)) for p in sub]
        if labels.count(labels[0]) == len(labels):  # the group stays whole
            split = {labels[0]: sub}
        else:
            split = {}
            for name, (p, c) in zip(labels, sub.items()):
                split.setdefault(name, {})[p] = c
        for name, part in split.items():
            if name is not None:
                parts.setdefault(name, {})[gkey] = part
    return _expressions(e, parts)


def _expressions(e: Expression, parts: dict) -> dict:
    """Each part, groups read from e, as an expression over e's denominator:
    e itself for a part that holds every term, else a copy of its groups,
    which _lowest reduces in place."""
    n, den = len(e), e._grouped[1]
    return {name: e if sum(map(len, part.values())) == n else
            Expression._from_grouped({key: dict(sub) for key, sub in part.items()}, den)
            for name, part in parts.items()}


# ---------------------------------------------------------------------------
# Filters and substitutions

def truncate_fields(e: Expression) -> Expression:
    """Drop every term whose word carries two or more field atoms."""
    return split_terms(e, lambda d, fields: len(fields) < 2 or None, (True,))[True]


def truncate_order(e: Expression, max_order: int) -> Expression:
    """e's terms through 1/Eg order max_order: e itself when none is past it."""
    return split_groups(e, lambda order, mat: order <= max_order or None, (True,))[True]


def by_order(e: Expression) -> dict[int, Expression]:
    return dict(sorted(split_groups(e, lambda order, mat: order, ()).items()))


def order_slice(e: Expression, n: int) -> Expression:
    return split_groups(e, lambda order, mat: order == n or None, (True,))[True]


_EG_TO_MC2 = _pack(dim(m=1, c=2)) - _pack(dim(Eg=1))
_TWO = Fraction(2)


def substitute_energy_gap(e: Expression) -> Expression:
    """Replace every power of Eg by (2 m c^2)^k: a group of order -k moves to
    order 0, so groups that differ only in order meet and are summed."""
    return _mapped(e, lambda order, mat, ip, w: (
        (0, mat, ip, w), -order * _EG_TO_MC2, _TWO ** -order))


def substitute_moments(e: Expression, ge, gte) -> Expression:
    """Replace the gap-scaled moments: mu -> (ge/2 - 1) e hbar c and
    d -> (gte/2 - 1) et hbar c, with exact rational g values.  e's terms
    are split by their (mu, d) exponents and each part is scaled."""
    fe = Fraction(ge) / 2 - 1
    ft = Fraction(gte) / 2 - 1
    parts = split_terms(e, lambda d, fields: d[_I_MU:_I_D + 1], ())
    return linear_combination(
        (1, part.scale(fe ** a * ft ** b, dims=dim(hbar=a + b, c=a + b, e=a, et=b, mu=-a, d=-b)))
        for (a, b), part in parts.items())


def drop_symbols(e: Expression, *names: str) -> Expression:
    """Drop terms carrying a positive power of any named dimension symbol
    (models setting a charge or moment to zero)."""
    idx = [_DIM_INDEX[n] for n in names]
    return split_terms(e, lambda d, fields: all(d[i] <= 0 for i in idx) or None, (True,))[True]


def project_particle_block(e: Expression) -> Expression:
    """Evaluate the block sign on the particle sector: beta -> +1."""
    def project(order, mat, ip, w):
        left, right = mat_parts(mat)
        if left not in (0, 3):
            raise ValueError("expression has inter-block matrix content")
        return (order, mat_code(0, right), ip, w), 0, 1
    return _mapped(e, project)


# ---------------------------------------------------------------------------
# Serialization

_PHASE_NAMES = ("+1", "+i", "-1", "-i")  # indexed by ip


def to_json_dict(e: Expression) -> dict:
    terms = []
    for (d, mat, ip, w), c in e.sorted_items():
        left, right = mat_parts(mat)
        terms.append({
            "coeff": str(c),
            "dim": {name: d[k] for k, name in enumerate(DIM_NAMES) if d[k]},
            "mat": {"left": left, "right": right, "phase": _PHASE_NAMES[ip]},
            "word": [ATOM_NAMES[a] for a in w],
        })
    return {"terms": terms}


_DIM_SORTED = tuple(sorted(range(8), key=DIM_NAMES.__getitem__))  # Eg, c, d, ..., mu


def to_json_text(e: Expression, depth: int) -> str:
    """The text of json.dumps(to_json_dict(e), indent=1, sort_keys=True),
    written directly, with every line after the first indented by `depth`
    more spaces: one f-string per term and one join per expression.  (With
    an indent, the stdlib encoder steps a generator per JSON token.)"""
    i0, i1, i2, i3, i4 = ("\n" + " " * (depth + k) for k in range(5))
    if e.is_zero():
        return f'{{{i1}"terms": []{i0}}}'
    sep = "," + i4
    terms = []
    for (d, mat, ip, w), c in e.sorted_items():
        left, right = mat_parts(mat)
        dims = sep.join([f'"{DIM_NAMES[k]}": {d[k]}' for k in _DIM_SORTED if d[k]])
        word = sep.join([f'"{ATOM_NAMES[a]}"' for a in w])
        terms.append(
            f'{i2}{{{i3}"coeff": "{c}",'
            f'{i3}"dim": {f"{{{i4}{dims}{i3}}}" if dims else "{}"},'
            f'{i3}"mat": {{{i4}"left": {left},{i4}"phase": "{_PHASE_NAMES[ip]}",'
            f'{i4}"right": {right}{i3}}},'
            f'{i3}"word": {f"[{i4}{word}{i3}]" if word else "[]"}{i2}}}')
    return f'{{{i1}"terms": [{",".join(terms)}{i1}]{i0}}}'


# Coefficient strings repeat across a catalog (93 distinct among 1601
# terms), and a Fraction is immutable, so parsed values can be shared.
@lru_cache(maxsize=4096)
def _fraction(c: int | str) -> Fraction:
    """The Fraction of a JSON int or a str(Fraction) string; any other string
    (1e999999999, which Fraction expands digit by digit) is a ValueError."""
    if isinstance(c, str) and not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", c):
        raise ValueError(c)
    return Fraction(c)


def _checked(field: str, value, ok: bool):
    """value, if ok; else a ValueError naming the field and the value."""
    if not ok:
        raise ValueError(f"invalid {field}: {reprlib.repr(value)}")
    return value


def from_json_dict(data: dict) -> Expression:
    """The expression of a to_json_dict payload.  Payloads are read from
    files, so every field is checked: a malformed one is a ValueError that
    names the field and its value.  Names are looked up in tuples, which
    compare rather than hash, so no JSON value makes a lookup raise
    TypeError.  A word must be in the canonical atom order the writers emit:
    ordering any other word costs a recursion per inversion.  Repeated terms
    are summed."""
    terms = _checked("expression", data, isinstance(data, dict)).get("terms")
    raw: dict[tuple, Fraction] = {}
    for t in _checked("terms", terms, isinstance(terms, list)):
        m = _checked("term", t, isinstance(t, dict)).get("mat")
        exps, word, c = t.get("dim"), t.get("word"), t.get("coeff")
        _checked("mat", m, isinstance(m, dict) and m.get("phase") in _PHASE_NAMES
                 and type(m.get("left")) is type(m.get("right")) is int
                 and 0 <= m["left"] <= 3 and 0 <= m["right"] <= 3)
        d = [0] * 8
        for name, exp in _checked("dim", exps, isinstance(exps, dict)).items():
            if name not in DIM_NAMES or type(exp) is not int:
                raise ValueError(f"invalid dim: {reprlib.repr(exps)}")
            d[_DIM_INDEX[name]] = exp
        try:
            atoms = tuple(map(ATOM_NAMES.index, _checked("word", word, isinstance(word, list))))
            _checked("word", word, list(atoms) == sorted(atoms))
        except ValueError:
            raise ValueError(f"invalid word: {reprlib.repr(word)}") from None
        try:
            coeff = _fraction(_checked("coeff", c, type(c) in (int, str)))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"invalid coeff: {reprlib.repr(c)}") from None
        key = (tuple(d), mat_code(m["left"], m["right"]), _PHASE_NAMES.index(m["phase"]), atoms)
        raw[key] = raw[key] + coeff if key in raw else coeff
    return Expression(raw)


_DIM_LATEX = ("\\hbar", "c", "m", "E_g", "e", r"\tilde e", r"\mu''", "d''")


def to_latex(e: Expression) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for (d, mat, ip, w), c in e.sorted_items():
        num, den = [], []
        if abs(c.numerator) != 1:
            num.append(str(abs(c.numerator)))
        if c.denominator != 1:
            den.append(str(c.denominator))
        for k, exp in enumerate(d):
            sym = _DIM_LATEX[k]
            if exp > 0:
                num.append(sym if exp == 1 else f"{sym}^{{{exp}}}")
            elif exp < 0:
                den.append(sym if exp == -1 else f"{sym}^{{{-exp}}}")
        body = " ".join(num) or "1"
        if den:
            body = rf"\frac{{{body}}}{{{' '.join(den)}}}"
        if ip:
            body += " i"
        matname = _MAT_LATEX.get(mat)
        if matname is None:
            left, right = mat_parts(mat)
            matname = rf"(\sigma_{left} \otimes \sigma_{right})"
        if matname:
            body += " " + matname
        for a in w:
            body += " " + ATOM_LATEX[a]
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {body}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text
