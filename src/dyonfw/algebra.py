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

Orders add under multiplication (normal ordering only brings in hbar, c and
the charges), so a product truncated at a 1/Eg order is exact.  A truncated
product groups the right factor's terms by order once and, for each left
term, stops at the first group past the limit, so the pairs it drops are
never visited one by one.

Coefficients are exact rationals and dimension monomials are 8-tuples at
the interface: Expression.terms holds Fractions under (dims, mat, ip, word)
keys.  Inside, the hot paths compute in Python ints.  A term's monomial is
one int whose 14 digits are the 8 dimension exponents and the counts of the
central field atoms E1..B3, so its word holds V and Pi atoms only, and a
term is central exactly when that word is empty.  Multiplying monomials is
adding ints; only V/Pi words are normal ordered, through the cached
_order_vp, which scales by +-1 and adds each commutator correction's field
atom and dimensions to one packed delta.  A product reads each operand as
int numerators over one denominator, merges ints only, and its result
stays packed, reduced by the gcd so the ints do not grow.  Its Fractions
are built, and each monomial unpacked once (its field atoms becoming the
sorted word prefix), only when .terms is first read; the packed form is
then dropped.  Length, zero tests, equality, min_order and
hermitian_conjugate read the packed form too, and the order and beta
filters (truncate_order, order_slice, by_order, beta_split) and
linear_combination hand back the form they are given, so a chain of
products, sums and splits that nobody reads builds no Fraction.  A commutator or anticommutator visits
each term pair once: basis matrices commute or anticommute, so a pair needs
its matrix product and ord(w1 w2) +- ord(w2 w1); a pair with a central
term cancels or doubles outright, and any other pair of words is ordered
once, through the cached _order_pair.  Expression.term,
hermitian_conjugate, normal_order and from_json_dict are the product of
their raw terms with the unit, so words are ordered in that one loop only
and every exponent and field atom count that enters is held to the
packing bound.  linear_combination sums int numerators over one common
denominator, under packed keys if any part is packed (each other part then
packed once) and under tuple keys if none is.
"""

from __future__ import annotations

import math
import reprlib
from fractions import Fraction
from functools import lru_cache
from operator import add

from . import clifford

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


def is_field(atom: int) -> bool:
    return atom < VPOT


def is_pi(atom: int) -> bool:
    return atom > VPOT


def field_degree(word: tuple[int, ...]) -> int:
    return sum(1 for a in word if a < VPOT)


# ---------------------------------------------------------------------------
# Dimension monomials

DIM_NAMES = ("hbar", "c", "m", "Eg", "e", "et", "mu", "d")
_DIM_INDEX = {name: k for k, name in enumerate(DIM_NAMES)}
DIM_ZERO = (0,) * 8
_ONE = 1

_I_HBAR, _I_C, _I_M, _I_EG, _I_E, _I_ET, _I_MU, _I_D = range(8)


def dim(**exponents: int) -> tuple[int, ...]:
    vec = [0] * 8
    for name, exp in exponents.items():
        vec[_DIM_INDEX[name]] = exp
    return tuple(vec)


def dim_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def eg_order(key) -> int:
    """1/Eg order of a term key (mass term has order -1)."""
    return -key[0][_I_EG]


# ---------------------------------------------------------------------------
# Basis-matrix product table (mat codes 0..15 = left*4 + right)

ID_MAT = 0
BETA_MAT = 12


def mat_code(left: int, right: int) -> int:
    return left * 4 + right


def mat_parts(mat: int) -> tuple[int, int]:
    return mat // 4, mat % 4


_PHASE_TO_IP = {1: 0, 1j: 1, -1: 2, -1j: 3}


def _build_mat_table():
    table = []
    for m1 in range(16):
        row = []
        for m2 in range(16):
            a = clifford.BasisElement(*mat_parts(m1))
            b = clifford.BasisElement(*mat_parts(m2))
            prod = clifford.basis_mul(a, b)
            row.append((mat_code(prod.left, prod.right), _PHASE_TO_IP[prod.phase]))
        table.append(tuple(row))
    return tuple(table)


MAT_TABLE = _build_mat_table()

# MAT_ANTI[m1][m2]: the two basis matrices anticommute (else they commute),
# read off the phases of m1 m2 and m2 m1, which differ by 1 or by -1.
MAT_ANTI = tuple(tuple((MAT_TABLE[m1][m2][1] - MAT_TABLE[m2][m1][1]) % 4 == 2
                       for m2 in range(16)) for m1 in range(16))

MAT_ODD = tuple(clifford.beta_grade(clifford.BasisElement(*mat_parts(m))) == clifford.ODD
                for m in range(16))

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


@lru_cache(maxsize=None)
def _order(packed: int) -> int:
    """The 1/Eg order of a packed monomial, read through the _unpack cache
    with no range check: reading a product's result, whose digits may reach
    twice _pack's range, is exact, and only a product checks its operands
    (_packed_order)."""
    return -_unpack(packed)[0][_I_EG]


@lru_cache(maxsize=None)
def _packed_order(packed: int) -> int:
    """The 1/Eg order of a packed operand monomial, held to _pack's range.

    A product's digits may reach twice that range, and a packed result
    enters the next product without going through _pack, so each distinct
    monomial is checked here once: out of range, it raises _pack's error."""
    d, fields = _unpack(packed)
    _held(d + tuple(map(fields.count, range(VPOT))))
    return -d[_I_EG]


# ---------------------------------------------------------------------------
# Word normal ordering

_EPS3 = {(1, 2): (3, 1), (2, 1): (3, -1),
         (2, 3): (1, 1), (3, 2): (1, -1),
         (3, 1): (2, 1), (1, 3): (2, -1)}

_DIM_PIV_E = _pack(dim(hbar=1, e=1))
_DIM_PIV_B = _pack(dim(hbar=1, et=1))
_DIM_PIPI_B = _pack(dim(hbar=1, c=-1, e=1))
_DIM_PIPI_E = _pack(dim(hbar=1, c=-1, et=1))


@lru_cache(maxsize=None)
def _order_vp(word: tuple[int, ...]):
    """Canonicalize a word of V and Pi atoms.

    Returns merged, nonzero (vp_word, packed delta, ip, int coeff)
    contributions, coeff _ONE itself when it is 1.  Each adjacent swap of an
    out-of-order pair replaces it with its commutator, a field atom times a
    shorter V/Pi word; the field atom is central, so the correction adds its
    unit and its dimensions to the delta and only the V/Pi rest recurses.
    """
    for k in range(len(word) - 1):
        if word[k] > word[k + 1]:
            break
    else:
        return ((word, 0, 0, _ONE),)

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
        kk, sign = _EPS3[(i, b - VPOT)]
        corrections = ((_FIELD_UNIT[field_b(kk)] + _DIM_PIPI_B, sign),
                       (_FIELD_UNIT[field_e(kk)] + _DIM_PIPI_E, -sign))
    acc: dict[tuple, int] = {}
    for w, dd, ip, c in _order_vp(head + (b, a) + tail):
        acc[w, dd, ip] = c
    for delta, scale in corrections:
        for w, dd, ip, c in _order_vp(rest):
            key = (w, dd + delta, 1 - ip)  # times i: i * i = -1
            acc[key] = acc.get(key, 0) + (c * scale if ip == 0 else -c * scale)
    return tuple((*key, _ONE if c == 1 else c) for key, c in acc.items() if c)


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
    return tuple((w, dd, ip, _ONE if c == 1 else c)
                 for (w, dd, ip), c in acc.items() if c)


# ---------------------------------------------------------------------------
# Expressions

class Expression:
    """Merged, canonically ordered sum of terms; the empty sum is zero.

    Instances are treated as immutable: every operation returns a fresh
    expression and the term dict is never mutated after construction.

    A product's result, and a sum or a filtered part of packed forms, hold
    their packed form in _packed instead: _add_product's int numerators
    under (packed monomial, mat, ip, V/Pi word) keys and one denominator,
    with no common factor left between them.  The terms dict is
    built from it when .terms is first read (the slot is unset until then, so
    __getattr__ runs once), and the packed form is dropped.
    """

    __slots__ = ("terms", "_packed")

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}
        self._packed = None

    @staticmethod
    def _from_packed(acc: dict, den: int) -> "Expression":
        """The expression of int numerators acc over den, reduced by their gcd
        in place and left packed."""
        g = math.gcd(den, *acc.values())
        if g != 1:
            for key in acc:
                acc[key] //= g
            den //= g
        e = Expression.__new__(Expression)
        e._packed = (acc, den)
        return e

    def __getattr__(self, name):
        # Python calls this only when normal lookup fails, which for .terms
        # means its slot is unset: the expression is still packed.
        if name != "terms":
            raise AttributeError(name)
        terms = self.terms = _unpacked(*self._packed)
        self._packed = None
        return terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Expression":
        return Expression()

    @staticmethod
    def term(coeff, word=(), mat: int = ID_MAT, ip: int = 0, dims: tuple = DIM_ZERO) -> "Expression":
        return _canonical([((dims, mat, ip, tuple(word)), Fraction(coeff))])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Expression") -> "Expression":
        out = dict(self.terms)
        for key, val in other.terms.items():
            _merge(out, key, val)
        return Expression(out)

    def __sub__(self, other: "Expression") -> "Expression":
        out = dict(self.terms)
        for key, val in other.terms.items():
            _merge(out, key, -val)
        return Expression(out)

    def __neg__(self) -> "Expression":
        return Expression({key: -val for key, val in self.terms.items()})

    def scale(self, coeff, ip: int = 0, dims: tuple = DIM_ZERO) -> "Expression":
        """Multiply by a scalar monomial coeff * i^ip * dims."""
        coeff = Fraction(coeff)
        if coeff == 0:
            return Expression()
        ip %= 4
        unit, no_dims = coeff == 1, dims == DIM_ZERO
        out: dict[tuple, Fraction] = {}
        for (d, mat, tip, w), val in self.terms.items():
            tot = tip + ip
            c = val if unit else val * coeff
            if tot & 2:
                c = -c
            _merge(out, (d if no_dims else dim_mul(d, dims), mat, tot & 1, w), c)
        return Expression(out)

    def __eq__(self, other) -> bool:
        """Two packed forms are compared as they are: both are reduced, so
        equal expressions hold equal ints over equal denominators."""
        if not isinstance(other, Expression):
            return False
        if self._packed is not None and other._packed is not None:
            return self._packed == other._packed
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not len(self)

    def __len__(self):
        packed = self._packed
        return len(self.terms if packed is None else packed[0])

    def __repr__(self):
        if self.is_zero():
            return "Expression(0)"
        return f"Expression({len(self)} terms)"

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])


def _merge(acc: dict, key, val) -> None:
    """acc[key] += val for a nonzero val, deleting the key when it cancels."""
    old = acc.get(key)
    if old is None:
        acc[key] = val
    else:
        new = old + val
        if new:
            acc[key] = new
        else:
            del acc[key]


def _numerators(items) -> tuple[list, int]:
    """(key, Fraction) items as (key, int numerator) items over the lcm of
    their denominators."""
    den = math.lcm(*{val.denominator for _, val in items})
    return [(key, val.numerator * (den // val.denominator)) for key, val in items], den


def _packed_numerators(items) -> tuple[list, int]:
    """(key, Fraction) items as ((packed monomial, mat, ip, V/Pi word), int
    numerator) items over the lcm of their denominators, the form
    _add_product reads."""
    nums, den = _numerators(items)
    return [(_pack_key(*key), c) for key, c in nums], den


def _operand(e: Expression) -> tuple:
    """e in the form _add_product reads, and its denominator: a packed
    expression as it is, any other packed once."""
    if e._packed is not None:
        acc, den = e._packed
        return acc.items(), den
    return _packed_numerators(e.terms.items())


def _as_packed(e: Expression) -> Expression:
    """e in packed form: e itself if it is packed, else packed once."""
    if e._packed is not None:
        return e
    items, den = _packed_numerators(e.terms.items())
    return Expression._from_packed(dict(items), den)


def _unpack_key(p: int, mat: int, ip: int, w: tuple) -> tuple:
    """The (dims, mat, ip, word) key of a packed key, through _unpack."""
    d, fields = _unpack(p)
    return d, mat, ip, fields + w


def _unpacked(acc: dict, den: int) -> dict:
    """The terms of int numerators acc over den under packed keys: one
    Fraction, in lowest terms, and one cached unpacking per term."""
    return {_unpack_key(*key): Fraction(val, den) for key, val in acc.items()}


def _add_product(acc: dict, a, b, max_order: int | None, swapped: int) -> None:
    """Merge a * b + swapped * (b * a) into acc, swapped in {-1, 0, 1},
    keeping 1/Eg orders <= max_order; a and b are ((packed monomial, mat,
    ip, V/Pi word), int numerator) items, so acc gathers ints under packed
    keys and only V/Pi words are ever ordered.

    b's terms are grouped by order once and the groups walked lowest first;
    each term of a stops at the first group that would exceed max_order.
    b * a has the same term pairs, so each pair is visited once: basis
    matrices commute or anticommute (M2 M1 = s M1 M2, s = -1 where MAT_ANTI)
    and field atoms are in the monomials, so the pair gives
    c i^ip M1 M2 (ord(w1 w2) + sigma ord(w2 w1)) with sigma = swapped * s.
    A term with an empty word is central: the pair then gives nothing or
    twice ord(w1 w2).  Otherwise _order_pair holds the sum.
    """
    buckets: dict[int, list] = {}
    for (p, m, ip, w), c in b:
        buckets.setdefault(_packed_order(p), []).append((p, m, ip, w, c))
    groups = sorted(buckets.items())
    limit = math.inf if max_order is None else max_order
    for (p1, m1, ip1, w1), c1 in a:
        room = limit - _packed_order(p1)  # highest order of b this term may meet
        row, anti = MAT_TABLE[m1], MAT_ANTI[m1]
        for o2, items in groups:
            if o2 > room:
                break
            for p2, m2, ip2, w2, c2 in items:
                c = c1 * c2
                if not swapped:
                    ordered = _order_vp(w1 + w2)
                elif not (w1 and w2):
                    if (swapped < 0) != anti[m2]:  # sigma = -1: the pair cancels
                        continue
                    c += c
                    ordered = _order_vp(w1 + w2)
                else:
                    ordered = _order_pair(w1, w2, -swapped if anti[m2] else swapped)
                mat, ip = row[m2]
                ip += ip1 + ip2
                p = p1 + p2
                for w, dd, dip, cw in ordered:
                    tot = ip + dip
                    val = c if cw is _ONE else c * cw
                    if tot & 2:
                        val = -val
                    key = (p + dd, mat, tot & 1, w)
                    old = acc.get(key)  # _merge, inlined: this runs once per pair
                    if old is None:
                        acc[key] = val
                    else:
                        new = old + val
                        if new:
                            acc[key] = new
                        else:
                            del acc[key]


def _products(a: Expression, b: Expression, max_order: int | None, swapped: int) -> Expression:
    """a * b + swapped * (b * a), truncated like mul, with swapped in {-1, 0, 1}.

    One _add_product pass over the operands' int numerators merges ints
    under packed keys, over the denominator den_a * den_b; the result stays
    packed (see Expression), so terms that cancel, and results that only
    feed the next product, never build a Fraction.
    """
    a_items, den_a = _operand(a)
    b_items, den_b = _operand(b)
    acc: dict[tuple, int] = {}
    _add_product(acc, a_items, b_items, max_order, swapped)
    return Expression._from_packed(acc, den_a * den_b)


# The unit, 1, as _add_product items.
_UNIT = [((0, ID_MAT, 0, ()), 1)]


def _canonical(items) -> Expression:
    """The normal-ordered sum of raw (key, Fraction) items, as their product
    with the unit on the product's int path.  A key's word may be in any
    order and its ip any power of i; zero coefficients are dropped.  The unit
    is the right operand, so _add_product buckets one term, not all of them.
    The constructors that call this hand back terms, not a packed form."""
    a_items, den = _packed_numerators([kv for kv in items if kv[1]])
    acc: dict[tuple, int] = {}
    _add_product(acc, a_items, _UNIT, None, 0)
    return Expression(_unpacked(acc, den))


def mul(a: Expression, b: Expression, max_order: int | None = None) -> Expression:
    """Product in canonical form.

    max_order drops every product term whose 1/Eg order exceeds it.  Orders
    add under multiplication, so this is an exact truncation, not a bound;
    the right factor's terms are bucketed by order and whole buckets past the
    limit are skipped before any normal ordering.  The arithmetic runs on
    int numerators, and the result stays packed until .terms is read (see
    Expression).
    """
    return _products(a, b, max_order, 0)


def commutator(a: Expression, b: Expression, max_order: int | None = None) -> Expression:
    """[a, b] = ab - ba, truncated like mul, in one pass over the term
    pairs: each pair's two words are ordered together, and a pair of
    commuting terms is skipped before any ordering (see _add_product)."""
    return _products(a, b, max_order, -1)


def anticommutator(a: Expression, b: Expression, max_order: int | None = None) -> Expression:
    """{a, b} = ab + ba, truncated like mul, in one pass like commutator."""
    return _products(a, b, max_order, 1)


def linear_combination(parts) -> Expression:
    """Sum of weight * e over (weight, e) pairs, weight rational.

    The sum takes the form of its parts.  If any part is packed, every part
    is read under packed keys, each other part packed once with _pack's
    range check, and the sum stays packed like a product (see Expression).
    If none is, the sum holds Fractions under tuple keys, so a sum of terms
    is not packed only to be unpacked by its reader.  Either way every part
    is read as int numerators over one common denominator, the lcm over all
    parts, and the sum adds ints only.
    """
    parts = [(Fraction(w), e) for w, e in parts]
    packed = any(e._packed is not None for _, e in parts)
    parts = [(w, *(_operand(e) if packed else _numerators(e.terms.items())))
             for w, e in parts]
    den = math.lcm(*(w.denominator * d for w, _, d in parts))
    acc: dict[tuple, int] = {}
    for w, items, d in parts:
        factor = w.numerator * (den // (w.denominator * d))
        for key, num in items:
            acc[key] = acc.get(key, 0) + num * factor
    acc = {key: val for key, val in acc.items() if val}
    if packed:
        return Expression._from_packed(acc, den)
    return Expression({key: Fraction(val, den) for key, val in acc.items()})


def hermitian_conjugate(e: Expression) -> Expression:
    """Adjoint: words reverse (all atoms are self-adjoint), i conjugates,
    and the phase-free basis matrices are Hermitian.  Field atoms sit in the
    packed monomials, so only the V/Pi words reverse; they are normal
    ordered as a product with the unit, and the result stays packed."""
    items, den = _operand(e)
    acc: dict[tuple, int] = {}
    _add_product(acc, [((p, mat, ip, w[::-1]), -c if ip else c)
                       for (p, mat, ip, w), c in items if c], _UNIT, None, 0)
    return Expression._from_packed(acc, den)


def _is_adjoint(e: Expression, sign: int) -> bool:
    """hermitian_conjugate(e) == sign * e, read on packed forms: both are
    reduced, so equal expressions hold equal ints over equal denominators."""
    items, den = _operand(e)
    adjoint, adjoint_den = hermitian_conjugate(e)._packed
    return adjoint_den == den and adjoint == {key: sign * c for key, c in items}


def is_hermitian(e: Expression) -> bool:
    return _is_adjoint(e, 1)


def is_anti_hermitian(e: Expression) -> bool:
    return _is_adjoint(e, -1)


def min_order(e: Expression) -> int | None:
    """The lowest 1/Eg order among e's terms, None for zero; a packed
    expression is read through _order, without its Fractions."""
    if e._packed is not None:
        return min((_order(p) for p, _, _, _ in e._packed[0]), default=None)
    return min((eg_order(k) for k in e.terms), default=None)


def _partition(e: Expression, label, names: tuple) -> dict:
    """e's terms grouped by label(order, key), each group in e's own form.

    key is e's own key, so key[1] is its basis matrix; a term labelled None
    is dropped.  Every name in names gets a group, empty or not.  A packed
    e gives packed groups over its denominator, each reduced again, since a
    subset of the ints may share a factor with it; no order is range
    checked (see _order).  Any other e gives groups of its Fractions.
    """
    packed = e._packed
    groups: dict = {name: {} for name in names}
    for key, val in (e.terms if packed is None else packed[0]).items():
        d = key[0]  # dims, or a packed monomial
        name = label(-d[_I_EG] if packed is None else _order(d), key)
        if name is not None:
            try:
                groups[name][key] = val
            except KeyError:
                groups[name] = {key: val}
    if packed is None:
        return {name: Expression(t) for name, t in groups.items()}
    return {name: Expression._from_packed(t, packed[1]) for name, t in groups.items()}


# ---------------------------------------------------------------------------
# Filters and substitutions

def normal_order(e: Expression) -> Expression:
    """Re-canonicalize from raw term data.

    Expressions built through the public operations are already canonical;
    this rebuilds one whose term dict was assembled by hand.
    """
    return _canonical([(key, Fraction(c)) for key, c in e.terms.items()])


def truncate_fields(e: Expression) -> Expression:
    """Drop every term whose word carries two or more field atoms."""
    return Expression({key: val for key, val in e.terms.items()
                       if field_degree(key[3]) < 2})


# The order and beta filters below hand back the form they are given (see
# _partition): a packed expression is split without building a Fraction.

def truncate_order(e: Expression, max_order: int) -> Expression:
    return _partition(e, lambda order, key: order <= max_order or None, (True,))[True]


def by_order(e: Expression) -> dict[int, Expression]:
    return dict(sorted(_partition(e, lambda order, key: order, ()).items()))


def order_slice(e: Expression, n: int) -> Expression:
    return _partition(e, lambda order, key: order == n or None, (True,))[True]


def beta_split(e: Expression) -> tuple[Expression, Expression]:
    """(even, odd) with respect to the beta grading; exact term by term."""
    parts = _partition(e, lambda order, key: MAT_ODD[key[1]], (False, True))
    return parts[False], parts[True]


def substitute_energy_gap(e: Expression) -> Expression:
    """Replace every power of Eg by (2 m c^2)^k."""
    out: dict[tuple, Fraction] = {}
    for (d, mat, ip, w), c in e.terms.items():
        k = d[_I_EG]
        if k:
            d = list(d)
            d[_I_EG] = 0
            d[_I_M] += k
            d[_I_C] += 2 * k
            d = tuple(d)
            c = c * Fraction(2) ** k
        _merge(out, (d, mat, ip, w), c)
    return Expression(out)


def substitute_moments(e: Expression, ge, gte) -> Expression:
    """Replace the gap-scaled moments: mu -> (ge/2 - 1) e hbar c and
    d -> (gte/2 - 1) et hbar c, with exact rational g values."""
    fe = Fraction(ge) / 2 - 1
    ft = Fraction(gte) / 2 - 1
    out: dict[tuple, Fraction] = {}
    for (d, mat, ip, w), c in e.terms.items():
        a, b = d[_I_MU], d[_I_D]
        if a or b:
            factor = fe ** a * ft ** b
            if factor == 0:
                continue
            dd = list(d)
            dd[_I_MU] = dd[_I_D] = 0
            dd[_I_E] += a
            dd[_I_ET] += b
            dd[_I_HBAR] += a + b
            dd[_I_C] += a + b
            d = tuple(dd)
            c = c * factor
        _merge(out, (d, mat, ip, w), c)
    return Expression(out)


def drop_symbols(e: Expression, *names: str) -> Expression:
    """Drop terms carrying a positive power of any named dimension symbol
    (models setting a charge or moment to zero)."""
    idx = [_DIM_INDEX[n] for n in names]
    return Expression({key: val for key, val in e.terms.items()
                       if all(key[0][i] <= 0 for i in idx)})


def project_particle_block(e: Expression) -> Expression:
    """Evaluate the block sign on the particle sector: beta -> +1."""
    out: dict[tuple, Fraction] = {}
    for (d, mat, ip, w), c in e.terms.items():
        left, right = mat_parts(mat)
        if left == 3:
            mat = mat_code(0, right)
        elif left != 0:
            raise ValueError("expression has inter-block matrix content")
        _merge(out, (d, mat, ip, w), c)
    return Expression(out)


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


# Coefficient strings repeat across a catalog (93 distinct among 1601
# terms), and a Fraction is immutable, so parsed values can be shared.
_fraction = lru_cache(maxsize=4096)(Fraction)


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
    TypeError."""
    terms = _checked("expression", data, isinstance(data, dict)).get("terms")
    raw = []
    for t in _checked("terms", terms, isinstance(terms, list)):
        m = _checked("term", t, isinstance(t, dict)).get("mat")
        exps, word, c = t.get("dim", {}), t.get("word"), t.get("coeff")
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
        except ValueError:
            raise ValueError(f"invalid word: {reprlib.repr(word)}") from None
        try:
            coeff = _fraction(_checked("coeff", c, type(c) in (int, str)))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"invalid coeff: {reprlib.repr(c)}") from None
        raw.append(((tuple(d), mat_code(m["left"], m["right"]),
                     _PHASE_NAMES.index(m["phase"]), atoms), coeff))
    return _canonical(raw)


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
