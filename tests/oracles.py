"""Independent references the engine is cross-checked against: a brute-force
expander for the operator algebra, and the per-state Thomas-BMT law, which
imports nothing of dyonfw.dynamics, for the integrator.

Terms here are (complex coefficient, dimension tuple, explicit 4x4 numpy
matrix, word list).  Reordering resolves the *last* out-of-order adjacent
pair each pass (the engine resolves the first), matrices are multiplied
numerically instead of through the basis product table, and nothing is
memoized.  Agreement between the two paths is therefore a real consistency
check, not a tautology.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from dyonfw import algebra as al

PAULI_NUMERIC = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def to_numeric(left: int, right: int, phase: complex = 1) -> np.ndarray:
    """phase * (left ⊗ right) as a 4x4 complex matrix; with phase a power of
    i, entries are Gaussian integers, so products are exact."""
    return phase * np.kron(PAULI_NUMERIC[left], PAULI_NUMERIC[right])


def is_pi(atom: int) -> bool:
    return atom > al.VPOT


def field_degree(word: tuple[int, ...]) -> int:
    """Number of field atoms in a word."""
    return sum(1 for a in word if a < al.VPOT)


def eg_order(key) -> int:
    """1/Eg order of a term key (mass term has order -1)."""
    return -key[0][al.DIM_NAMES.index("Eg")]


_EPS = {(1, 2): (3, 1), (2, 1): (3, -1), (2, 3): (1, 1),
        (3, 2): (1, -1), (3, 1): (2, 1), (1, 3): (2, -1)}


def _dim_add(d, **kw):
    vec = list(d)
    for name, exp in kw.items():
        vec[al.DIM_NAMES.index(name)] += exp
    return tuple(vec)


def expand(terms):
    """Fully reorder a list of (coeff, dim, matrix, word) raw terms.

    Returns a dict (dim, word) -> 4x4 complex matrix.
    """
    work = [(complex(c), tuple(d), np.array(m, dtype=complex), list(w))
            for c, d, m, w in terms]
    out: dict[tuple, np.ndarray] = {}
    while work:
        coeff, dims, mat, word = work.pop()
        swap_at = None
        for k in range(len(word) - 2, -1, -1):
            if word[k] > word[k + 1]:
                swap_at = k
                break
        if swap_at is None:
            key = (dims, tuple(word))
            if key in out:
                out[key] = out[key] + coeff * mat
            else:
                out[key] = coeff * mat
            continue
        a, b = word[swap_at], word[swap_at + 1]
        swapped = word[:swap_at] + [b, a] + word[swap_at + 2:]
        work.append((coeff, dims, mat, swapped))
        if is_pi(a) and b == al.VPOT:
            i = a - al.VPOT
            rest = word[:swap_at] + word[swap_at + 2:]
            work.append((coeff * 1j, _dim_add(dims, hbar=1, e=1), mat,
                         rest[:swap_at] + [al.field_e(i)] + rest[swap_at:]))
            work.append((coeff * 1j, _dim_add(dims, hbar=1, et=1), mat,
                         rest[:swap_at] + [al.field_b(i)] + rest[swap_at:]))
        elif is_pi(a) and is_pi(b):
            kk, sign = _EPS[(a - al.VPOT, b - al.VPOT)]
            rest = word[:swap_at] + word[swap_at + 2:]
            work.append((coeff * 1j * sign, _dim_add(dims, hbar=1, c=-1, e=1),
                         mat, rest[:swap_at] + [al.field_b(kk)] + rest[swap_at:]))
            work.append((coeff * -1j * sign, _dim_add(dims, hbar=1, c=-1, et=1),
                         mat, rest[:swap_at] + [al.field_e(kk)] + rest[swap_at:]))
    return {key: m for key, m in out.items() if np.abs(m).max() > 1e-12}


def expression_to_matrices(e: al.Expression) -> dict:
    """Collapse an engine expression to the same (dim, word) -> matrix map."""
    out: dict[tuple, np.ndarray] = {}
    for (d, mat, ip, w), c in e.terms.items():
        left, right = al.mat_parts(mat)
        m = to_numeric(left, right) * complex(c) * (1j if ip else 1)
        if (d, w) in out:
            out[(d, w)] = out[(d, w)] + m
        else:
            out[(d, w)] = m
    return {key: m for key, m in out.items() if np.abs(m).max() > 1e-12}


def matrices_equal(a: dict, b: dict, tol: float = 1e-9) -> bool:
    keys = set(a) | set(b)
    zero = np.zeros((4, 4), dtype=complex)
    return all(np.abs(a.get(k, zero) - b.get(k, zero)).max() <= tol for k in keys)


def raw_terms_from_expression(e: al.Expression):
    """Engine expression -> raw oracle terms (no reordering applied)."""
    raw = []
    for (d, mat, ip, w), c in e.terms.items():
        left, right = al.mat_parts(mat)
        m = to_numeric(left, right)
        raw.append((complex(c) * (1j if ip else 1), d, m, list(w)))
    return raw


def random_raw_term(rng, max_atoms: int = 5, max_basis: int = 3):
    """One random raw term: integer coefficient, random word, random basis
    product of up to max_basis factors (multiplied numerically)."""
    coeff = complex(rng.randint(-3, 3) or 1, rng.randint(-2, 2))
    word = [rng.randrange(10) for _ in range(rng.randint(0, max_atoms))]
    mat = np.eye(4, dtype=complex)
    for _ in range(rng.randint(0, max_basis)):
        mat = mat @ to_numeric(rng.randrange(4), rng.randrange(4), 1j ** rng.randrange(4))
    dims = al.dim(hbar=rng.randint(-1, 1), c=rng.randint(-1, 1))
    return coeff, dims, mat, word


def engine_term_from_raw(raw) -> al.Expression:
    """Rebuild a raw term inside the engine (basis matrix decomposed exactly)."""
    coeff, dims, mat, word = raw
    total = al.Expression.zero()
    for left in range(4):
        for right in range(4):
            basis = to_numeric(left, right)
            # exact projection: the 16 elements are trace-orthogonal
            overlap = np.trace(basis.conj().T @ mat) / 4
            if abs(overlap) < 1e-12:
                continue
            re, im = overlap.real, overlap.imag
            for part, ip in ((re, 0), (im, 1)):
                val = round(part * 4)
                if val:
                    from fractions import Fraction
                    total = total + al.Expression.term(
                        Fraction(val, 4), word=tuple(word),
                        mat=al.mat_code(left, right), ip=ip, dims=dims)
    # fold in the complex scalar coefficient
    from fractions import Fraction
    re = Fraction(str(coeff.real)) if coeff.real else Fraction(0)
    im = Fraction(str(coeff.imag)) if coeff.imag else Fraction(0)
    out = total.scale(re) if re else al.Expression.zero()
    if im:
        out = out + total.scale(im, ip=1)
    return out


def nested_commutator(outer: al.Expression, inner: al.Expression, times: int) -> al.Expression:
    """[outer, [outer, ... [outer, inner]]] with `times` nestings, untruncated:
    the nested chains the closed forms restate, built one commutator at a
    time with no order limit."""
    out = inner
    for _ in range(times):
        out = al.commutator(outer, out)
    return out


def _term_value(key, c, symbols: dict, atoms) -> complex:
    """One term's coefficient times its dimension symbols and atoms, read
    as commuting complex floats; its basis matrix is left out."""
    dims, _, ip, word = key
    value = complex(c) * 1j ** ip
    for name, exp in zip(al.DIM_NAMES, dims):
        value *= symbols[name] ** exp
    for atom in word:
        value *= atoms[atom]
    return value


def sigma_coefficients(e: al.Expression, symbols: dict, fields, pi) -> list:
    """The Sigma_1..Sigma_3 coefficients of a particle-block expression as
    complex floats, its atoms read as commuting numbers: each dimension
    symbol from symbols (by DIM_NAMES name), E_i and B_i from fields.E and
    fields.B, Pi_i from pi.  Exact on a weak-field quotient whose terms carry
    one field atom each, as reordering their Pi's only adds a second one."""
    atoms = (*fields.E, *fields.B, None, *pi)
    out = [0j, 0j, 0j]
    for key, c in e.terms.items():
        left, right = al.mat_parts(key[1])
        if left or not right:
            raise ValueError(f"term {key} is not a Sigma_k term")
        out[right - 1] += _term_value(key, c, symbols, atoms)
    return out


def free_identity_coefficient(e: al.Expression, symbols: dict, pi) -> complex:
    """The identity coefficient of a particle-block expression's free part
    as a complex float: the terms whose words hold only Pi's, read as in
    sigma_coefficients with Pi_i from pi.  Terms with a field atom or V are
    left out, which is their value in no field at the origin, V = 0."""
    atoms = (None,) * al.P1 + tuple(pi)
    total = 0j
    for key, c in e.terms.items():
        if not all(map(is_pi, key[3])):
            continue
        if key[1] != al.mat_code(0, 0):
            raise ValueError(f"term {key} is not an identity term")
        total += _term_value(key, c, symbols, atoms)
    return total


# -- The per-state Thomas-BMT reference (Bargmann, Michel & Telegdi, PRL 2, 435 (1959))
# The dyon's orbit and spin law on one state read by attribute (u = gamma beta);
# each float expression has the operands and the order of the integrator's steps.

def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def gamma(state) -> float:
    return math.sqrt(1.0 + _dot(state.u, state.u))


def _beta(state) -> tuple:
    g = gamma(state)
    return tuple(v / g for v in state.u)


def helicity(state) -> float:
    """s . u / |u|, and 0.0 at rest."""
    umag = math.sqrt(_dot(state.u, state.u))
    return _dot(state.s, state.u) / umag if umag else 0.0


def thomas_F(beta, fields, ge: float) -> tuple:
    """The electric charge's effective precession field,
    (g/2 - 1 + 1/gamma) B - (g/2 - 1) r (beta.B) beta - (g/2 - r) beta x E
    with r = gamma / (gamma + 1); ValueError for a speed not below 1."""
    E, B, half_g = fields.E, fields.B, ge / 2.0
    b2 = _dot(beta, beta)
    if not b2 < 1.0:  # also rejects NaN
        raise ValueError("boost speed must be below 1")
    g = 1.0 / math.sqrt(1.0 - b2)
    r = g / (g + 1.0)
    a = half_g - 1.0
    along_B, along_beta, along_bxE = a + 1.0 / g, a * r * _dot(beta, B), half_g - r
    bxE = _cross(beta, E)
    return tuple(along_B * B[i] - along_beta * beta[i] - along_bxE * bxE[i] for i in range(3))


def thomas_F_dual(beta, fields, gte: float) -> tuple:
    """The magnetic charge's: the same law on the dual fields (E, B) -> (B, -E)."""
    return thomas_F(beta, SimpleNamespace(E=fields.B, B=tuple(-x for x in fields.E)), gte)


def spin_rhs(state, fields, params, c: float = 1.0) -> tuple:
    """ds/dt = (e/mc) s x F + (et/mc) s x F_dual, a term per non-zero charge."""
    mc, beta, rate = float(params.m) * c, _beta(state), (0.0, 0.0, 0.0)
    for q, field, g in ((params.e, thomas_F, params.ge),
                        (params.etilde, thomas_F_dual, params.gte)):
        if q:
            sxF = _cross(state.s, field(beta, fields, float(g)))
            rate = tuple(r + float(q) / mc * v for r, v in zip(rate, sxF))
    return rate


def orbit_rhs(state, fields, params, c: float = 1.0) -> tuple:
    """du/dt = (e (E + beta x B) + et (B - beta x E)) / mc."""
    e, et, mc = float(params.e), float(params.etilde), float(params.m) * c
    E, B, beta = fields.E, fields.B, _beta(state)
    bxB, bxE = _cross(beta, B), _cross(beta, E)
    return tuple((e * (E[i] + bxB[i]) + et * (B[i] - bxE[i])) / mc for i in range(3))


def orbit_hamiltonian(state, fields, params, c: float = 1.0) -> float:
    """gamma m c^2 + e phi + et phi_dual with phi = -E.x, phi_dual = -B.x."""
    return (gamma(state) * float(params.m) * c * c - float(params.e) * _dot(fields.E, state.x)
            - float(params.etilde) * _dot(fields.B, state.x))
