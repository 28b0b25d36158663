"""Physical reduction of the derived slices, and the classical Hamiltonian
they are compared with.

A derived slice becomes "physical" by dropping terms with two field factors
and writing the gap out as 2 m c^2.  The surviving terms are grouped into
the orbital part (block-diagonal matrix content only) and the spin part
(couplings carrying a Pauli factor); pauli_extra_terms splits off the
anomalous-moment terms by field pairing.  Both label through algebra's
public splits: kind per group (split_groups), the anomalous split per term.

classical_hamiltonian(T) is the one classical Hamiltonian on the particle
block: the orbital m c^2 sqrt(1 + xi^2) plus the Thomas-BMT spin term of
the pure charge on three structural channels

    Sigma.B,   Sigma.(E x Pi),  (Sigma.Pi)(B.Pi)

each with its prefactor expanded in x = (|Pi|/mc)^2 = xi^2, all kept through
the 1/Eg order T of the run it is compared with.  match_tbmt(h_spin, T)
compares its spin half with the derived spin part as one expression.  A
channel with j momentum factors reaches x^k for 1 + j + 2k <= T; since
xi^2 = beta^2 / (1 - beta^2) has unit leading term, that compares its
boost-speed series through beta^(T - 1 - j).  Its et and d sector is the
duality lift of its e sector (dual_lift), the paper's route; the engine
derives its own through its commutators, so the two stay independent.  The
moments mu and d stay symbols on both sides, so the one equality holds for
every (ge, gte).  The catalog's weak-field entries are views of the same
Hamiltonian, lifted off the particle block by beta_lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import algebra as al
from . import hamiltonians as ham
from .algebra import Expression
from .fw import FWRunResult
from .series import (BOOSTED, INTRINSIC, SeriesPoly, gamma_ratio_series,
                     gamma_series, xi_series)


class ReductionError(RuntimeError):
    """Terms survived that none of the expected structures accounts for."""


def physicalize(e: Expression) -> Expression:
    return al.substitute_energy_gap(al.truncate_fields(e))


def physical_orders(result: FWRunResult) -> dict[int, Expression]:
    return {n: physicalize(ex) for n, ex in result.even_slices.items()}


def kind(order: int, mat: int) -> str:
    """A group's part by its basis matrix: orbit, spin or (inter-block) residue."""
    left, right = al.mat_parts(mat)
    if left not in (0, 3):
        return "residue"
    return "spin" if right else "orbit"


def physical_hamiltonian(result: FWRunResult) -> Expression:
    """The last stage's rest mass and even part, physicalized."""
    last = result.stages[-1]
    return physicalize(last.mass + last.even)


def reduce_to_physical(result: FWRunResult) -> tuple[Expression, Expression]:
    """Group every physicalized term into (H_orbit, H_spin).

    Orbital terms carry only block-diagonal matrix content (identity or the
    block sign); spin terms carry a Pauli factor.  Anything else is a
    classification failure and raises.  Only the basis matrix classifies a
    term, so whole groups are labelled.
    """
    parts = al.split_groups(physical_hamiltonian(result), kind, ("orbit", "spin", "residue"))
    if parts["residue"]:
        raise ReductionError(f"{len(parts['residue'])} terms left unclassified")
    return parts["orbit"], parts["spin"]


_M, _E, _ET, _MU, _D = (al.DIM_NAMES.index(name) for name in ("m", "e", "et", "mu", "d"))


def _anomalous(d: tuple, fields: tuple) -> str | None:
    """The label of a term by its dimension exponents and field atoms:
    static for mu-with-B and d-with-E, cross for mu-with-E and d-with-B,
    None without an anomalous moment, residue for any other anomalous term."""
    moments = d[_MU], d[_D]
    if moments == (0, 0):
        return None
    electric = {a <= al.E3 for a in fields}
    if moments not in ((1, 0), (0, 1)) or len(electric) != 1:
        return "residue"
    return "static" if (moments == (1, 0)) != electric.pop() else "cross"


def pauli_extra_terms(h_phys: Expression) -> tuple[Expression, Expression]:
    """Split the anomalous-moment terms of a physicalized Hamiltonian (the
    orbit plus spin parts of reduce_to_physical) by field pairing.

    Returns (static, cross): static collects mu-with-B and d-with-E couplings,
    cross collects mu-with-E and d-with-B.  A term carrying an anomalous
    moment other than one power of mu or of d, or no single kind of field,
    raises.
    """
    parts = al.split_terms(h_phys, _anomalous, ("static", "cross", "residue"))
    if parts["residue"]:
        key = next(iter(parts["residue"].terms))
        raise ReductionError(f"unrecognized anomalous term {key}")
    return parts["static"], parts["cross"]


def dual_lift(e: Expression) -> Expression:
    """The dyon's weak-field expression from its pure-charge part by
    electromagnetic duality: e's et = d = 0 terms, each field term with its
    dual partner, eE -> eE + et B, eB -> eB - et E, mu E -> mu E + d B and
    mu B -> mu B - d E.  A field term that is not one field atom times one
    power of e or of mu raises ValueError."""
    terms = {}
    for (d, mat, ip, word), coeff in e.terms.items():
        if d[_ET] or d[_D]:
            continue
        terms[d, mat, ip, word] = coeff
        fields = [a for a in word if a < al.VPOT]
        if not fields:
            continue
        if len(fields) != 1 or (d[_E], d[_MU]) not in ((1, 0), (0, 1)):
            raise ValueError(f"no dual partner for term {(d, mat, ip, word)}")
        dual = al.dim_mul(d, al.dim(e=-d[_E], et=d[_E], mu=-d[_MU], d=d[_MU]))
        shift = al.B1 - al.E1 if word[0] <= al.E3 else al.E1 - al.B1
        terms[dual, mat, ip, (word[0] + shift, *word[1:])] = coeff if shift > 0 else -coeff
    return Expression(terms)


# ---------------------------------------------------------------------------
# The classical Hamiltonian

def classical_hamiltonian(order: int) -> Expression:
    """The classical Hamiltonian on the particle block: the orbital
    m c^2 sqrt(1 + xi^2) plus the Thomas-BMT spin term -(e/mc) s.F,
    s = hbar Sigma / 2 and beta = xi / gamma, which dual_lift takes to the
    dyon's -(e/mc) s.F - (et/mc) s.F_dual.

    It is written in the gap, m c^2 = Eg / 2 and xi = 2 c Pi / Eg, so each
    product keeps 1/Eg orders through `order` as the derived slices do, and
    is then physicalized like them.  The orbit term Eg xi^2k sits at order
    2k - 1, so the powers of xi^2 run through order + 1, odd orders too.
    Each spin channel is a core in units of hbar e c / Eg = hbar e / 2mc
    times a prefactor in x = xi^2, gamma = sqrt(1 + x).  An anomalous
    prefactor carries the gap-scaled moment mu over Eg in place of that
    unit, since every anomalous classical term is (g/2 - 1) e hbar c, so mu
    and its dual d stay symbols.
    """
    deg = (order + 1) // 2
    one, x = SeriesPoly.const(1, deg), SeriesPoly.x(deg)
    inv_gamma = (one + x).rsqrt()
    gamma = (one + x) * inv_gamma
    inv_gamma_plus_one = (gamma + 1).inverse()
    c_over_gap = al.dim(c=1, Eg=-1)
    c2_over_gap2 = al.dim_mul(c_over_gap, c_over_gap)
    xi2, xi2k = ham.pi_squared(1).scale(4, dims=c2_over_gap2), [Expression.term(1)]
    for _ in range(deg):
        xi2k.append(al.truncate_fields(al.mul(xi2k[-1], xi2, max_order=order + 1)))

    def in_xi(coeffs, dims: tuple) -> Expression:
        """Sum_k coeffs[k] xi^2k times the monomial dims."""
        return al.linear_combination(zip(coeffs, xi2k)).scale(1, dims=dims)

    parts = [(Fraction(1, 2), in_xi(gamma.coeffs, al.dim(Eg=1)))]
    channels = (  # core, normal and anomalous prefactors
        (ham.mat_dot_field(0, "B"), -inv_gamma, -one),
        (ham.sigma_dot_field_cross_pi("E").scale(2, dims=c_over_gap),
         inv_gamma_plus_one - inv_gamma, -inv_gamma),
        (al.mul(ham.sigma_dot_pi(), ham.field_dot_pi("B")).scale(4, dims=c2_over_gap2),
         SeriesPoly.zero(deg), inv_gamma * inv_gamma_plus_one),
    )
    for core, normal, anomalous in channels:
        prefactor = (in_xi(normal.coeffs, al.dim(hbar=1, c=1, Eg=-1, e=1))
                     + in_xi(anomalous.coeffs, al.dim(Eg=-1, mu=1)))
        parts.append((1, al.mul(prefactor, core, max_order=order)))
    return dual_lift(physicalize(al.linear_combination(parts)))


def match_tbmt(h_spin: Expression, order: int) -> Expression:
    """The reduced spin Hamiltonian of a target-order run, mu and d left as
    symbols, minus the classical one on the particle block: zero exactly
    when the two agree through beta^(order - 1) for every (ge, gte)."""
    classical = al.split_groups(classical_hamiltonian(order), kind, ("spin",))["spin"]
    return al.project_particle_block(h_spin) - classical


# ---------------------------------------------------------------------------
# Scalar series identities

@dataclass(frozen=True)
class SeriesCheckReport:
    name: str
    derived: tuple
    expected: tuple

    @property
    def passed(self) -> bool:
        return self.derived == self.expected


def series_check() -> list[SeriesCheckReport]:
    """The three prefactor identities relating xi polynomials to gamma forms."""
    explicit_gamma = (Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0),
                      Fraction(3, 8), Fraction(0), Fraction(5, 16))
    degree = len(explicit_gamma) - 1  # every series is kept through the typed one's degree
    xi = xi_series(degree)
    xi2 = xi * xi
    gam = gamma_series(degree)

    reports = []
    intrinsic = SeriesPoly(INTRINSIC, degree).compose(xi2)
    reports.append(SeriesCheckReport(
        "intrinsic_prefactor_vs_inverse_gamma",
        tuple(intrinsic[d] for d in range(5)),
        tuple(gam.inverse()[d] for d in range(5))))

    boosted = SeriesPoly(BOOSTED, degree).compose(xi2) * xi * Fraction(1, 2)
    target = (1 - gamma_ratio_series(degree)) * SeriesPoly.x(degree)
    reports.append(SeriesCheckReport(
        "boosted_prefactor_vs_gamma_ratio",
        tuple(boosted[d] for d in range(6)),
        tuple(target[d] for d in range(6))))

    reports.append(SeriesCheckReport(
        "lorentz_factor_series",
        tuple(gam[d] for d in range(len(explicit_gamma))),
        explicit_gamma))
    return reports


# ---------------------------------------------------------------------------
# Views of the classical Hamiltonian

def m_order(d: tuple, fields: tuple) -> int:
    """Minus a term's power of m, its physical order (a split_terms label)."""
    return -d[_M]


def beta_lift(e: Expression) -> Expression:
    """A particle-block expression lifted to the four-component form: each
    term with an odd power of m takes a factor beta, as the derived even
    slices carry beta at odd 1/Eg orders (beta m c^2 and the Zeeman
    couplings, not the spin-orbit chain)."""
    parity = al.split_terms(e, lambda d, fields: m_order(d, fields) % 2, (0, 1))
    return parity[0] + al.mul(Expression.term(1, mat=al.BETA_MAT), parity[1])

