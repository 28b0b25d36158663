"""Physical reduction of the derived slices and the classical spin comparison.

A derived slice becomes "physical" by writing the gap out as 2 m c^2 and
dropping terms with two field factors.  The surviving terms are grouped into
the orbital part (block-diagonal matrix content only) and the spin part
(couplings carrying a Pauli factor).  On the particle block the spin part is
compared, as one expression, with the classical Thomas-BMT spin Hamiltonian
built on six structural channels

    sector e:   Sigma.B,   Sigma.(E x Pi),  (Sigma.Pi)(B.Pi)
    sector et:  Sigma.E,   Sigma.(B x Pi),  (Sigma.Pi)(E.Pi)

each with its prefactor expanded in x = (|Pi|/mc)^2 = xi^2.  A channel with
j momentum factors keeps x^k for k <= (TBMT_DEGREE - j) // 2; since
xi^2 = beta^2 / (1 - beta^2) has unit leading term, that compares its
boost-speed series through beta^(TBMT_DEGREE - j), TBMT_DEGREE = MAX_ORDER - 1.
The moments mu and d stay symbols on both sides, so the one equality holds
for every (ge, gte).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import algebra as al
from . import hamiltonians as ham
from .algebra import Expression
from .fw import MAX_ORDER, FWRunResult
from .series import (BOOSTED, INTRINSIC, SeriesPoly, gamma_ratio_series,
                     gamma_series, xi_series)


class ReductionError(RuntimeError):
    """Terms survived that none of the expected structures accounts for."""


def physicalize(e: Expression) -> Expression:
    return al.truncate_fields(al.substitute_energy_gap(e))


def physical_orders(result: FWRunResult) -> dict[int, Expression]:
    return {n: physicalize(ex) for n, ex in result.even_slices.items()}


def _kind(order: int, key: tuple) -> str:
    left, right = al.mat_parts(key[1])
    if left not in (0, 3):
        return "residue"
    return "spin" if right else "orbit"


def physical_hamiltonian(result: FWRunResult) -> Expression:
    """Rest mass plus the last stage's even part, physicalized."""
    rest = Expression.term(1, mat=al.BETA_MAT, dims=al.dim(m=1, c=2))
    return physicalize(rest + result.stages[-1].even)


def reduce_to_physical(result: FWRunResult) -> tuple[Expression, Expression]:
    """Group every physicalized term into (H_orbit, H_spin).

    Orbital terms carry only block-diagonal matrix content (identity or the
    block sign); spin terms carry a Pauli factor.  Anything else is a
    classification failure and raises.  Only the basis matrix, key[1],
    classifies a term, so the packed keys are grouped as they are.
    """
    parts = al._partition(physical_hamiltonian(result), _kind, ("orbit", "spin", "residue"))
    if parts["residue"]:
        raise ReductionError(f"{len(parts['residue'])} terms left unclassified")
    return parts["orbit"], parts["spin"]


def pauli_extra_terms(h_phys: Expression) -> tuple[Expression, Expression]:
    """Split the anomalous-moment terms of a physicalized Hamiltonian (the
    orbit plus spin parts of reduce_to_physical) by field pairing.

    Returns (static, cross): static collects mu-with-B and d-with-E couplings,
    cross collects mu-with-E and d-with-B.  Terms carrying an anomalous moment
    but no single identifiable field report as residue.
    """
    static, cross = {}, {}
    for key, val in h_phys.terms.items():
        mu_exp, d_exp = key[0][6], key[0][7]
        if not mu_exp and not d_exp:
            continue
        kinds = {("E" if a < 3 else "B") for a in key[3] if al.is_field(a)}
        if len(kinds) != 1 or mu_exp + d_exp != 1:
            raise ReductionError(f"unrecognized anomalous term {key}")
        kind = kinds.pop()
        if (mu_exp and kind == "B") or (d_exp and kind == "E"):
            static[key] = val
        else:
            cross[key] = val
    return Expression(static), Expression(cross)


# ---------------------------------------------------------------------------
# The classical spin Hamiltonian

TBMT_DEGREE = MAX_ORDER - 1
_SERIES_DEGREE = MAX_ORDER  # the highest degree series_check reads


def classical_spin_hamiltonian() -> Expression:
    """The Thomas-BMT spin Hamiltonian -(e/mc) s.F - (et/mc) s.F_dual on the
    particle block, s = hbar Sigma / 2 and beta = xi / gamma, through
    beta^TBMT_DEGREE.

    Each channel is a core in units of hbar charge / 2mc times a prefactor
    in x = xi^2, gamma = sqrt(1 + x).  An anomalous prefactor carries the
    gap-scaled moment in place of the charge, since every anomalous
    classical term is (g/2 - 1) charge hbar c, so mu and d stay symbols.  A
    core with j momentum factors keeps x^k for k <= (TBMT_DEGREE - j) // 2.
    """
    deg = TBMT_DEGREE // 2
    one, x = SeriesPoly.const(1, deg), SeriesPoly.x(deg)
    inv_gamma = (one + x).rsqrt()
    inv_gamma_plus_one = ((one + x) * inv_gamma + 1).inverse()
    over_mc = al.dim(m=-1, c=-1)
    parts = []
    for charge, moment, direct, cross, sign in (("e", "mu", "B", "E", -1),
                                                ("et", "d", "E", "B", 1)):
        long_core = al.truncate_fields(al.mul(ham.sigma_dot_pi(), ham.field_dot_pi(direct)))
        channels = (  # core, its momentum factors j, normal and anomalous prefactors
            (ham.mat_dot_field(0, direct), 0, inv_gamma * sign, one * sign),
            (ham.sigma_dot_field_cross_pi(cross).scale(1, dims=over_mc), 1,
             inv_gamma_plus_one - inv_gamma, -inv_gamma),
            (long_core.scale(1, dims=al.dim_mul(over_mc, over_mc)), 2,
             SeriesPoly.zero(deg), inv_gamma * inv_gamma_plus_one * -sign),
        )
        normal = al.dim(hbar=1, m=-1, c=-1, **{charge: 1})
        anomalous = al.dim(m=-1, c=-2, **{moment: 1})
        for core, j, normal_pref, anomalous_pref in channels:
            for k in range((TBMT_DEGREE - j) // 2 + 1):
                grown = core if k == 0 else al.truncate_fields(al.mul(ham.xi_squared(k), core))
                parts += [(normal_pref[k] / 2, grown.scale(1, dims=normal)),
                          (anomalous_pref[k] / 2, grown.scale(1, dims=anomalous))]
    return al.linear_combination(parts)


def match_tbmt(h_spin: Expression) -> Expression:
    """The reduced spin Hamiltonian, mu and d left as symbols, minus the
    classical one on the particle block: zero exactly when the two agree
    through beta^TBMT_DEGREE for every (ge, gte)."""
    return al.project_particle_block(h_spin) - classical_spin_hamiltonian()


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
    xi = xi_series(_SERIES_DEGREE)
    xi2 = xi * xi
    gam = gamma_series(_SERIES_DEGREE)

    reports = []
    intrinsic = SeriesPoly(INTRINSIC, _SERIES_DEGREE).compose(xi2)
    reports.append(SeriesCheckReport(
        "intrinsic_prefactor_vs_inverse_gamma",
        tuple(intrinsic[d] for d in range(5)),
        tuple(gam.inverse()[d] for d in range(5))))

    boosted = SeriesPoly(BOOSTED, _SERIES_DEGREE).compose(xi2) * xi * Fraction(1, 2)
    target = (1 - gamma_ratio_series(_SERIES_DEGREE)) * SeriesPoly.x(_SERIES_DEGREE)
    reports.append(SeriesCheckReport(
        "boosted_prefactor_vs_gamma_ratio",
        tuple(boosted[d] for d in range(6)),
        tuple(target[d] for d in range(6))))

    explicit_gamma = (Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0),
                      Fraction(3, 8), Fraction(0), Fraction(5, 16))
    reports.append(SeriesCheckReport(
        "lorentz_factor_series",
        tuple(gam[d] for d in range(len(explicit_gamma))),
        explicit_gamma))
    return reports


# ---------------------------------------------------------------------------
# Effective dipole moments

def effective_dipoles(order: int) -> tuple[tuple, tuple]:
    """Boosted effective dipole pair as component expressions (indexed 1..3).

    order 1 gives the leading pair

        p_eff = beta mu_p + (xi x mu_m) / 2
        m_eff = beta mu_m - (xi x mu_p) / 2

    with the intrinsic moments mu_m = (e hbar/2mc) Sigma and
    mu_p = -(et hbar/2mc) Sigma; order 4 attaches the relativistic prefactor
    polynomials in |xi|^2 (series.INTRINSIC and BOOSTED) to the intrinsic
    and boosted pieces.
    """
    if order not in (1, 4):
        raise ValueError("supported expansion orders: 1 and 4")
    half = Fraction(1, 2)
    mu_m_dims = al.dim(hbar=1, m=-1, c=-1, e=1)
    mu_p_dims = al.dim(hbar=1, m=-1, c=-1, et=1)

    kept = 1 if order == 1 else len(INTRINSIC)
    intrinsic_pref = ham.xi_polynomial(INTRINSIC[:kept])
    cross_pref = ham.xi_polynomial(BOOSTED[:kept]).scale(half)

    def xi_cross_moment(i: int, coeff, dims) -> Expression:
        # (xi x moment)_i = eps_ijk (Pi_j / mc) * moment_k
        return ham.pi_cross_sigma(i).scale(coeff, dims=al.dim_mul(dims, al.dim(m=-1, c=-1)))

    p_eff, m_eff = [], []
    for i in (1, 2, 3):
        beta_sigma = al.mat_code(3, i)
        p_eff.append(al.truncate_fields(
            al.mul(intrinsic_pref, Expression.term(-half, mat=beta_sigma, dims=mu_p_dims))
            + al.mul(cross_pref, xi_cross_moment(i, half, mu_m_dims))))
        m_eff.append(al.truncate_fields(
            al.mul(intrinsic_pref, Expression.term(half, mat=beta_sigma, dims=mu_m_dims))
            - al.mul(cross_pref, xi_cross_moment(i, -half, mu_p_dims))))
    return tuple(p_eff), tuple(m_eff)
