"""Physical reduction of the derived slices and the boost-velocity comparison.

A derived slice becomes "physical" by writing the gap out as 2 m c^2 and
dropping terms with two field factors.  The surviving terms are grouped into
the orbital part (block-diagonal matrix content only) and the spin part
(couplings carrying a Pauli factor), then the spin part is decomposed onto
six structural channels

    sector e:   Sigma.B,   Sigma.(E x Pi),  (Sigma.Pi)(B.Pi)
    sector et:  Sigma.E,   Sigma.(B x Pi),  (Sigma.Pi)(E.Pi)

each with a polynomial prefactor in (|Pi|/mc)^2.  Replacing |Pi|/mc by
beta*gamma(beta) turns each prefactor into a power series in the boost speed,
which is compared exactly against the classical spin-precession coefficients
through degree TBMT_DEGREE = MAX_ORDER - 1.  Both sides are affine in the
gyro-ratios, so the comparison at three anchor points holds for every
(ge, gte).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

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


def _is_orbit_key(key) -> bool:
    left, right = al.mat_parts(key[1])
    return right == 0 and left in (0, 3)


def _is_spin_key(key) -> bool:
    left, right = al.mat_parts(key[1])
    return right != 0 and left in (0, 3)


def _kind(order: int, key: tuple) -> str:
    return "orbit" if _is_orbit_key(key) else "spin" if _is_spin_key(key) else "residue"


def _physical_total(result: FWRunResult) -> Expression:
    """Rest mass, the order-0 slice and every kept even slice, physicalized."""
    rest = Expression.term(1, mat=al.BETA_MAT, dims=al.dim(m=1, c=2))
    parts = [rest, result.stages[-1].even_slice(0), *result.even_slices.values()]
    return physicalize(al.linear_combination([(1, ex) for ex in parts]))


def reduce_to_physical(result: FWRunResult) -> tuple[Expression, Expression]:
    """Group every physicalized term into (H_orbit, H_spin).

    Orbital terms carry only block-diagonal matrix content (identity or the
    block sign); spin terms carry a Pauli factor.  Anything else is a
    classification failure and raises.  Only the basis matrix, key[1],
    classifies a term, so the packed keys are grouped as they are.
    """
    parts = al._partition(_physical_total(result), _kind, ("orbit", "spin", "residue"))
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
# Exact decomposition onto structural channels

def _signature_keys(basis: Mapping) -> dict:
    """One term key per basis expression that no other basis expression has."""
    key_owners: dict[tuple, list] = {}
    for label, bexpr in basis.items():
        for key in bexpr.terms:
            key_owners.setdefault(key, []).append(label)
    signature = {}
    for label, bexpr in basis.items():
        unique = [k for k in bexpr.terms if len(key_owners[k]) == 1]
        if not unique:
            raise ValueError(f"basis element {label} has no signature key")
        signature[label] = unique[0]
    return signature


def _peel(e: Expression, basis: Mapping, signature: dict) -> dict:
    """Exact coefficients of e on the basis expressions, each read from e at
    its signature key (no other basis expression holds that key, so the
    order of the reads cannot matter); the residue must vanish."""
    coeffs = {}
    for label, bexpr in basis.items():
        sig = signature[label]
        coeffs[label] = e.terms.get(sig, Fraction(0)) / bexpr.terms[sig]
    residue = al.linear_combination(
        [(1, e)] + [(-c, basis[label]) for label, c in coeffs.items() if c])
    if not residue.is_zero():
        raise ReductionError(
            f"{len(residue)} terms outside the channel space")
    return coeffs


_MOMENT_DIMS = {
    "e": al.dim(hbar=1, m=-1, c=-1, e=1),
    "et": al.dim(hbar=1, m=-1, c=-1, et=1),
}
_DIRECT_KIND = {"e": "B", "et": "E"}
_CROSS_KIND = {"e": "E", "et": "B"}

TBMT_DEGREE = MAX_ORDER - 1
_SERIES_DEGREE = MAX_ORDER  # the highest degree any comparison reads

CHANNEL_GAMMA_POWER = {"direct": 0, "cross": 1, "long": 2}
# Highest power k of (|Pi|/mc)^2k a channel needs through beta^TBMT_DEGREE.
_CHANNEL_MAX_K = {c: (TBMT_DEGREE - j) // 2 for c, j in CHANNEL_GAMMA_POWER.items()}


@functools.lru_cache(maxsize=None)
def _channels() -> tuple[Mapping, dict]:
    """channel_basis() and its signature keys, built together once per process."""
    basis = {}
    for sector in ("e", "et"):
        dims = _MOMENT_DIMS[sector]
        half = Fraction(1, 2)
        direct = ham.mat_dot_field(0, _DIRECT_KIND[sector]).scale(half, dims=dims)
        cross = ham.sigma_dot_field_cross_pi(_CROSS_KIND[sector]).scale(
            half, dims=al.dim_mul(dims, al.dim(m=-1, c=-1)))
        long_core = al.truncate_fields(al.mul(
            ham.sigma_dot_pi().scale(1, dims=al.dim(m=-1, c=-1)),
            ham.field_dot_pi(_DIRECT_KIND[sector]).scale(
                half, dims=al.dim_mul(dims, al.dim(m=-1, c=-1)))))
        for name, core in (("direct", direct), ("cross", cross), ("long", long_core)):
            for k in range(_CHANNEL_MAX_K[name] + 1):
                grown = core if k == 0 else al.truncate_fields(
                    al.mul(ham.xi_squared(k), core))
                basis[(sector, name, k)] = grown
    basis = MappingProxyType(basis)
    return basis, _signature_keys(basis)


def channel_basis() -> Mapping:
    """Structural channels with moment-normalized cores, keyed by
    (sector, channel, k) for the (|Pi|/mc)^2k relativistic corrections.

    Built once per process and shared by every caller, so the mapping is
    read-only.
    """
    return _channels()[0]


def spin_channels_to_series(spin: Expression) -> dict:
    """Decompose a spin Hamiltonian and convert prefactors to beta series
    through degree MAX_ORDER, keyed by (sector, channel).

    The expression is projected on the particle block first; each momentum
    factor in a channel core contributes one factor gamma(beta) on top of the
    structural beta-hat vectors.
    """
    flat = al.project_particle_block(spin)
    coeffs = _peel(flat, *_channels())
    xi = xi_series(_SERIES_DEGREE)
    xi2 = xi * xi
    gam = gamma_series(_SERIES_DEGREE)
    out = {}
    for sector in ("e", "et"):
        for name in ("direct", "cross", "long"):
            poly = SeriesPoly([coeffs[(sector, name, k)] for k in range(_CHANNEL_MAX_K[name] + 1)],
                              _SERIES_DEGREE)
            out[(sector, name)] = poly.compose(xi2) * gam ** CHANNEL_GAMMA_POWER[name]
    return out


def tbmt_channel_series(ge, gte) -> dict:
    """Classical spin-precession coefficients on the same channel structures.

    From H = -(e/mc) s.F - (et/mc) s.F_dual with s = hbar Sigma / 2 and the
    dual fields B -> -E, E -> B; coefficients are exact series in beta.
    """
    gam = gamma_series(_SERIES_DEGREE)
    inv_gam = gam.inverse()
    ratio = gamma_ratio_series(_SERIES_DEGREE)
    ge = Fraction(ge)
    gte = Fraction(gte)
    return {
        ("e", "direct"): -(inv_gam + (ge / 2 - 1)),
        ("e", "cross"): ratio - ge / 2,
        ("e", "long"): ratio * (ge / 2 - 1),
        ("et", "direct"): inv_gam + (gte / 2 - 1),
        ("et", "cross"): ratio - gte / 2,
        ("et", "long"): -(ratio * (gte / 2 - 1)),
    }


# Once every spin term carries at most one of mu and d, to the first power,
# substitute_moments makes the spin Hamiltonian affine in (ge/2 - 1, gte/2 - 1).
# _peel and the series conversion are linear, and tbmt_channel_series is affine
# in the same variables, so the difference vanishes for every real (ge, gte)
# once it vanishes at three affinely independent points.
_ANCHORS = ((2, 2), (4, 2), (2, 4))


def match_tbmt(h_spin: Expression) -> tuple:
    """Compare the Dirac-Pauli spin Hamiltonian against the classical
    coefficients for every (ge, gte).

    h_spin is the reduced spin part with mu and d left as symbols.  The
    comparison runs channel by channel through total degree TBMT_DEGREE in
    the boost speed (a channel structure carrying j beta-hat vectors leaves
    degree TBMT_DEGREE - j for its scalar series).  Returns the mismatches
    as (ge, gte, sector, channel, degree, fw, classical) tuples.
    """
    for key in h_spin.terms:
        if (key[0][6], key[0][7]) not in ((0, 0), (1, 0), (0, 1)):
            raise ReductionError(f"spin term not affine in the moments: {key}")
    mismatches = []
    for ge, gte in _ANCHORS:
        fw = spin_channels_to_series(al.substitute_moments(h_spin, ge, gte))
        classical = tbmt_channel_series(ge, gte)
        for (sector, name), fw_series in fw.items():
            ref = classical[(sector, name)]
            for d in range(TBMT_DEGREE - CHANNEL_GAMMA_POWER[name] + 1):
                if fw_series[d] != ref[d]:
                    mismatches.append((ge, gte, sector, name, d, fw_series[d], ref[d]))
    return tuple(mismatches)


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
