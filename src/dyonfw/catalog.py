"""Closed-form target expressions, transcribed once and frozen as fixtures.

Two families of entries:

* ``fw_order_n`` — the order-n slice of the transformed Dirac Hamiltonian in
  raw commutator form (exact, no weak-field approximation).
* ``physical_order_n`` plus aggregates — the weak-field closed forms after
  the gap is written out as 2 m c^2 and terms with two field factors are
  dropped: kinetic chain, Zeeman-type couplings, spin-orbit chain, and the
  anomalous-moment pieces, built in one loop over the prefactor tables of
  ``series``.

Entries live in versioned JSON fixtures next to the package; FW_FIXTURES
overrides the directory.  They are also constructible from scratch, and the
test suite checks the fixtures against the constructors.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import algebra as al
from . import hamiltonians as ham
from .algebra import Expression
from .fw import MAX_ORDER, nested_commutator
from .series import BOOSTED, INTRINSIC, SQRT

FIXTURES_ENV = "FW_FIXTURES"
FIXTURES_VERSION = 1

FW_KEYS = tuple(f"fw_order_{n}" for n in range(1, MAX_ORDER + 1))
PHYSICAL_KEYS = tuple(f"physical_order_{n}" for n in range(1, MAX_ORDER + 1)) + (
    "kinetic_energy", "spin_dipole", "anomalous_static", "anomalous_cross")


def _half(e: Expression) -> Expression:
    return e.scale(Fraction(1, 2))


def _beta_times(e: Expression) -> Expression:
    return al.mul(Expression.term(1, mat=al.BETA_MAT), e)


def first_stage_odd_forms() -> dict[int, Expression]:
    """Reduced odd slices of the first conjugation, orders 1..4."""
    omega_o = ham.omega_odd()
    d_op = al.commutator(omega_o, ham.omega_even())
    w_op = al.commutator(d_op, omega_o)
    omega3 = al.mul(al.mul(omega_o, omega_o), omega_o)
    omega5 = al.mul(al.mul(omega3, omega_o), omega_o)
    return {
        1: _beta_times(d_op),
        2: omega3.scale(Fraction(-4, 3)),
        3: _beta_times(al.commutator(omega_o, w_op)).scale(Fraction(1, 6)),
        4: omega5.scale(Fraction(8, 15)),
    }


def first_stage_even_forms() -> dict[int, Expression]:
    """Reduced even slices of the first conjugation, orders 0..2."""
    omega_o = ham.omega_odd()
    d_op = al.commutator(omega_o, ham.omega_even())
    return {
        0: ham.omega_even(),
        1: _beta_times(al.mul(omega_o, omega_o)),
        2: _half(al.commutator(d_op, omega_o)),
    }


def odd_pair_sum(total: int) -> Expression:
    """Sum of [beta O_l, O_m] over l + m = total with the reduced odd forms."""
    odd = first_stage_odd_forms()
    out = Expression.zero()
    for l in range(1, 5):
        m = total - l
        if 1 <= m <= 4:
            out = out + al.commutator(_beta_times(odd[l]), odd[m])
    return out


def odd_triple_sum(total: int) -> Expression:
    """Sum of [beta O_l, [beta O_m, h_n]] over l + m + n = total."""
    odd = first_stage_odd_forms()
    even = first_stage_even_forms()
    out = Expression.zero()
    for l in range(1, 4):
        for m in range(1, 4):
            n = total - l - m
            if 0 <= n <= 2:
                out = out + al.commutator(
                    _beta_times(odd[l]), al.commutator(_beta_times(odd[m]), even[n]))
    return out


def build_fw_entries() -> dict[str, Expression]:
    """Order-by-order commutator forms of the transformed Dirac Hamiltonian."""
    beta = Expression.term(1, mat=al.BETA_MAT)
    omega_o = ham.omega_odd()
    omega_e = ham.omega_even()
    d_op = al.commutator(omega_o, omega_e)
    w_op = al.commutator(d_op, omega_o)
    beta_omega = al.mul(beta, omega_o)

    omega2 = al.mul(omega_o, omega_o)
    omega3 = al.mul(omega2, omega_o)
    omega4 = al.mul(omega2, omega2)

    entries = {
        "fw_order_1": _beta_times(omega2).scale(1, dims=al.dim(Eg=-1)),
        "fw_order_2": _half(w_op).scale(1, dims=al.dim(Eg=-2)),
        "fw_order_3": (_beta_times(omega4).scale(-1)
                       + _beta_times(al.mul(_beta_times(d_op), _beta_times(d_op)))
                       ).scale(1, dims=al.dim(Eg=-3)),
        "fw_order_4": (al.commutator(al.commutator(omega_o, w_op), omega_o)
                       .scale(Fraction(1, 24))
                       + al.commutator(d_op, omega3).scale(Fraction(-4, 3))
                       ).scale(1, dims=al.dim(Eg=-4)),
        "fw_order_5": (nested_commutator(beta_omega, omega_o, 5)
                       .scale(Fraction(1, 144))
                       + _half(odd_pair_sum(4)) + _half(odd_triple_sum(3))
                       ).scale(1, dims=al.dim(Eg=-5)),
        # The even-order slices pair the nested chain with the even operator;
        # the sixth-order display that pairs it with the odd one contradicts
        # the parity pattern of the slices and is not followed.
        "fw_order_6": (nested_commutator(beta_omega, omega_e, 6)
                       .scale(Fraction(1, 720))
                       + _half(odd_pair_sum(5)) + _half(odd_triple_sum(4))
                       ).scale(1, dims=al.dim(Eg=-6)),
    }
    return entries


# -- physical closed forms ----------------------------------------------------

def _zeeman_pair() -> Expression:
    """mu_m . B + mu_p . E with the intrinsic (g = 2) moments:
    (e hbar / 2mc) Sigma . B - (et hbar / 2mc) Sigma . E."""
    return (ham.mat_dot_field(0, "B").scale(
                Fraction(1, 2), dims=al.dim(hbar=1, m=-1, c=-1, e=1))
            + ham.mat_dot_field(0, "E").scale(
                Fraction(-1, 2), dims=al.dim(hbar=1, m=-1, c=-1, et=1)))


def spin_orbit_pair() -> Expression:
    """- E.(xi x mu_m)/2 - B.(-xi x mu_p)/2, both cross couplings expanded."""
    # E . (xi x mu_m) = (e hbar/2m^2c^2) eps_ijk Sigma_k E_i Pi_j -> use
    # Sigma.(F x Pi) shapes: E.(Pi x Sigma) = Sigma.(E x Pi).
    e_part = ham.sigma_dot_field_cross_pi("E").scale(
        Fraction(-1, 4), dims=al.dim(hbar=1, m=-2, c=-2, e=1))
    b_part = ham.sigma_dot_field_cross_pi("B").scale(
        Fraction(-1, 4), dims=al.dim(hbar=1, m=-2, c=-2, et=1))
    return e_part + b_part


def build_physical_entries() -> dict[str, Expression]:
    """Weak-field reductions, order by order, plus the grouped aggregates.

    Orders 2k+1 and 2k+2 carry the xi^2k terms of the classical prefactors
    (series.SQRT, INTRINSIC, BOOSTED): the orbital beta m c^2 sqrt(1 + xi^2)
    with the Zeeman pair under 1/gamma, then the spin-orbit pair under
    2/(gamma (gamma + 1)).
    """
    beta = Expression.term(1, mat=al.BETA_MAT)
    beta_mc2 = beta.scale(1, dims=al.dim(m=1, c=2))
    beta_zeeman = al.mul(beta, _zeeman_pair())
    so = spin_orbit_pair()
    trunc = al.truncate_fields
    entries, kinetic, spin = {}, [(SQRT[0], beta_mc2)], []
    for k in range(MAX_ORDER // 2):
        xi2k = ham.xi_squared(k)
        orbit = (SQRT[k + 1], trunc(al.mul(beta_mc2, ham.xi_squared(k + 1))))
        zeeman = (-INTRINSIC[k], trunc(al.mul(xi2k, beta_zeeman)))
        spin_orbit = (BOOSTED[k], trunc(al.mul(xi2k, so)))
        entries[f"physical_order_{2 * k + 1}"] = al.linear_combination([orbit, zeeman])
        entries[f"physical_order_{2 * k + 2}"] = al.linear_combination([spin_orbit])
        kinetic.append(orbit)
        spin += [zeeman, spin_orbit]
    entries["kinetic_energy"] = al.linear_combination(kinetic)
    entries["spin_dipole"] = al.linear_combination(spin)

    # Anomalous-moment closed forms, gap-scaled symbols mu and d with their
    # explicit 1/Eg (substitute the gap afterwards to compare with derived
    # slices).  Static piece: -(1/2) (1 - 3/4 xi^2) beta (Sigma.xi)(G.xi)
    # + beta Sigma.G for G = (-mu B + d E)/Eg; cross piece carries
    # (mu E + d B)/Eg under 1/gamma.
    sigma_xi = ham.sigma_dot_pi().scale(1, dims=al.dim(m=-1, c=-1))
    g_dot_xi = (ham.field_dot_pi("B").scale(-1, dims=al.dim(mu=1, Eg=-1, m=-1, c=-1))
                + ham.field_dot_pi("E").scale(1, dims=al.dim(d=1, Eg=-1, m=-1, c=-1)))
    static_long = trunc(al.mul(al.mul(beta, sigma_xi), g_dot_xi))
    static_prefactor = ham.xi_polynomial(BOOSTED[:2]).scale(Fraction(-1, 2))
    static = (trunc(al.mul(static_prefactor, static_long))
              + ham.pauli_even_coupling().scale(1, dims=al.dim(Eg=-1)))

    cross_core = (ham.sigma_dot_field_cross_pi("E").scale(
                      -1, dims=al.dim(mu=1, Eg=-1, m=-1, c=-1))
                  + ham.sigma_dot_field_cross_pi("B").scale(
                      -1, dims=al.dim(d=1, Eg=-1, m=-1, c=-1)))
    cross = trunc(al.mul(ham.xi_polynomial(INTRINSIC), cross_core))

    entries["anomalous_static"] = al.substitute_energy_gap(static)
    entries["anomalous_cross"] = al.substitute_energy_gap(cross)
    return entries


def build_all() -> dict[str, Expression]:
    entries = build_fw_entries()
    entries.update(build_physical_entries())
    return entries


class ReferenceCatalog:
    """Keyed closed-form targets; every entry is canonical and Hermitian."""

    def __init__(self, entries: dict[str, Expression]):
        self.entries = dict(entries)

    @classmethod
    def build(cls) -> "ReferenceCatalog":
        return cls(build_all())

    @classmethod
    def load(cls, directory: str | Path | None = None) -> "ReferenceCatalog":
        path = Path(directory) if directory else fixtures_dir()
        data = json.loads((path / "catalog.json").read_text())
        if not isinstance(data, dict):
            raise ValueError(f"{path / 'catalog.json'} is not a JSON object")
        if data.get("version") != FIXTURES_VERSION:
            raise ValueError(f"unsupported fixtures version {data.get('version')}")
        entries = data.get("entries", {})
        if not isinstance(entries, dict):
            raise ValueError(f"{path / 'catalog.json'} entries are not a JSON object")
        missing = [key for key in FW_KEYS + PHYSICAL_KEYS if key not in entries]
        if missing:
            raise ValueError(f"{path / 'catalog.json'} lacks entries {missing}")
        out = {}
        for key, val in entries.items():
            try:
                out[key] = al.from_json_dict(val)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        return cls(out)

    def save(self, directory: str | Path) -> Path:
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": FIXTURES_VERSION,
            "entries": {key: al.to_json_dict(self.entries[key])
                        for key in sorted(self.entries)},
        }
        out = path / "catalog.json"
        out.write_text(json.dumps(payload, indent=1, sort_keys=True))
        return out

    def __getitem__(self, key: str) -> Expression:
        return self.entries[key]

    def __contains__(self, key: str) -> bool:
        return key in self.entries


def fixtures_dir() -> Path:
    override = os.environ.get(FIXTURES_ENV)
    if override:
        return Path(override)
    return Path(resources.files("dyonfw") / "fixtures")

