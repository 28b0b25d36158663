"""Closed-form target expressions, built once and frozen as fixtures.

Two families of entries:

* ``fw_order_n`` — the order-n slice of the transformed Dirac Hamiltonian in
  raw commutator form (exact, no weak-field approximation): one loop over
  the orders adds the second conjugation's commutators to one table of
  first-stage forms, for any odd and even operators.
* ``physical_order_n`` plus aggregates — the weak-field closed forms, each
  a view of the one classical Hamiltonian ``reduction.classical_hamiltonian``
  at a given order, lifted off the particle block: ``kinetic_energy`` and
  ``spin_dipole`` are its orbit part and its spin part at mu = d = 0,
  ``physical_order_n`` is their m^-n slice, and ``anomalous_static`` and
  ``anomalous_cross`` are its mu and d terms split by field pairing.

Entries live in versioned JSON fixtures next to the package, built through
MAX_ORDER, the one place the shipped order 6 is written; FW_FIXTURES
overrides the directory.  They are also constructible from scratch, and the
test suite checks the fixtures against the constructors.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from importlib import resources
from math import factorial
from pathlib import Path

from . import algebra as al
from . import hamiltonians as ham
from . import reduction
from .algebra import Expression

MAX_ORDER = 6
FIXTURES_ENV = "FW_FIXTURES"
FIXTURES_VERSION = 1

FW_KEYS = tuple(f"fw_order_{n}" for n in range(1, MAX_ORDER + 1))
PHYSICAL_KEYS = tuple(f"physical_order_{n}" for n in range(1, MAX_ORDER + 1)) + (
    "kinetic_energy", "spin_dipole", "anomalous_static", "anomalous_cross")


def _beta_times(e: Expression) -> Expression:
    return al.mul(Expression.term(1, mat=al.BETA_MAT), e)


def _nestings(outer: Expression, inner: Expression, times: int) -> list[Expression]:
    """inner, [outer, inner], ... through `times` nestings; nesting n keeps
    1/Eg orders <= MAX_ORDER - n, the room its stage power n leaves."""
    out = [inner]
    for n in range(1, times + 1):
        out.append(al.commutator(outer, out[-1], max_order=MAX_ORDER - n))
    return out


def first_stage_forms(odd_op: Expression, even_op: Expression) -> tuple[dict, dict]:
    """Even slices h_0..h_MAX_ORDER and odd slices O_1..O_(MAX_ORDER-2), each
    without its 1/Eg^n, of (Eg/2) beta + O + E conjugated by exp(beta O / Eg),
    for O = odd_op and E = even_op.

    With ad = [beta O, .], stage power n holds ad^n(E)/n! and O's ad^n(O)/n!
    less the ad^n(O)/(n+1)! of the rest-mass term's ad^(n+1)/(n+1)!.  ad flips
    the beta grading, so h_n takes the E chain at even n and the O chain at
    odd n, O_n the other.  No operator may carry a negative 1/Eg order: that
    keeps every truncation here and in the sums below exact.
    """
    if min(al.min_order(odd_op) or 0, al.min_order(even_op) or 0) < 0:
        raise ValueError("first-stage operators carry a negative 1/Eg order")
    beta_odd = _beta_times(odd_op)
    from_even = _nestings(beta_odd, even_op, MAX_ORDER)
    from_odd = _nestings(beta_odd, odd_op, MAX_ORDER - 1)  # its nesting 6 is O_6 only

    def piece(n: int, parity: int) -> Expression:
        if n % 2 == parity:
            return from_even[n].scale(Fraction(1, factorial(n)))
        return from_odd[n].scale(Fraction(n, factorial(n + 1)))

    return ({n: piece(n, 0) for n in range(MAX_ORDER + 1)},
            {n: piece(n, 1) for n in range(1, MAX_ORDER - 1)})


def odd_pair_sum(odd: dict[int, Expression], total: int) -> Expression:
    """Sum of [beta O_l, O_m] over l + m = total, through the 1/Eg order
    MAX_ORDER - (total + 1) that its stage power total + 1 leaves."""
    return al.linear_combination(
        (1, al.commutator(_beta_times(o_l), odd[total - l], max_order=MAX_ORDER - total - 1))
        for l, o_l in odd.items() if total - l in odd)


def odd_triple_sum(odd: dict[int, Expression], even: dict[int, Expression],
                   total: int) -> Expression:
    """Sum of [beta O_l, [beta O_m, h_k]] over l + m + k = total, through the
    1/Eg order MAX_ORDER - (total + 2) that its stage power total + 2 leaves."""
    room = MAX_ORDER - total - 2
    return al.linear_combination(
        (1, al.commutator(_beta_times(o_l), al.commutator(
            _beta_times(o_m), even[total - l - m], max_order=room), max_order=room))
        for l, o_l in odd.items() for m, o_m in odd.items() if total - l - m in even)


def raw_even_slices(odd_op: Expression, even_op: Expression) -> dict[int, Expression]:
    """Even slices 1..MAX_ORDER of (Eg/2) beta + odd_op + even_op after two
    conjugations, in raw commutator form.

    The second conjugation, by exp(beta O' / Eg) with O' the first stage's
    odd part, adds (1/2)[beta O', O'] and (1/2)[beta O', [beta O', h]] to its
    even part h; later terms and stages start beyond MAX_ORDER.  So stage
    power n holds h_n + (1/2) sum_(l+m=n-1) [beta O_l, O_m]
    + (1/2) sum_(l+m+k=n-2) [beta O_l, [beta O_m, h_k]].  The pieces are
    summed with their 1/Eg^n and then sliced, since an operator may carry
    1/Eg orders of its own.
    """
    even, odd = first_stage_forms(odd_op, even_op)
    pieces = [(1, (even[n] + (odd_pair_sum(odd, n - 1) + odd_triple_sum(odd, even, n - 2))
                   .scale(Fraction(1, 2))).scale(1, dims=al.dim(Eg=-n)))
              for n in range(MAX_ORDER + 1)]
    slices = al.by_order(al.truncate_order(al.linear_combination(pieces), MAX_ORDER))
    return {n: slices.get(n, Expression.zero()) for n in range(1, MAX_ORDER + 1)}


def build_fw_entries() -> dict[str, Expression]:
    """Order-by-order commutator forms of the transformed Dirac Hamiltonian."""
    slices = raw_even_slices(ham.omega_odd(), ham.omega_even())
    return {f"fw_order_{n}": e for n, e in slices.items()}


# -- physical closed forms ----------------------------------------------------

def build_physical_entries(order: int) -> dict[str, Expression]:
    """The weak-field closed forms through `order`, each a view of the classical Hamiltonian.

    reduction.classical_hamiltonian(order) lives on the particle block, and
    reduction.beta_lift lifts it off.  Its orbit part is kinetic_energy, its
    spin part at mu = d = 0 spin_dipole, and physical_order_n is the m^-n
    slice of the two.  The anomalous entries are its mu and d terms, split
    by pauli_extra_terms.
    """
    h = reduction.beta_lift(reduction.classical_hamiltonian(order))
    parts = al.split_groups(h, reduction.kind, ("orbit", "spin"))
    entries = {"kinetic_energy": parts["orbit"],
               "spin_dipole": al.drop_symbols(parts["spin"], "mu", "d")}
    slices = al.split_terms(entries["kinetic_energy"] + entries["spin_dipole"],
                            reduction.m_order, ())
    for n in range(1, order + 1):
        entries[f"physical_order_{n}"] = slices[n]
    entries["anomalous_static"], entries["anomalous_cross"] = reduction.pauli_extra_terms(h)
    return entries


def build_all() -> dict[str, Expression]:
    entries = build_fw_entries()
    entries.update(build_physical_entries(MAX_ORDER))
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
        try:
            data = json.loads((path / "catalog.json").read_text())
        except RecursionError:
            raise ValueError(f"{path / 'catalog.json'} nests too deeply to read") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path / 'catalog.json'} is not a JSON object")
        version = data.get("version")
        if type(version) is not int or version != FIXTURES_VERSION:  # True and 1.0 are not 1
            raise ValueError(f"unsupported fixtures version {version}")
        entries = data.get("entries", {})
        if not isinstance(entries, dict):
            raise ValueError(f"{path / 'catalog.json'} entries are not a JSON object")
        missing = [key for key in FW_KEYS + PHYSICAL_KEYS if key not in entries]
        if missing:
            raise ValueError(f"{path / 'catalog.json'} lacks entries {missing}")
        out = {}
        for key in list(entries):  # each raw entry is freed once it is read
            try:
                out[key] = al.from_json_dict(entries.pop(key))
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        return cls(out)

    def save(self, directory: str | Path) -> Path:
        """Write catalog.json, the text json.dumps would give the payload
        {"version", "entries": {key: to_json_dict(entry)}} with indent=1 and
        sort_keys=True; each entry's text comes from al.to_json_text."""
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        body = ",".join(f"\n  {json.dumps(key)}: {al.to_json_text(self.entries[key], 2)}"
                        for key in sorted(self.entries))
        entries = f"{{{body}\n }}" if body else "{}"
        out = path / "catalog.json"
        out.write_text(f'{{\n "entries": {entries},\n "version": {FIXTURES_VERSION}\n}}')
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

