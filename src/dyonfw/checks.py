"""Named verification checks, shared by ``dyonfw verify``, ``series-check``
and the acceptance gate.

Each suite function returns a list of ``{name, passed, detail}`` dicts in the
order ``verify`` prints them.  The two transformed Hamiltonians the suites
need are built once per process by :func:`pipeline`.
"""

from __future__ import annotations

import functools
import json

from . import algebra as al
from . import catalog as cat_mod
from . import fw
from . import hamiltonians as ham
from . import reduction


@functools.lru_cache(maxsize=None)
def pipeline(model: str) -> fw.FWRunResult:
    """Staged transformation of the generic dyon, built once per model.

    The result is shared by every caller; do not mutate it.
    """
    if model == "dirac":
        h = ham.build_dirac_hamiltonian(ham.GENERIC_DYON)
    else:
        h = ham.build_dirac_pauli_hamiltonian(ham.GENERIC_DYON)
    return fw.fw_run(h, cat_mod.MAX_ORDER, model=model)


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def fw_checks(catalog, dump_path: str | None) -> list[dict]:
    """Every derived order of the Dirac pipeline against the catalog, raw and physical.

    dump_path, if given, receives per-order derived/reference/diff JSON and
    LaTeX; only then is a difference built.
    """
    result = pipeline("dirac")
    orders = [(n, ex, catalog[f"fw_order_{n}"]) for n, ex in result.even_slices.items()]
    checks = [_check(f"fw_order_{n}_diff_zero", ex == ref, f"{len(ex)} terms")
              for n, ex, ref in orders]
    for n, ex in reduction.physical_orders(result).items():
        checks.append(_check(f"physical_order_{n}_diff_zero",
                             ex == catalog[f"physical_order_{n}"]))
    if dump_path:
        reports, latex = [], []
        for n, derived, reference in orders:
            diff = derived - reference
            reports.append({"order": n, "pass": diff.is_zero(),
                            "derived": al.to_json_dict(derived),
                            "reference": al.to_json_dict(reference),
                            "diff": al.to_json_dict(diff)})
            latex.append("\n".join([f"% order {n}", al.to_latex(derived),
                                    "% reference", al.to_latex(reference),
                                    "% difference", al.to_latex(diff)]))
        with open(dump_path, "w") as f:
            json.dump({"reports": reports, "latex": latex}, f, indent=1)
    return checks


def pauli_checks(result: fw.FWRunResult, reference) -> list[dict]:
    """Anomalous closed forms against the reference entries, their g = 2
    vanishing, and the TBMT match through beta^(T - 1) for every (ge, gte),
    all read from one physicalization of a target-T Dirac-Pauli result."""
    order = len(result.even_slices)
    orbit, spin = reduction.reduce_to_physical(result)
    static, cross = reduction.pauli_extra_terms(orbit + spin)
    checks = [
        _check("anomalous_static_matches", static == reference["anomalous_static"]),
        _check("anomalous_cross_matches", cross == reference["anomalous_cross"]),
        _check("anomalous_vanishes_at_g2",
               al.substitute_moments(static + cross, 2, 2).is_zero()),
    ]
    diff = reduction.match_tbmt(spin, order)
    detail = ""
    if not diff.is_zero():
        detail = f"{len(diff)} terms differ, first {diff.sorted_items()[0]}"
    checks.append(_check(f"classical_match_through_beta{order - 1}",
                         diff.is_zero(), detail))
    return checks


def appendix_b_checks() -> list[dict]:
    """The sandwich identities that emerge from ordering and truncation."""
    omega = ham.omega_odd()
    w_op = al.commutator(al.commutator(omega, ham.omega_even()), omega)
    rhs = al.truncate_fields(al.mul(ham.pi_squared(1).scale(1, dims=al.dim(c=2)), w_op))
    sandwich = al.truncate_fields(al.mul(al.mul(omega, w_op), omega))
    double = al.truncate_fields(
        al.mul(al.mul(omega, omega), w_op) + al.mul(w_op, al.mul(omega, omega)))
    return [
        _check("sandwich_reduces_with_minus_sign", (sandwich + rhs).is_zero()),
        _check("symmetric_product_reduces", (double - rhs.scale(2)).is_zero()),
    ]


def series_checks() -> list[dict]:
    """The boost-speed prefactor identities."""
    return [_check(r.name, r.passed) for r in reduction.series_check()]
