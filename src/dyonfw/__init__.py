"""Exact operator algebra for the low-energy expansion of Dirac-type dyon
Hamiltonians, plus the classical spin-precession dynamics it is checked
against."""

from .algebra import Expression, commutator, anticommutator, mul
from .hamiltonians import (ParticleParams, build_dirac_hamiltonian,
                           build_dirac_pauli_hamiltonian)
from .fw import FWRunResult, bch_conjugate, fw_run, split_even_odd
from .catalog import ReferenceCatalog
from .reduction import match_tbmt, pauli_extra_terms, reduce_to_physical, series_check
from .series import SeriesPoly

__version__ = "0.1.0"

# The dynamics names are resolved on first use (PEP 562), so the symbolic
# commands never pay for importing the integrator and its CSV writer.
_DYNAMICS = ("FieldConfig", "PhaseState", "Trajectory", "boost_dipole", "integrate")


def __getattr__(name):
    if name in _DYNAMICS:
        from . import dynamics
        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Expression", "commutator", "anticommutator", "mul",
    "ParticleParams", "build_dirac_hamiltonian", "build_dirac_pauli_hamiltonian",
    "FWRunResult", "bch_conjugate", "fw_run",
    "split_even_odd", "ReferenceCatalog",
    "match_tbmt", "pauli_extra_terms",
    "reduce_to_physical", "series_check", "SeriesPoly",
    *_DYNAMICS,
    "__version__",
]
