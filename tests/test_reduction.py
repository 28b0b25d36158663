"""Physical reduction and the classical spin comparison."""

import re
from fractions import Fraction

import pytest

from dyonfw import algebra as al
from dyonfw import catalog as cat_mod
from dyonfw import checks
from dyonfw import hamiltonians as ham
from dyonfw import reduction
from dyonfw.fw import split_even_odd

import oracles


def test_third_order_contains_mass_correction(dirac_result):
    physical = reduction.physical_orders(dirac_result)
    mass_corr = al.mul(al.Expression.term(Fraction(-1, 8), mat=al.BETA_MAT,
                                          dims=al.dim(m=-3, c=-2)),
                       ham.pi_squared(2))
    orbitlike = al.Expression(
        {k: v for k, v in physical[3].terms.items() if reduction.kind(3, k[1]) == "orbit"})
    assert orbitlike == al.truncate_fields(mass_corr)


def test_catalog_entries_hermitian_and_even(catalog):
    # the weak-field entries are Hermitian up to the dropped two-field terms
    # (conjugation reorders momentum words, which emits such corrections);
    # the exact commutator-form entries are Hermitian on the nose
    for key, entry in catalog.entries.items():
        if key.startswith("fw_order_"):
            assert al.hermitian_conjugate(entry) == entry, key
        else:
            conj = al.truncate_fields(al.hermitian_conjugate(entry))
            assert conj == entry, key
        assert split_even_odd(entry).odd.is_zero(), key


def test_pauli_extras_vanish_at_g_two(pauli_result):
    static, cross = reduction.pauli_extra_terms(reduction.physical_hamiltonian(pauli_result))
    assert al.substitute_moments(static, 2, 2).is_zero()
    assert al.substitute_moments(cross, 2, 2).is_zero()


def test_physical_hamiltonian_sums_the_rest_mass_and_every_even_slice(dirac_result,
                                                                    pauli_result):
    rest = al.Expression.term(1, mat=al.BETA_MAT, dims=al.dim(m=1, c=2))
    for result in (dirac_result, pauli_result):
        slices = [al.order_slice(result.stages[-1].even, 0), *result.even_slices.values()]
        assert reduction.physical_hamiltonian(result) == reduction.physicalize(
            al.linear_combination([(1, ex) for ex in (rest, *slices)])), result.model


@pytest.fixture(scope="module")
def classical():
    # the spin half of the classical Hamiltonian, which match_tbmt subtracts
    return al.split_groups(reduction.classical_hamiltonian(cat_mod.MAX_ORDER), reduction.kind,
                           ("spin",))["spin"]


def test_tbmt_low_speed_limit(classical):
    # at xi^0: -(ge/2) (hbar e/2mc) Sigma.B + (gte/2) (hbar et/2mc) Sigma.E
    ge, gte = Fraction(3), Fraction(1)
    at_rest = al.Expression({
        key: val for key, val in al.substitute_moments(classical, ge, gte).terms.items()
        if not any(oracles.is_pi(a) for a in key[3])})
    assert at_rest == (
        ham.mat_dot_field(0, "B").scale(-ge / 4, dims=al.dim(hbar=1, m=-1, c=-1, e=1))
        + ham.mat_dot_field(0, "E").scale(gte / 4, dims=al.dim(hbar=1, m=-1, c=-1, et=1)))


def test_tbmt_detects_wrong_coefficient(pauli_result):
    _, spin = reduction.reduce_to_physical(pauli_result)
    broken = spin + spin.scale(Fraction(1, 100))
    assert (reduction.match_tbmt(broken, cat_mod.MAX_ORDER)
            == al.project_particle_block(spin).scale(Fraction(1, 100)))


def test_tbmt_detects_a_flipped_anomalous_channel(pauli_result):
    # the mu-with-E terms are the anomalous part of the Sigma.(E x Pi) channel
    _, spin = reduction.reduce_to_physical(pauli_result)
    _, cross = reduction.pauli_extra_terms(spin)
    mu_cross = al.drop_symbols(cross, "d")
    assert not mu_cross.is_zero()
    diff = reduction.match_tbmt(spin - mu_cross.scale(2), cat_mod.MAX_ORDER)
    assert diff == al.project_particle_block(mu_cross.scale(-2))


@pytest.mark.parametrize("moments", [{"mu": 2}, {"mu": 1, "d": 1}, {"mu": -1}],
                         ids=["mu-squared", "mu-d", "inverse-mu"])
def test_match_tbmt_rejects_spin_terms_not_affine_in_the_moments(pauli_result, moments):
    _, spin = reduction.reduce_to_physical(pauli_result)
    stray = al.Expression.term(1, word=(al.field_b(3),), mat=al.mat_code(0, 3),
                               dims=al.dim(**moments))
    assert reduction.match_tbmt(spin + stray, cat_mod.MAX_ORDER) == stray


def test_dirac_pauli_without_moments_is_dirac(dirac_result, pauli_result):
    for n in range(1, cat_mod.MAX_ORDER + 1):
        assert (al.drop_symbols(pauli_result.even_slices[n], "mu", "d")
                == dirac_result.even_slices[n]), n
    assert len(pauli_result.stages) == len(dirac_result.stages)
    for k, (pauli, dirac) in enumerate(zip(pauli_result.stages, dirac_result.stages)):
        assert al.drop_symbols(pauli.odd, "mu", "d") == dirac.odd, k
    _, dirac_spin = reduction.reduce_to_physical(dirac_result)
    _, pauli_spin = reduction.reduce_to_physical(pauli_result)
    static, cross = reduction.pauli_extra_terms(reduction.physical_hamiltonian(pauli_result))
    assert pauli_spin == dirac_spin + static + cross


@pytest.mark.parametrize("word, moments", [
    ((al.field_e(1), al.field_b(2)), {"mu": 1}),
    ((al.field_b(3),), {"mu": 1, "d": 1}),
    ((al.pi(1), al.pi(2)), {"mu": 1}),
], ids=["mu-with-e-and-b", "mu-d", "mu-without-a-field"])
def test_pauli_extra_terms_names_an_unrecognized_anomalous_term(pauli_result, word, moments):
    stray = al.Expression.term(1, word=word, mat=al.mat_code(3, 3), dims=al.dim(**moments))
    (key,) = stray.terms
    with pytest.raises(reduction.ReductionError, match=re.escape(f"anomalous term {key}")):
        reduction.pauli_extra_terms(reduction.physical_hamiltonian(pauli_result) + stray)


# Per-point cross-check of the symbolic match: the Dirac spin part plus the
# anomalous extras, and the classical side, each with the moments substituted.
G_GRID = tuple((ge, gte) for ge in (0, 1, 2, Fraction("2.0023"), 3)
               for gte in (0, 1, 2, 3))


@pytest.fixture(scope="module")
def dirac_spin_and_extras(dirac_result, pauli_result):
    _, spin = reduction.reduce_to_physical(dirac_result)
    static, cross = reduction.pauli_extra_terms(reduction.physical_hamiltonian(pauli_result))
    return spin, static + cross


@pytest.mark.parametrize("ge, gte", G_GRID, ids=[f"{float(ge):g}-{gte}" for ge, gte in G_GRID])
def test_spin_hamiltonian_matches_tbmt_on_the_grid(dirac_spin_and_extras, classical, ge, gte):
    spin, extras = dirac_spin_and_extras
    fw = al.project_particle_block(spin + al.substitute_moments(extras, ge, gte))
    assert fw == al.substitute_moments(classical, ge, gte)


def test_classical_hamiltonian_at_each_order_is_the_next_one_cut_by_power_of_m():
    # the orbit term Eg xi^2k sits at order 2k - 1, so an odd order needs the
    # xi^2 power past it: built short, every odd order loses a term here
    h = {n: reduction.classical_hamiltonian(n) for n in range(1, 9)}
    for order in range(1, 8):
        top = al.split_terms(h[order + 1], reduction.m_order, (order + 1,))[order + 1]
        assert not top.is_zero(), order
        assert h[order] == h[order + 1] - top, order


# The paper's stated reach: the target-8 runs against the classical
# Hamiltonian built at order 8.
@pytest.fixture(scope="module")
def physical_8():
    return cat_mod.build_physical_entries(8)


def test_order_8_pauli_checks_pass_through_beta_seven(pauli_result_8, physical_8):
    results = checks.pauli_checks(pauli_result_8, physical_8)
    assert [c for c in results if not c["passed"]] == []
    assert results[-1]["name"] == "classical_match_through_beta7"


def test_order_8_physical_slices_are_the_classical_views(dirac_result_8, pauli_result_8,
                                                         physical_8):
    dirac = reduction.physical_orders(dirac_result_8)
    pauli = reduction.physical_orders(pauli_result_8)
    assert sorted(dirac) == sorted(pauli) == list(range(1, 9))
    for n in range(1, 9):
        assert dirac[n] == physical_8[f"physical_order_{n}"], n
        assert al.drop_symbols(pauli[n], "mu", "d") == physical_8[f"physical_order_{n}"], n


def test_order_8_dirac_reduces_to_the_classical_orbit_and_spin(dirac_result_8, physical_8):
    orbit, spin = reduction.reduce_to_physical(dirac_result_8)
    assert orbit == physical_8["kinetic_energy"] + ham.potential()
    assert spin == physical_8["spin_dipole"]


# The paper reaches the dyon through electromagnetic duality.  The engine
# derives the et and d sector through its own commutators and its typed
# inputs; dual_lift types it again from the e and mu sector, so each weak
# part of a run must be a fixed point of the lift.
@pytest.mark.parametrize("fixture", ["dirac_result", "pauli_result",
                                     "dirac_result_8", "pauli_result_8"])
def test_every_part_of_a_run_is_a_fixed_point_of_the_duality_lift(request, fixture):
    result = request.getfixturevalue(fixture)
    build = (ham.build_dirac_hamiltonian if result.model == "dirac"
             else ham.build_dirac_pauli_hamiltonian)
    parts = {"input": build(ham.GENERIC_DYON)}
    for k, stage in enumerate(result.stages, 1):
        parts[f"stage {k} even"], parts[f"stage {k} odd"] = stage.even, stage.odd
    parts.update((f"slice {n}", ex) for n, ex in result.even_slices.items())
    weak = {name: al.truncate_fields(p) for name, p in parts.items()}
    assert [name for name, w in weak.items() if reduction.dual_lift(w) != w] == []


def _charged(field: int, **charges) -> al.Expression:
    return al.Expression.term(1, word=(field, al.pi(1)), mat=al.mat_code(0, 3),
                              dims=al.dim(hbar=1, **charges))


# each of eE, eB, mu E and mu B with its dual partner, typed by hand
_LIFTED = (_charged(al.field_e(1), e=1) + _charged(al.field_b(1), et=1)
           + _charged(al.field_b(2), e=1) - _charged(al.field_e(2), et=1)
           + _charged(al.field_e(3), mu=1) + _charged(al.field_b(3), d=1)
           + _charged(al.field_b(1), mu=1) - _charged(al.field_e(1), d=1))


@pytest.mark.parametrize("stray, raises", [
    (al.Expression.term(1, word=(al.field_e(1), al.field_b(2)), dims=al.dim(e=1)), True),
    (_charged(al.field_b(3), e=1, mu=1), True),
    (_charged(al.field_b(3)), True),
    (_charged(al.field_e(2), et=1).scale(5), False),
    (_charged(al.field_b(3), d=1, mu=1), False),
], ids=["two-field-atoms", "e-and-mu", "neither-e-nor-mu", "et-dropped", "d-dropped"])
def test_dual_lift_takes_one_field_atom_times_e_or_mu_and_drops_et_and_d(stray, raises):
    if raises:
        (key,) = stray.terms
        with pytest.raises(ValueError, match=re.escape(f"term {key}")):
            reduction.dual_lift(_LIFTED + stray)
    else:
        # the partners already in _LIFTED are dropped and made again, not doubled
        assert reduction.dual_lift(_LIFTED + stray) == _LIFTED
