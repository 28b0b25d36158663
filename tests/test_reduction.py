"""Physical reduction, channel decomposition, classical comparison."""

from fractions import Fraction

import pytest

from dyonfw import algebra as al
from dyonfw import hamiltonians as ham
from dyonfw import reduction
from dyonfw.fw import MAX_ORDER
from dyonfw.reduction import ReductionError
from dyonfw.series import SeriesPoly, gamma_ratio_series, gamma_series, xi_series


def test_third_order_contains_mass_correction(dirac_result):
    physical = reduction.physical_orders(dirac_result)
    mass_corr = al.mul(al.Expression.term(Fraction(-1, 8), mat=al.BETA_MAT,
                                          dims=al.dim(m=-3, c=-2)),
                       ham.pi_squared(2))
    orbitlike = al.Expression(
        {k: v for k, v in physical[3].terms.items() if reduction._is_orbit_key(k)})
    assert orbitlike == al.truncate_fields(mass_corr)


def test_catalog_entries_hermitian_and_even(catalog):
    # the weak-field entries are Hermitian up to the dropped two-field terms
    # (conjugation reorders momentum words, which emits such corrections);
    # the exact commutator-form entries are Hermitian on the nose
    for key, entry in catalog.entries.items():
        if key.startswith("fw_order_"):
            assert al.is_hermitian(entry), key
        else:
            conj = al.truncate_fields(al.hermitian_conjugate(entry))
            assert conj == entry, key
        even, odd = al.beta_split(entry)
        assert odd.is_zero(), key


def test_pauli_extras_vanish_at_g_two(pauli_result):
    static, cross = reduction.pauli_extra_terms(reduction._physical_total(pauli_result))
    assert al.substitute_moments(static, 2, 2).is_zero()
    assert al.substitute_moments(cross, 2, 2).is_zero()


def test_tbmt_low_speed_limit(dirac_result, pauli_result):
    # degree-0 channel values: -(g/2) on the magnetic coupling, +(g/2) dual
    _, spin = reduction.reduce_to_physical(dirac_result)
    static, cross = reduction.pauli_extra_terms(reduction._physical_total(pauli_result))
    ge, gte = Fraction(3), Fraction(1)
    total = spin + al.substitute_moments(static + cross, ge, gte)
    fw_series = reduction.spin_channels_to_series(total)
    assert fw_series[("e", "direct")][0] == -ge / 2
    assert fw_series[("et", "direct")][0] == gte / 2
    # longitudinal term scales with (g/2 - 1) and vanishes for g = 2
    assert fw_series[("e", "long")][0] == (ge / 2 - 1) * Fraction(1, 2)


def test_tbmt_detects_wrong_coefficient(pauli_result):
    _, spin = reduction.reduce_to_physical(pauli_result)
    broken = spin + spin.scale(Fraction(1, 100))
    assert reduction.match_tbmt(broken)


@pytest.mark.parametrize("moments", [{"mu": 2}, {"mu": 1, "d": 1}, {"mu": -1}],
                         ids=["mu-squared", "mu-d", "inverse-mu"])
def test_match_tbmt_rejects_spin_terms_not_affine_in_the_moments(pauli_result, moments):
    _, spin = reduction.reduce_to_physical(pauli_result)
    stray = al.Expression.term(1, word=(al.field_b(3),), mat=al.mat_code(0, 3),
                               dims=al.dim(**moments))
    with pytest.raises(ReductionError, match="not affine"):
        reduction.match_tbmt(spin + stray)


def test_match_tbmt_builds_the_channel_basis_once(monkeypatch, pauli_result):
    _, spin = reduction.reduce_to_physical(pauli_result)
    reduction.match_tbmt(spin)
    basis = reduction.channel_basis()
    with pytest.raises(TypeError):
        basis[("e", "direct", 0)] = al.Expression.zero()

    def no_products(*args, **kwargs):
        raise AssertionError("channel basis rebuilt")

    monkeypatch.setattr(al, "mul", no_products)
    assert not reduction.match_tbmt(spin)
    assert reduction.channel_basis() is basis


def test_match_tbmt_builds_the_kinematic_series_once(monkeypatch, pauli_result):
    _, spin = reduction.reduce_to_physical(pauli_result)
    for cached in (gamma_series, xi_series, gamma_ratio_series):
        cached.cache_clear()
    calls = []
    rsqrt = SeriesPoly.rsqrt
    monkeypatch.setattr(SeriesPoly, "rsqrt", lambda s: calls.append(s) or rsqrt(s))
    assert not reduction.match_tbmt(spin)
    assert len(calls) == 1  # one gamma_series, shared by all three anchor points


def test_decompose_rejects_leftovers():
    stray = al.Expression.term(1, word=(al.field_e(1),), mat=al.mat_code(0, 2),
                               dims=al.dim(hbar=1, m=-1, c=-1, e=1))
    with pytest.raises(ReductionError):
        reduction.spin_channels_to_series(stray)


def test_dirac_pauli_without_moments_is_dirac(dirac_result, pauli_result):
    for n in range(1, MAX_ORDER + 1):
        assert (al.drop_symbols(pauli_result.even_slices[n], "mu", "d")
                == dirac_result.even_slices[n]), n
    assert len(pauli_result.stages) == len(dirac_result.stages)
    for k, (pauli, dirac) in enumerate(zip(pauli_result.stages, dirac_result.stages)):
        assert al.drop_symbols(pauli.odd, "mu", "d") == dirac.odd, k
    _, dirac_spin = reduction.reduce_to_physical(dirac_result)
    _, pauli_spin = reduction.reduce_to_physical(pauli_result)
    static, cross = reduction.pauli_extra_terms(reduction._physical_total(pauli_result))
    assert pauli_spin == dirac_spin + static + cross


# Per-point cross-check of the affine argument behind match_tbmt: a classical
# coefficient that is not affine in the gyro-ratios passes at the three
# anchors but fails here.
G_GRID = tuple((ge, gte) for ge in (0, 1, 2, Fraction("2.0023"), 3)
               for gte in (0, 1, 2, 3))


@pytest.fixture(scope="module")
def dirac_spin_and_extras(dirac_result, pauli_result):
    _, spin = reduction.reduce_to_physical(dirac_result)
    static, cross = reduction.pauli_extra_terms(reduction._physical_total(pauli_result))
    return spin, static + cross


@pytest.mark.parametrize("ge, gte", G_GRID, ids=[f"{float(ge):g}-{gte}" for ge, gte in G_GRID])
def test_spin_hamiltonian_matches_tbmt_on_the_grid(dirac_spin_and_extras, ge, gte):
    spin, extras = dirac_spin_and_extras
    fw_series = reduction.spin_channels_to_series(
        spin + al.substitute_moments(extras, ge, gte))
    classical = reduction.tbmt_channel_series(ge, gte)
    for (sector, name), series in fw_series.items():
        deg = reduction.TBMT_DEGREE - reduction.CHANNEL_GAMMA_POWER[name]
        assert ([series[d] for d in range(deg + 1)]
                == [classical[(sector, name)][d] for d in range(deg + 1)]), (sector, name)


def test_effective_dipoles_first_order():
    p_eff, m_eff = reduction.effective_dipoles(1)
    half = Fraction(1, 2)
    mu_m_dims = al.dim(hbar=1, m=-1, c=-1, e=1)
    mu_p_dims = al.dim(hbar=1, m=-1, c=-1, et=1)
    # z components: beta mu_p_z + (xi x mu_m)_z / 2
    expected_p3 = (al.Expression.term(-half, mat=al.mat_code(3, 3), dims=mu_p_dims)
                   + al.Expression.term(Fraction(1, 4), word=(al.pi(1),),
                                        mat=al.mat_code(0, 2),
                                        dims=al.dim_mul(mu_m_dims, al.dim(m=-1, c=-1)))
                   - al.Expression.term(Fraction(1, 4), word=(al.pi(2),),
                                        mat=al.mat_code(0, 1),
                                        dims=al.dim_mul(mu_m_dims, al.dim(m=-1, c=-1))))
    assert p_eff[2] == expected_p3
    # dropping the magnetic charge leaves only the boosted piece in p_eff
    electron_only = al.drop_symbols(p_eff[2], "et")
    assert electron_only == expected_p3 - al.Expression.term(
        -half, mat=al.mat_code(3, 3), dims=mu_p_dims)
    assert len(m_eff[2]) == 3


def test_effective_dipoles_order_four_prefactors():
    p_eff, _ = reduction.effective_dipoles(4)
    # the intrinsic prefactor series must match 1/gamma when xi -> beta gamma
    deg = 8
    xi = xi_series(deg)
    xi2 = xi * xi
    intrinsic = 1 - xi2 * Fraction(1, 2) + xi2 * xi2 * Fraction(3, 8)
    inv_gamma = gamma_series(deg).inverse()
    assert all(intrinsic[k] == inv_gamma[k] for k in range(5))
    boosted = (1 - xi2 * Fraction(3, 4) + xi2 * xi2 * Fraction(5, 8)) * Fraction(1, 2)
    ratio_form = (1 - gamma_ratio_series(deg)) * gamma_series(deg).inverse()
    # (1 - gamma/(gamma+1)) for the vector beta-hat: scalar part matches
    # through beta^4 once one gamma is peeled off for the xi -> beta map
    assert all((boosted * gamma_series(deg))[k] == (1 - gamma_ratio_series(deg))[k]
               for k in range(5))
    assert len(p_eff[0]) > 3  # quartic corrections present


def test_effective_dipoles_rejects_unsupported_order():
    with pytest.raises(ValueError):
        reduction.effective_dipoles(2)
