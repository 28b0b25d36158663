"""Classical orbit + spin integration, the precession law and the dipole law
against the derived spin Hamiltonian."""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dyonfw import algebra as al
from dyonfw import cli
from dyonfw import dynamics as dyn
from dyonfw import reduction
from dyonfw.dynamics import FieldConfig, PhaseState
from dyonfw.hamiltonians import ParticleParams


def vec_close(a, b, tol=1e-12):
    return all(abs(x - y) <= tol for x, y in zip(a, b))


# -- effective precession fields ---------------------------------------------

def test_thomas_field_at_rest_is_half_g_b():
    f = oracles.thomas_F((0, 0, 0), FieldConfig(B=(0.2, -0.3, 0.5)), ge=3.0)
    assert vec_close(f, (0.3, -0.45, 0.75))


def test_thomas_field_g2_has_no_longitudinal_term():
    beta = (0.4, 0.3, 0.5)
    fields = FieldConfig(B=(0.0, 0.0, 1.0))
    gamma = 1 / math.sqrt(1 - sum(b * b for b in beta))
    f = oracles.thomas_F(beta, fields, ge=2.0)
    expected = tuple(fields.B[i] / gamma for i in range(3))
    assert vec_close(f, expected)


def test_thomas_field_hand_value():
    # gamma = 1.25 for beta = 0.6; g = 2, E = 0, B = z -> F = 0.8 z
    f = oracles.thomas_F((0.6, 0, 0), FieldConfig(B=(0, 0, 1)), ge=2.0)
    assert vec_close(f, (0.0, 0.0, 0.8))


def test_thomas_field_rejects_superluminal():
    with pytest.raises(ValueError):
        oracles.thomas_F((1.0, 0, 0), FieldConfig(), ge=2.0)


@pytest.mark.parametrize("field", [
    lambda u: dyn.integrate(PhaseState(u=u), FieldConfig(), ParticleParams(e=1), 0.1, 1),
    lambda u: dyn.integrate(PhaseState(u=u), FieldConfig(), ParticleParams(e=1), 0.1, 1,
                            scheme="rk4"),
    lambda beta: dyn.boost_dipole((0, 0, 1), (0, 0, 0), beta),
], ids=["integrate-split", "integrate-rk4", "boost_dipole"])
def test_effective_fields_reject_nan_speed(field):
    with pytest.raises(ValueError, match="below 1"):
        field((math.nan, 0, 0))


def test_dual_field_at_rest():
    fd = oracles.thomas_F_dual((0, 0, 0), FieldConfig(E=(1.0, 0, 0)), gte=3.0)
    assert vec_close(fd, (-1.5, 0.0, 0.0))


def test_dual_field_is_duality_image():
    beta = (0.2, -0.1, 0.4)
    fields = FieldConfig(E=(0.3, 0.1, -0.2), B=(0.5, -0.4, 0.2))
    swapped = FieldConfig(E=fields.B, B=tuple(-e for e in fields.E))
    assert vec_close(oracles.thomas_F_dual(beta, fields, 2.6),
                     oracles.thomas_F(beta, swapped, 2.6))


# The derived dirac-pauli spin Hamiltonian at target order T, read as floats
# on the particle block at Pi = gamma m c beta, is Sigma . W with
# W = -(hbar/2mc) (e F + et F_dual) through beta^(T-1): the law integrate runs.
PRECESSION_UNITS = {"hbar": 1.3, "c": 1.7, "m": 0.8, "e": 0.6, "et": -0.45}
PRECESSION_FIELDS = FieldConfig(E=(0.3, -0.2, 0.5), B=(-0.4, 0.25, 0.35))
PRECESSION_DIRECTION = (0.6, -0.48, 0.64)


def _particle_parts(result):
    """The particle-block (orbit, spin) parts of a run."""
    return tuple(map(al.project_particle_block, reduction.reduce_to_physical(result)))


@pytest.fixture(scope="module")
def particle_parts(pauli_result, pauli_result_8):
    """The particle-block parts of the dirac-pauli run, by target order."""
    return {6: _particle_parts(pauli_result), 8: _particle_parts(pauli_result_8)}


# Target order: the speeds whose errors are compared.  At order 8 the error
# at |beta| = 0.02 is already at the rounding floor, so it starts at 0.04.
PRECESSION_SPEEDS = {6: (0.02, 0.04, 0.08), 8: (0.04, 0.08)}


@pytest.mark.parametrize("ge, gte", [(2.0, 2.0), (3.0, 0.5), (2.0023, 3.0)])
def test_derived_spin_hamiltonian_runs_the_integrators_precession_law(particle_parts, ge, gte):
    u = PRECESSION_UNITS
    hbar, c, m, e, et = u["hbar"], u["c"], u["m"], u["e"], u["et"]
    symbols = dict(u, Eg=2 * m * c * c, mu=(ge / 2 - 1) * e * hbar * c,
                   d=(gte / 2 - 1) * et * hbar * c)

    def error(spin, speed):
        beta = tuple(speed * v for v in PRECESSION_DIRECTION)
        gamma = 1 / math.sqrt(1 - speed * speed)
        pi = tuple(gamma * m * c * b for b in beta)
        w = oracles.sigma_coefficients(spin, symbols, PRECESSION_FIELDS, pi)
        f = oracles.thomas_F(beta, PRECESSION_FIELDS, ge)
        f_dual = oracles.thomas_F_dual(beta, PRECESSION_FIELDS, gte)
        law = [-hbar / (2 * m * c) * (e * a + et * b) for a, b in zip(f, f_dual)]
        return max(abs(x - y) for x, y in zip(w, law))

    for order, speeds in PRECESSION_SPEEDS.items():
        errors = [error(particle_parts[order][1], speed) for speed in speeds]
        assert errors[0] < 1e-10, (order, errors)
        # halving |beta| divides the error by 2^T: the truncation is at beta^T.
        # The band is 2^T (1 -+ 1/16), 60..68 at T = 6 and 240..272 at T = 8;
        # the next power of beta lifts the measured ratios to 64.1-64.5 and 259.
        for fine, coarse in zip(errors, errors[1:]):
            assert 15 / 16 <= coarse / fine / 2**order <= 17 / 16, (order, errors)


def test_derived_dipoles_follow_their_closed_law(pauli_result):
    # At mu = d = 0 the derived spin part is -p.E - m.B with Sigma-vector
    # dipoles, so a unit field E = e_i (B = e_i) reads off -p_i (-m_i).  For
    # a spin along n, with rest moments mu_m = (e hbar/2mc) n and
    # mu_p = -(et hbar/2mc) n, they are boost_dipole's
    # p = mu_p/gamma + beta x mu_m/(gamma+1) and
    # m = mu_m/gamma - beta x mu_p/(gamma+1): time dilation and Thomas's factor.
    u = PRECESSION_UNITS
    hbar, c, m, e, et = u["hbar"], u["c"], u["m"], u["e"], u["et"]
    symbols = dict(u, Eg=2 * m * c * c, mu=0.0, d=0.0)
    _, particle_spin = _particle_parts(pauli_result)
    n = np.array([0.48, 0.6, -0.64])
    mu_m, mu_p = e * hbar / (2 * m * c) * n, -et * hbar / (2 * m * c) * n

    def error(speed):
        beta = speed * np.array(PRECESSION_DIRECTION)
        gamma = 1 / math.sqrt(1 - speed * speed)
        pi = tuple(gamma * m * c * beta)

        def dipole(kind):
            return np.array([-np.real(oracles.sigma_coefficients(
                particle_spin, symbols, FieldConfig(**{kind: unit}), pi)) @ n
                for unit in np.eye(3)])

        law_p, law_m = map(np.array, dyn.boost_dipole(tuple(mu_p), tuple(mu_m), tuple(beta)))
        return max(abs(dipole("E") - law_p).max(), abs(dipole("B") - law_m).max())

    errors = [error(speed) for speed in (0.02, 0.04, 0.08)]
    assert errors[0] < 1e-10
    # halving |beta| divides the error by 2^6: the truncation is at beta^6
    for fine, coarse in zip(errors, errors[1:]):
        assert 60 <= coarse / fine <= 68, errors


# Target order T: the speeds whose errors are compared, and the band of
# their ratio around 2^(T+2).  The next power of beta lifts the measured
# ratios to 260-273 at T = 6 and 1,112 at T = 8, so each band sits a little
# above its power of two.  Below |beta| = 0.08 the order-8 error is at the
# rounding floor, and from 0.16 to 0.32 its ratio reads 1,450, past the band.
ORBIT_BANDS = {6: ((0.04, 0.08, 0.16), 230, 290), 8: ((0.08, 0.16), 920, 1160)}


def test_derived_orbit_hamiltonian_is_the_integrators_free_energy(particle_parts):
    # The free part of the derived dirac-pauli orbit Hamiltonian (its terms
    # without a field atom or V), read at Pi = gamma m c beta, is
    # orbit_hamiltonian with no field at the origin: gamma m c^2.  At target
    # T the derived series goes through xi^T, so the error is beta^(T+2).
    u = PRECESSION_UNITS
    c, m = u["c"], u["m"]
    symbols = dict(u, Eg=2 * m * c * c, mu=0.3, d=-0.2)

    def error(orbit, speed):
        gamma = 1 / math.sqrt(1 - speed * speed)
        gamma_beta = tuple(gamma * speed * v for v in PRECESSION_DIRECTION)
        pi = tuple(m * c * v for v in gamma_beta)
        energy = oracles.orbit_hamiltonian(PhaseState(u=gamma_beta), FieldConfig(),
                                           ParticleParams(m=m), c)
        return abs(oracles.free_identity_coefficient(orbit, symbols, pi) - energy)

    for order, (speeds, low, high) in ORBIT_BANDS.items():
        errors = [error(particle_parts[order][0], speed) for speed in speeds]
        assert errors[0] < 1e-11, (order, errors)
        # doubling |beta| multiplies the error by about 2^(T+2)
        for fine, coarse in zip(errors, errors[1:]):
            assert low <= coarse / fine <= high, (order, errors)


# -- right-hand sides ---------------------------------------------------------

def test_spin_rhs_vanishes_when_aligned():
    fields = FieldConfig(B=(0, 0, 1.0))
    state = PhaseState(u=(0, 0, 0), s=(0, 0, 0.5))
    rhs = oracles.spin_rhs(state, fields, ParticleParams(e=1, ge=2))
    assert vec_close(rhs, (0, 0, 0))


def test_spin_rhs_rate_for_transverse_spin():
    fields = FieldConfig(B=(0, 0, 1.0))
    u = (0.6, 0, 0)
    gamma = math.sqrt(1 + 0.36)
    state = PhaseState(u=u, s=(1.0, 0, 0))
    rhs = oracles.spin_rhs(state, fields, ParticleParams(e=1, ge=2))
    assert abs(math.sqrt(sum(r * r for r in rhs)) - 1.0 / gamma) < 1e-12


def test_spin_rhs_neutral_particle():
    state = PhaseState(u=(0.3, 0, 0), s=(0, 1, 0))
    rhs = oracles.spin_rhs(state, FieldConfig(E=(1, 1, 1), B=(1, 1, 1)),
                           ParticleParams(e=0, etilde=0))
    assert vec_close(rhs, (0, 0, 0))


def test_orbit_rhs_electrostatic():
    rhs = oracles.orbit_rhs(PhaseState(), FieldConfig(E=(0.5, 0, 0)),
                            ParticleParams(m=2, e=1))
    assert vec_close(rhs, (0.25, 0, 0))


def test_orbit_rhs_dual_acceleration():
    rhs = oracles.orbit_rhs(PhaseState(), FieldConfig(B=(0, 0.7, 0)),
                            ParticleParams(m=1, e=0, etilde=2))
    assert vec_close(rhs, (0, 1.4, 0))


def test_orbit_rhs_cyclotron_rate():
    u = (1.0, 0, 0)
    gamma = math.sqrt(2)
    state = PhaseState(u=u)
    rhs = oracles.orbit_rhs(state, FieldConfig(B=(0, 0, 1.0)), ParticleParams(e=1))
    # |du/dt| = e B |beta_perp| / (m c) and direction is -y for B = +z
    assert vec_close(rhs, (0, -1 / gamma, 0), 1e-12)


# -- integration ---------------------------------------------------------------

def test_zero_fields_straight_line():
    state = PhaseState(u=(0.5, 0.2, -0.1), s=(0, 1, 0))
    traj = dyn.integrate(state, FieldConfig(), ParticleParams(e=1), dt=0.05,
                         steps=200)
    gamma = oracles.gamma(state)
    expected_x = tuple(0.05 * 200 * ui / gamma for ui in state.u)
    assert vec_close(tuple(traj.x[-1]), expected_x, 1e-9)
    assert np.allclose(traj.s, traj.s[0])
    assert np.allclose(traj.u, traj.u[0])


def test_integrate_rejects_bad_dt():
    # a neutral particle would return all-NaN samples, a charged one would
    # fail in the boost, and c = 0 would divide by zero
    for params in (ParticleParams(), ParticleParams(e=0)):
        for name, kwargs in (("dt", {"dt": 0.0}), ("dt", {"dt": -0.1}),
                             ("dt", {"dt": math.nan}), ("dt", {"dt": math.inf}),
                             ("c", {"dt": 0.1, "c": 0.0}),
                             ("c", {"dt": 0.1, "c": math.nan})):
            with pytest.raises(ValueError, match=f"^{name} must"):
                dyn.integrate(PhaseState(u=(1, 0, 0)), FieldConfig(), params,
                              steps=2, **kwargs)


@pytest.mark.parametrize("kwargs, name", [
    ({"steps": -1}, "steps"),
    ({"steps": 2.5}, "steps"),
    ({"steps": True}, "steps"),
    ({"steps": 3, "scheme": "euler"}, "scheme"),
    ({"steps": 3, "scheme": []}, "scheme"),
], ids=["negative-steps", "fractional-steps", "bool-steps", "unknown-scheme", "list-scheme"])
def test_integrate_rejects_bad_argument(kwargs, name):
    with pytest.raises(ValueError, match=name):
        dyn.integrate(PhaseState(), FieldConfig(), ParticleParams(), dt=0.1, **kwargs)


def test_cyclotron_orbit_radius_and_period():
    # exact helix: after one period the momentum returns to its start
    p = ParticleParams(m=1, e=1, ge=2)
    fields = FieldConfig(B=(0, 0, 1.0))
    gamma = math.sqrt(2.0)
    period = 2 * math.pi * gamma
    traj = dyn.integrate(PhaseState(u=(1.0, 0, 0)), fields, p,
                         dt=period / 256, steps=256)
    assert vec_close(tuple(traj.u[-1]), (1.0, 0, 0), 1e-9)
    # orbit radius = gamma beta m c / (e B) = |u|
    radii = np.sqrt((traj.x[:, 0] - 0) ** 2 + (traj.x[:, 1] + 1.0) ** 2)
    assert np.abs(radii - 1.0).max() < 1e-9


def test_helicity_conserved_for_g2_pure_b():
    p = ParticleParams(m=1, e=1, ge=2)
    fields = FieldConfig(B=(0, 0, 1.0))
    gamma = math.sqrt(2.0)
    state = PhaseState(u=(1.0, 0, 0), s=(math.sqrt(0.5), 0, math.sqrt(0.5)))
    traj = dyn.integrate(state, fields, p, dt=2 * math.pi * gamma / 200,
                         steps=200 * 50)
    assert np.abs(traj.helicity - traj.helicity[0]).max() < 1e-11


def test_anomalous_precession_rate():
    # relative spin-vs-momentum phase advance per turn: 2 pi gamma (g/2 - 1)
    g = 2.2
    p = ParticleParams(m=1, e=1, ge=g)
    fields = FieldConfig(B=(0, 0, 1.0))
    gamma = math.sqrt(2.0)
    period = 2 * math.pi * gamma
    steps = 400
    traj = dyn.integrate(PhaseState(u=(1.0, 0, 0), s=(1.0, 0, 0)), fields, p,
                         dt=period / steps, steps=steps)
    relative_phase = (np.unwrap(np.arctan2(traj.s[:, 1], traj.s[:, 0]))
                      - np.unwrap(np.arctan2(traj.u[:, 1], traj.u[:, 0])))
    relative = relative_phase[-1] - relative_phase[0]
    expected = 2 * math.pi * gamma * (g / 2 - 1)
    assert abs(abs(relative) - expected) / expected < 1e-9


def test_energy_conserved_in_crossed_fields_run():
    # E nonzero: energy includes the potential term and stays put
    p = ParticleParams(m=1, e=1, ge=2)
    fields = FieldConfig(E=(0.05, 0, 0), B=(0, 0, 1.0))
    traj = dyn.integrate(PhaseState(u=(0.5, 0, 0), s=(0, 0, 1)), fields, p,
                         dt=0.01, steps=5000)
    drift = np.abs(traj.energy - traj.energy[0]).max()
    assert drift < 1e-6


def test_rk4_scheme_available_and_consistent():
    p = ParticleParams(m=1, e=1, ge=2)
    fields = FieldConfig(B=(0, 0, 1.0))
    state = PhaseState(u=(1.0, 0, 0), s=(0, 0, 1.0))
    a = dyn.integrate(state, fields, p, dt=0.01, steps=100, scheme="rk4")
    b = dyn.integrate(state, fields, p, dt=0.01, steps=100, scheme="split")
    assert np.abs(a.u[-1] - b.u[-1]).max() < 1e-8


def _classical_rk4(state, fields, params, dt, steps, c):
    """Textbook RK4 on the per-state right-hand sides, with dx/dt = c u / gamma;
    returns the (t, x, u, s) of every sample."""
    def rates(u, s):
        st_ = PhaseState(u=u, s=s)
        g = oracles.gamma(st_)
        return (tuple(c * v / g for v in u), oracles.orbit_rhs(st_, fields, params, c),
                oracles.spin_rhs(st_, fields, params, c))

    def shifted(v, h, k):
        return tuple(vi + h * ki for vi, ki in zip(v, k))

    t, x, u, s = state.t, state.x, state.u, state.s
    samples = [(t, x, u, s)]
    for _ in range(steps):
        k1 = rates(u, s)
        k2 = rates(shifted(u, dt / 2, k1[1]), shifted(s, dt / 2, k1[2]))
        k3 = rates(shifted(u, dt / 2, k2[1]), shifted(s, dt / 2, k2[2]))
        k4 = rates(shifted(u, dt, k3[1]), shifted(s, dt, k3[2]))
        x, u, s = (tuple(vi + dt * ((a + 2 * b + 2 * c_ + d) / 6)
                         for vi, a, b, c_, d in zip(v, *ks))
                   for v, ks in zip((x, u, s), zip(k1, k2, k3, k4)))
        t += dt
        samples.append((t, x, u, s))
    return samples


_charges = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@settings(max_examples=60, deadline=None)
@given(e=_charges, et=_charges, m=st.floats(0.25, 4.0), ge=st.floats(-1.0, 5.0),
       gte=st.floats(-1.0, 5.0), E=_vectors, B=_vectors, x=_vectors, u=_vectors,
       s=_vectors, dt=st.floats(1e-3, 0.2), c=st.floats(0.25, 4.0),
       steps=st.integers(1, 4))
def test_rk4_scheme_is_classical_rk4_bit_for_bit(e, et, m, ge, gte, E, B, x, u, s, dt, c,
                                                 steps):
    params = ParticleParams(m=m, e=e, etilde=et, ge=ge, gte=gte)
    fields, state = FieldConfig(E=E, B=B), PhaseState(x=x, u=u, s=s)
    traj = dyn.integrate(state, fields, params, dt=dt, steps=steps, c=c, scheme="rk4")
    for k, (t, *vectors) in enumerate(_classical_rk4(state, fields, params, dt, steps, c)):
        # float.hex tells -0.0 from 0.0
        assert traj.t[k].hex() == t.hex()
        for got, want in zip((traj.x[k], traj.u[k], traj.s[k]), vectors):
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want], k


def test_times_add_dt_in_step_order_across_blocks():
    # t[k] = t[k - 1] + dt, one rounding per step, from a start time that is
    # not zero and across the seam between two blocks of rows
    steps = dyn._BLOCK_CHUNKS * dyn._CHUNK_ROWS + 3
    traj = dyn.integrate(PhaseState(u=(0.5, 0, 0), t=3.7), FieldConfig(), ParticleParams(),
                         dt=0.1, steps=steps)
    t, want = 3.7, [3.7]
    for _ in range(steps):
        t += 0.1
        want.append(t)
    assert traj.t.tolist() == want


@pytest.mark.parametrize("build, name", [
    (lambda: FieldConfig(B=(0, 0, 1, 7)), "B"),
    (lambda: FieldConfig(E=(0.1, 0)), "E"),
    (lambda: PhaseState(u=(0.1, 0)), "u"),
    (lambda: PhaseState(x=(0, 0, 0, 0)), "x"),
    (lambda: PhaseState(s=(1.0,)), "s"),
    (lambda: dyn.boost_dipole((1, 0, 0, 5), (0, 0, 0), (0.1, 0, 0)), "mu_p"),
    (lambda: dyn.boost_dipole((1, 0, 0), (0, 0), (0.1, 0, 0)), "mu_m"),
    (lambda: dyn.boost_dipole((1, 0, 0), (0, 0, 0), (0.1, 0, 0, 0)), "beta"),
], ids=["field-B-long", "field-E-short", "state-u-short", "state-x-long", "state-s-short",
        "dipole-mu_p-long", "dipole-mu_m-short", "dipole-beta-long"])
def test_vectors_must_be_three_numbers(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be three numbers"):
        build()


# A dyon with both charges, anomalous moments and both fields non-zero, so
# the stepper's dual-field coupling runs.
DYON = {"particle": {"m": 1.5, "e": 1, "etilde": 0.4, "ge": 2.2, "gte": 1.6},
        "fields": {"E": [0.05, -0.02, 0.03], "B": [0.1, 0.2, 1.0]},
        "init": {"x": [0.1, -0.2, 0.3], "u": [0.3, 0.5, -0.2], "s": [0.6, 0, 0.8]},
        "run": {"dt": 0.02, "steps": 2000}}
# Pure E field and no magnetic charge: the magnetic-type rotation is zero.
PURE_E = {"particle": {"m": 1, "e": 1, "etilde": 0, "ge": 2.2, "gte": 2},
          "fields": {"E": [0.1, 0.05, 0], "B": [0, 0, 0]},
          "init": {"u": [0.2, 0, 0.1], "s": [0, 1, 0]},
          "run": {"dt": 0.02, "steps": 2000}}
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# sha256 of the CSV and of the sorted-key JSON summary without "out", as
# written by the integrator that stepped PhaseState objects, which the tuple
# loop replaced.  Recorded on x86-64 with glibc's libm: math.sin/cos from
# another libm may differ in the last bit.
GOLDEN = {
    ("anomalous", "split"): ("fcb6efa58b571e7b5454922a3bcbebb94d4df0569842c1255112235d87c3c4fd",
                             "e942976ce86dfae737b313ffcb46a25fbe1b71857ada9ad97b9f53f8a95295a5"),
    ("anomalous", "rk4"): ("f25b70e58906d8a0370338fea571ca31094c14b5d0a61d1d268ab1df90e3fa72",
                           "012829bf9e144ed899b87d11d17333ba615891a009215c34c8d6681b65906fae"),
    ("dyon", "split"): ("5893fbd4b5dc34ffaa1239e47b54a3a508f406b3c37289d1bb7469a94961a4e5",
                        "56a0e1cb26c1d03a3098880144154b3bd268d40610d011d24696297c34ee2c47"),
    ("dyon", "rk4"): ("631438b5bc4fd37ab043419b7a2106b3c49756d86f73c130df6e389942212417",
                      "00fc4067c9afad29ff8f23e0a51ae712cc616503a06e84d2ce1457ed8c92b7f1"),
    ("pure-E", "split"): ("27d34366872b25819b700d3855f43afe4aeef4c415213563373f004cd63dd996",
                          "0fbfc6c60d6f0d6210b18c15a80618b0c57772552c332a847c9c061c7235c074"),
    ("pure-E", "rk4"): ("c79864332a78d79b8e2a4efbdaa2664ca2b74293e490d49c583b65ac796f5f00",
                        "7b808ae9ceab74774997621531176b21b5050da0956e311cbfff51853b474823"),
}


@pytest.mark.parametrize("name, scheme", sorted(GOLDEN))
def test_simulate_output_matches_golden_digests(tmp_path, capsys, name, scheme):
    scenario = {"anomalous": json.loads((SCENARIOS / "anomalous_precession.json").read_text()),
                "dyon": DYON, "pure-E": PURE_E}[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(scenario, run=dict(scenario["run"], scheme=scheme))))
    out_csv = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_csv)]) == 0
    summary = json.loads(capsys.readouterr().out)
    del summary["out"]
    digests = (hashlib.sha256(out_csv.read_bytes()).hexdigest(),
               hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest())
    assert digests == GOLDEN[name, scheme]


# The DYON scenario as objects.
DYON_PARAMS = ParticleParams(m=Fraction(3, 2), e=1, etilde=Fraction(2, 5),
                             ge=Fraction(11, 5), gte=Fraction(8, 5))
DYON_FIELDS = FieldConfig(E=(0.05, -0.02, 0.03), B=(0.1, 0.2, 1.0))
DYON_STATE = PhaseState(x=(0.1, -0.2, 0.3), u=(0.3, 0.5, -0.2), s=(0.6, 0, 0.8))


@pytest.mark.parametrize("scheme, digest", [
    ("split", "f543a3098fbce6392cf6b133f08949991fb1f466a978d7cb44f19c8144298a9d"),
    ("rk4", "81286a6cd2a41db1dd8293c8068364783a8818f479934ba8184cd6050bd52be0"),
], ids=["split", "rk4"])
def test_integrate_with_c_not_one_matches_golden_digest(scheme, digest):
    # The CLI runs at c = 1, where (gamma m) c and gamma (m c) coincide.
    traj = dyn.integrate(DYON_STATE, DYON_FIELDS, DYON_PARAMS, dt=0.02, steps=500,
                         c=0.7, scheme=scheme)
    data = np.concatenate([traj.t, traj.x.ravel(), traj.u.ravel(), traj.s.ravel(),
                           traj.helicity, traj.energy])
    assert hashlib.sha256(data.astype("<f8").tobytes()).hexdigest() == digest


def test_derived_columns_equal_the_per_state_formulas():
    traj = dyn.integrate(DYON_STATE, DYON_FIELDS, DYON_PARAMS, dt=0.02, steps=300)
    for k in range(len(traj)):
        st = PhaseState(x=tuple(traj.x[k]), u=tuple(traj.u[k]), s=tuple(traj.s[k]))
        assert traj.helicity[k] == oracles.helicity(st)
        assert traj.energy[k] == oracles.orbit_hamiltonian(st, DYON_FIELDS, DYON_PARAMS)
    at_rest = dyn.integrate(PhaseState(s=(-0.6, 0, 0.8)), FieldConfig(), DYON_PARAMS,
                            dt=0.1, steps=2)
    assert at_rest.helicity.tolist() == [0.0, 0.0, 0.0]
    assert all(math.copysign(1.0, h) == 1.0 for h in at_rest.helicity)


def test_duality_map_leaves_the_trajectory_unchanged():
    # E -> B, B -> -E, e -> et, et -> -e, ge <-> gte is a symmetry of the
    # orbit force, the precession and the energy.
    p = DYON_PARAMS
    dual_p = ParticleParams(m=p.m, e=p.etilde, etilde=-p.e, ge=p.gte, gte=p.ge)
    dual_fields = FieldConfig(E=DYON_FIELDS.B, B=tuple(-v for v in DYON_FIELDS.E))
    a = dyn.integrate(DYON_STATE, DYON_FIELDS, p, dt=0.02, steps=2000)
    b = dyn.integrate(DYON_STATE, dual_fields, dual_p, dt=0.02, steps=2000)
    for k in range(len(a)):
        for name in ("x", "u", "s"):
            assert vec_close(getattr(a, name)[k], getattr(b, name)[k], 1e-12), (k, name)
    assert np.abs(a.energy - b.energy).max() <= 1e-12


def test_drifts_equal_the_whole_array_formulas():
    traj = dyn.integrate(DYON_STATE, DYON_FIELDS, DYON_PARAMS, dt=0.02, steps=3000)
    smag = (traj.s ** 2).sum(axis=1) ** 0.5
    assert traj.drifts() == {
        "helicity_drift": float(abs(traj.helicity - traj.helicity[0]).max()),
        "spin_norm_drift": float(abs(smag - smag[0]).max()),
        "energy_drift": float(abs(traj.energy - traj.energy[0]).max()),
    }


@pytest.mark.parametrize("column", ["helicity", "s", "energy"])
def test_drifts_see_a_nan_in_the_last_block(column):
    n = 2500
    traj = dyn.Trajectory(t=np.arange(n, dtype=float), x=np.zeros((n, 3)),
                          u=np.zeros((n, 3)), s=np.tile([0.6, 0.0, 0.8], (n, 1)),
                          helicity=np.zeros(n), energy=np.ones(n))
    getattr(traj, column)[-1] = math.nan
    drifts = traj.drifts()
    drift = {"helicity": "helicity_drift", "s": "spin_norm_drift",
             "energy": "energy_drift"}[column]
    assert math.isnan(drifts[drift])
    assert all(v == 0.0 for k, v in drifts.items() if k != drift)


def test_trajectory_needs_an_energy_column():
    n = 3
    with pytest.raises(TypeError, match="energy"):
        dyn.Trajectory(t=np.arange(n, dtype=float), x=np.zeros((n, 3)), u=np.zeros((n, 3)),
                       s=np.zeros((n, 3)), helicity=np.zeros(n))


def _awkward_table(n):
    """An n-row trajectory cycling through values whose repr is easy to get
    wrong: a negative zero, the smallest subnormal and an exponent form."""
    values = [-0.0, 1e-05, 1e16, 5e-324, 1.0]

    def column(offset, width=None):
        flat = [values[(offset + i) % len(values)] for i in range(n * (width or 1))]
        return np.array(flat).reshape(n, width) if width else np.array(flat)

    return dyn.Trajectory(t=column(0), x=column(1, 3), u=column(2, 3), s=column(3, 3),
                          helicity=column(4), energy=column(0))


def _naive_csv(traj) -> str:
    lines = ["t,x,y,z,ux,uy,uz,sx,sy,sz,helicity\n"]
    for k in range(len(traj)):
        row = [traj.t[k], *traj.x[k], *traj.u[k], *traj.s[k], traj.helicity[k]]
        lines.append(",".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("n", [1, 1024, 1025])
def test_write_csv_equals_one_repr_per_value(tmp_path, n):
    # n = 1 is a steps = 0 run; 1024 rows fill one formatting chunk exactly
    # and 1025 spill one row into a second.
    traj = _awkward_table(n)
    traj.write_csv(tmp_path / "chunked.csv")
    written = (tmp_path / "chunked.csv").read_text()
    assert written == _naive_csv(traj)
    assert written.count("\n") == n + 1
    assert "-0.0" in written and "5e-324" in written and "1e+16" in written


# Three whole blocks, then two whole chunks and a short one.
STREAMED_STEPS = 3 * dyn._BLOCK_CHUNKS * dyn._CHUNK_ROWS + 2 * dyn._CHUNK_ROWS + 300


def _dyon_config(directory, steps):
    cfg = directory / "cfg.json"
    cfg.write_text(json.dumps(dict(DYON, run=dict(DYON["run"], steps=steps))))
    return cfg


def _simulate(cfg, capsys):
    """simulate's exit code, stdout JSON and CSV path for the config cfg."""
    out_csv = cfg.with_name("traj.csv")
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(out_csv)])
    return code, json.loads(capsys.readouterr().out), out_csv


@pytest.fixture(scope="module")
def streamed_run(tmp_path_factory):
    """The DYON config with STREAMED_STEPS steps, its integrate result and
    that result's one-repr-per-value CSV."""
    cfg = _dyon_config(tmp_path_factory.mktemp("streamed"), STREAMED_STEPS)
    params, fields, state, run = dyn.load_scenario(cfg)
    traj = dyn.integrate(state, fields, params, **run)
    return cfg, traj, _naive_csv(traj)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_streamed_csv_equals_the_whole_table_write(tmp_path, monkeypatch, capsys, helper_forks,
                                                   streamed_run, cpus):
    cfg, traj, naive = streamed_run
    monkeypatch.setattr(dyn, "_usable_cpus", lambda: cpus)
    code, summary, out_csv = _simulate(cfg, capsys)
    assert code == 0 and summary["samples"] == STREAMED_STEPS + 1
    # A helper per block: three whole ones and the three-chunk tail.
    assert helper_forks["forks"] == 3 + 1
    assert helper_forks["most_alive"] <= cpus
    traj.write_csv(tmp_path / "whole.csv")
    assert out_csv.read_bytes() == (tmp_path / "whole.csv").read_bytes() == naive.encode()


def test_streamed_csv_of_no_step_is_the_start_row(tmp_path, capsys, helper_forks):
    code, summary, out_csv = _simulate(_dyon_config(tmp_path, 0), capsys)
    assert code == 0 and summary["samples"] == 1
    assert helper_forks["forks"] == 1
    traj = dyn.integrate(DYON_STATE, DYON_FIELDS, DYON_PARAMS, dt=0.02, steps=0)
    assert out_csv.read_text() == _naive_csv(traj)


# -- dipole boosts -------------------------------------------------------------

def test_boost_dipole_identity_at_rest():
    mu_p, mu_m = (0.1, 0.2, 0.3), (-0.3, 0.2, 0.4)
    out_p, out_m = dyn.boost_dipole(mu_p, mu_m, (0, 0, 0))
    assert vec_close(out_p, mu_p) and vec_close(out_m, mu_m)


@pytest.mark.parametrize("mu_p, mu_m, p, m", [
    ((0, 0.2, 0), (0, 0, 0), (0, 0.16, 0), (0, 0, -0.16 / 3)),
    ((0, 0, 0), (0, 0, 0.3), (0, -0.08, 0), (0, 0, 0.24)),
], ids=["electric", "magnetic"])
def test_boost_dipole_hand_values(mu_p, mu_m, p, m):
    # beta = 0.6 x: gamma = 1.25, so 1/gamma = 0.8 and 1/(gamma + 1) = 4/9
    out_p, out_m = dyn.boost_dipole(mu_p, mu_m, (0.6, 0, 0))
    assert vec_close(out_p, p) and vec_close(out_m, m)


def test_boost_rejects_superluminal():
    with pytest.raises(ValueError):
        dyn.boost_dipole((1, 0, 0), (0, 0, 0), (0, 1.0, 0))


# -- scenario io ----------------------------------------------------------------

def test_scenario_roundtrip(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("""{
      "particle": {"m": 1, "e": 1, "etilde": 0, "ge": 2, "gte": 2},
      "fields": {"B": [0, 0, 1]},
      "init": {"u": [0.5, 0, 0], "s": [0, 0, 1]},
      "run": {"dt": 0.01, "steps": 10}
    }""")
    params, fields, state, run = dyn.load_scenario(cfg)
    assert params.e == 1 and params.etilde == 0
    assert fields.B == (0, 0, 1) and fields.E == (0, 0, 0)
    assert state.u == (0.5, 0, 0)
    traj = dyn.integrate(state, fields, params, dt=run["dt"], steps=run["steps"])
    out = tmp_path / "out.csv"
    traj.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,z,ux,uy,uz,sx,sy,sz,helicity"
    assert len(lines) == 12
