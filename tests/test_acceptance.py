"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion; any assertion failure marks the criterion red.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from dyonfw import algebra as al
from dyonfw import catalog as cat_mod
from dyonfw import checks
from dyonfw import dynamics as dyn
from dyonfw import fw
from dyonfw import hamiltonians as ham
from dyonfw import reduction

import oracles


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


def _assert_all_passed(results):
    assert results
    for check in results:
        assert check["passed"], check


def test_criterion_1_fw_order_exactness(catalog):
    start = time.perf_counter()
    h = ham.build_dirac_hamiltonian(ham.ParticleParams(e=1, etilde=1))
    result = fw.fw_run(h, cat_mod.MAX_ORDER, model="dirac")
    elapsed = time.perf_counter() - start
    assert sorted(result.even_slices) == [1, 2, 3, 4, 5, 6]
    for n, derived in result.even_slices.items():
        assert derived == catalog[f"fw_order_{n}"], f"order {n} residual"

    # the order-3 display -beta Omega^4 + beta (beta D)(beta D), restated inline
    omega = ham.omega_odd()
    d_op = al.commutator(omega, ham.omega_even())
    w_op = al.commutator(d_op, omega)
    beta = al.Expression.term(1, mat=al.BETA_MAT)
    beta_d = al.mul(beta, d_op)
    omega2 = al.mul(omega, omega)
    order3 = (al.mul(beta, al.mul(omega2, omega2)).scale(-1)
              + al.mul(beta, al.mul(beta_d, beta_d))).scale(1, dims=al.dim(Eg=-3))
    assert result.even_slices[3] == order3

    # the 1/24 and 4/3 prefactors at order 4
    omega3 = al.mul(omega2, omega)
    order4 = (al.commutator(al.commutator(omega, w_op), omega).scale(Fraction(1, 24))
              - al.commutator(d_op, omega3).scale(Fraction(4, 3))
              ).scale(1, dims=al.dim(Eg=-4))
    assert result.even_slices[4] == order4

    # the 1/144 and 1/720 prefactors on the nested chains at orders 5 and 6
    beta_omega = al.mul(beta, omega)
    chain5 = oracles.nested_commutator(beta_omega, omega, 5).scale(
        Fraction(1, 144), dims=al.dim(Eg=-5))
    assert al.order_slice(result.stages[0].even, 5) == chain5
    chain6 = oracles.nested_commutator(beta_omega, ham.omega_even(), 6).scale(
        Fraction(1, 720), dims=al.dim(Eg=-6))
    assert al.order_slice(result.stages[0].even, 6) == chain6
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, f"six exact zero diffs in {elapsed:.1f}s "
               "(order-3 display, 1/24, 4/3, 1/144, 1/720 coefficients included)")


def test_criterion_2_physical_reduction(dirac_result, catalog):
    _assert_all_passed(checks.fw_checks(catalog, None))
    physical = reduction.physical_orders(dirac_result)

    # order 4 is the -(3/4)(|Pi|/mc)^2 rescaling of order 2
    rel = physical[4] + al.truncate_fields(
        al.mul(ham.pi_squared(1), physical[2])).scale(Fraction(3, 4), dims=al.dim(m=-2, c=-2))
    assert rel.is_zero()

    # order 5 aggregates to exactly 2 * beta * Omega^6 / Eg^5
    assert Fraction(32, 144) + Fraction(16, 9) == 2
    omega = ham.omega_odd()
    omega2 = al.mul(omega, omega)
    omega6 = al.mul(al.mul(omega2, omega2), omega2)
    assert physical[5] == reduction.physicalize(
        al.mul(al.Expression.term(2, mat=al.BETA_MAT, dims=al.dim(Eg=-5)), omega6))

    # order 6 aggregates to exactly 5 c^4 |Pi|^4 W / Eg^6
    assert Fraction(16, 720) + Fraction(64, 45) + Fraction(32, 9) == 5
    w_op = al.commutator(al.commutator(omega, ham.omega_even()), omega)
    assert physical[6] == reduction.physicalize(
        al.mul(ham.pi_squared(2).scale(1, dims=al.dim(c=4)), w_op).scale(
            5, dims=al.dim(Eg=-6)))

    orbit, spin = reduction.reduce_to_physical(dirac_result)  # no residue
    assert orbit == catalog["kinetic_energy"] + ham.potential()
    assert spin == catalog["spin_dipole"]
    _report(2, "all six closed forms reproduced with zero residue")


def test_criterion_3_emergent_reduction_identities():
    _assert_all_passed(checks.appendix_b_checks())
    _report(3, "sandwich identity (with its minus sign) and symmetric identity "
               "emerge from ordering + truncation alone")


def test_criterion_4_stage_stability_lemmas(dirac_result, pauli_result):
    for result in (dirac_result, pauli_result):
        _, stage2, stage3 = result.stages
        # residual odd part of stage 2 vanishes at orders 1 and 2, but not
        # altogether
        assert al.order_slice(stage2.odd, 1).is_zero()
        assert al.order_slice(stage2.odd, 2).is_zero()
        assert not stage2.odd.is_zero()
        # stage-3 residual starts at order 4
        for n in (1, 2, 3):
            assert al.order_slice(stage3.odd, n).is_zero()
        # even slices unchanged by the third stage, order by order
        for n in range(0, 7):
            assert al.order_slice(stage3.even, n) == al.order_slice(stage2.even, n)
    _report(4, "stage-2 odd part starts at order 3, stage-3 at order 4, and "
               "the even slices are stable through order 6 (both models)")


def test_criterion_5_anomalous_moment_forms(pauli_result, catalog):
    _assert_all_passed(checks.pauli_checks(pauli_result, catalog))
    _report(5, "anomalous closed forms exact, vanish at g = 2, and the "
               "combined spin Hamiltonian matches the classical one through "
               "fifth order in the boost speed for every (ge, gte)")


def test_criterion_6_series_identities():
    _assert_all_passed(checks.series_checks())
    intrinsic, boosted, gamma_rep = reduction.series_check()
    assert intrinsic.derived == (1, 0, Fraction(-1, 2), 0, Fraction(-1, 8))
    assert boosted.derived == (0, Fraction(1, 2), 0, Fraction(-1, 8), 0,
                               Fraction(-1, 16))
    assert gamma_rep.derived == (1, 0, Fraction(1, 2), 0, Fraction(3, 8), 0,
                                 Fraction(5, 16))
    _report(6, "boost-speed expansions match to degrees 4, 5 and 6 with exact "
               "rational coefficients")


def test_criterion_7_numeric_cross_check():
    start = time.perf_counter()
    params = ham.ParticleParams(m=1, e=1, ge=2)
    fields = dyn.FieldConfig(B=(0.0, 0.0, 1.0))
    gamma = math.sqrt(2.0)
    period = 2 * math.pi * gamma
    state = dyn.PhaseState(u=(1.0, 0.0, 0.0),
                           s=(math.sqrt(0.5), 0.0, math.sqrt(0.5)))
    traj = dyn.integrate(state, fields, params, dt=period / 200,
                         steps=200 * 1000)
    smag = np.sqrt((traj.s ** 2).sum(axis=1))
    helicity_drift = np.abs(traj.helicity - traj.helicity[0]).max()
    spin_drift = np.abs(smag - smag[0]).max()
    energy_drift = np.abs(traj.energy - traj.energy[0]).max()
    assert helicity_drift < 1e-9, helicity_drift
    assert spin_drift < 1e-10, spin_drift
    assert energy_drift < 1e-9, energy_drift

    g = 2.2
    steps = 200
    traj2 = dyn.integrate(dyn.PhaseState(u=(1.0, 0, 0), s=(1.0, 0, 0)), fields,
                          ham.ParticleParams(m=1, e=1, ge=g),
                          dt=period / steps, steps=steps)
    phi_u = np.unwrap(np.arctan2(traj2.u[:, 1], traj2.u[:, 0]))
    phi_s = np.unwrap(np.arctan2(traj2.s[:, 1], traj2.s[:, 0]))
    relative = abs((phi_s - phi_u)[-1] - (phi_s - phi_u)[0])
    expected = 2 * math.pi * gamma * (g / 2 - 1)
    assert abs(relative - expected) / expected < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(7, f"drifts: helicity {helicity_drift:.1e}, |s| {spin_drift:.1e}, "
               f"energy {energy_drift:.1e}; anomalous precession per turn "
               f"within {abs(relative-expected)/expected:.1e} ({elapsed:.1f}s)")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(0x5EED)
    for trial in range(1000):
        raw = [oracles.random_raw_term(rng, max_atoms=5, max_basis=3)
               for _ in range(rng.randint(1, 2))]
        engine = al.Expression.zero()
        for r in raw:
            engine = engine + oracles.engine_term_from_raw(r)
        assert oracles.matrices_equal(
            oracles.expand(raw), oracles.expression_to_matrices(engine)), trial

    count = 0
    for m1, row in enumerate(al.MAT_TABLE):
        for m2, (mat, ip) in enumerate(row):
            lhs = oracles.to_numeric(*al.mat_parts(mat), 1j ** ip)
            rhs = oracles.to_numeric(*al.mat_parts(m1)) @ oracles.to_numeric(*al.mat_parts(m2))
            assert np.array_equal(lhs, rhs)
            count += 1
    assert count == 256
    _report(8, "1000 randomized expressions agree with the brute-force "
               "expander; all 256 basis products agree with the numeric "
               "representation")
