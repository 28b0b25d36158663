"""Staged transformation: conjugation mechanics, slice identities, stability."""

from collections import Counter
from fractions import Fraction

import pytest

from dyonfw import algebra as al
from dyonfw import catalog as cat_mod
from dyonfw import hamiltonians as ham
from dyonfw import checks, fw
from dyonfw.fw import PipelineError, bch_conjugate
from dyonfw.series import SeriesPoly

import oracles


def _beta():
    return al.Expression.term(1, mat=al.BETA_MAT)


def _hamiltonian(model):
    return (ham.build_dirac_hamiltonian if model == "dirac"
            else ham.build_dirac_pauli_hamiltonian)(ham.GENERIC_DYON)


def test_bch_requires_anti_hermitian_generator():
    omega = ham.omega_odd()  # Hermitian, not anti-Hermitian
    with pytest.raises(PipelineError):
        bch_conjugate(omega.scale(1, dims=al.dim(Eg=-1)), omega, 4)


def test_bch_guards_read_a_packed_generator():
    """Generators built by a product, checked against dict reads of their
    views: one-atom words reverse to themselves, so the adjoint of a term
    only conjugates its phase."""
    omega = ham.omega_odd()
    gap = al.Expression.term(1, dims=al.dim(Eg=-1))
    hermitian = al.mul(gap, omega)  # Hermitian, not anti-Hermitian
    order_zero = al.mul(_beta(), omega)  # anti-Hermitian, at order 0
    for s, sign in ((hermitian, 1), (order_zero, -1)):
        assert all(len(key[3]) == 1 for key in s.terms)
        assert {key: (-c if key[2] else c) for key, c in s.terms.items()} == {
            key: sign * c for key, c in s.terms.items()}
    assert (min(map(oracles.eg_order, order_zero.terms)) == 0
            < min(map(oracles.eg_order, hermitian.terms)))
    for s, message in ((hermitian, "not anti-Hermitian"), (order_zero, "non-positive order")):
        with pytest.raises(PipelineError, match=message):
            bch_conjugate(s, omega, 4)


def _count_packing(monkeypatch):
    """Lists that record the size of every dict packed by the constructor and
    of every .terms view built, from now until monkeypatch.undo()."""
    packed, unpacked = [], []
    pack, unpack = al._grouped_numerators, al._ungrouped
    monkeypatch.setattr(al, "_grouped_numerators",
                        lambda items: packed.append(len(items)) or pack(items))
    monkeypatch.setattr(al, "_ungrouped", lambda groups, den: unpacked.append(
        sum(map(len, groups.values()))) or unpack(groups, den))
    return packed, unpacked


def test_bch_packs_only_its_input_and_unpacks_no_nesting(monkeypatch):
    """bch_conjugate, and a whole fw_run per model, pack no dict and build no
    .terms view; the slices of the run, read afterwards, are the pipeline's."""
    h = ham.build_dirac_hamiltonian(ham.GENERIC_DYON)
    s = fw.stage_generator(fw.split_even_odd(h).odd)
    packed, unpacked = _count_packing(monkeypatch)
    nestings = []
    commutator = al.commutator
    monkeypatch.setattr(al, "commutator",
                        lambda *args, **kwargs: nestings.append(1) or commutator(*args, **kwargs))
    out = bch_conjugate(s, h, 6)
    assert packed == unpacked == [] and len(nestings) > 3
    monkeypatch.undo()
    assert out == bch_conjugate(al.Expression(dict(s.terms)), h, 6)

    for model in ("dirac", "dirac-pauli"):
        h = _hamiltonian(model)
        packed, unpacked = _count_packing(monkeypatch)
        result = fw.fw_run(h, cat_mod.MAX_ORDER, model=model)
        monkeypatch.undo()
        assert packed == unpacked == []
        expected = checks.pipeline(model).even_slices
        assert all(result.even_slices[n].terms == expected[n].terms for n in range(1, 7))


# Per model: product calls, term pairs offered and term pairs within the
# order limit of one fw_run, as the benchmark's traced gate pins them.
_FW_PRODUCTS = {"dirac": (31, 22_091_772, 59_120),
                "dirac-pauli": (31, 163_081_196, 167_766)}


@pytest.mark.parametrize("model", ["dirac", "dirac-pauli"])
def test_fw_run_products_are_pinned(monkeypatch, model):
    """A fresh fw_run's products, counted from outside: a commutator is two
    products, a pair offered is one of len(a) * len(b), and a pair in order
    is one whose 1/Eg orders, read off the operands' views, sum to at most
    max_order (every pair, untruncated)."""
    counts = [0, 0, 0]

    def counted(product, n):
        def count(a, b, max_order=None):
            offered = in_order = len(a) * len(b)
            if max_order is not None:
                ha, hb = (Counter(map(oracles.eg_order, e.terms)) for e in (a, b))
                in_order = sum(na * nb for oa, na in ha.items() for ob, nb in hb.items()
                               if oa + ob <= max_order)
            for k, val in enumerate((n, n * offered, n * in_order)):
                counts[k] += val
            return product(a, b, max_order)
        return count

    monkeypatch.setattr(al, "mul", counted(al.mul, 1))
    monkeypatch.setattr(al, "commutator", counted(al.commutator, 2))
    fw.fw_run(_hamiltonian(model), cat_mod.MAX_ORDER, model=model)
    monkeypatch.undo()
    assert tuple(counts) == _FW_PRODUCTS[model]


@pytest.mark.parametrize("model", ["dirac", "dirac-pauli"])
def test_ordering_caches_never_see_a_field_atom(monkeypatch, model):
    """Field atoms live in the packed monomial, so every word the ordering
    tables are asked for holds V and Pi atoms only; fw_run is called afresh
    (checks.pipeline may already be cached) and its slices must not move."""
    asked = {"_order_vp": [], "_order_pair": []}

    def recorder(name):
        original = getattr(al, name)

        def record(*args):  # (word,) or (w1, w2, sigma)
            asked[name].append(args[0] + args[1] if len(args) == 3 else args[0])
            return original(*args)
        record.__wrapped__ = original.__wrapped__  # _order_pair reads _order_vp's
        monkeypatch.setattr(al, name, record)

    recorder("_order_vp")
    recorder("_order_pair")
    result = fw.fw_run(_hamiltonian(model), target_order=4, model=model)
    monkeypatch.undo()
    assert all(asked.values())
    assert all(min(w, default=al.VPOT) >= al.VPOT for words in asked.values() for w in words)
    expected = checks.pipeline(model).even_slices
    assert all(result.even_slices[n] == expected[n] for n in range(1, 5))


def test_bch_with_commuting_generator_is_identity():
    # S built from the potential commutes with a potential-only H
    s = al.Expression.term(1, word=(al.VPOT,), ip=1, dims=al.dim(Eg=-1))
    h = ham.potential()
    assert bch_conjugate(s, h, 6) == h


def test_stage1_even_slice_two_is_half_w(dirac_result):
    omega = ham.omega_odd()
    w_op = al.commutator(al.commutator(omega, ham.omega_even()), omega)
    expected = w_op.scale(Fraction(1, 2), dims=al.dim(Eg=-2))
    assert al.order_slice(dirac_result.stages[0].even, 2) == expected


@pytest.mark.parametrize("model", ["dirac", "dirac-pauli"])
def test_stage1_even_part_is_the_first_stage_forms(model):
    # sum_(n=0..6) h_n / Eg^n, truncated at order 6, is the stage-1 even part
    split = fw.split_even_odd(_hamiltonian(model))
    even, _ = cat_mod.first_stage_forms(split.odd, split.even)
    summed = al.linear_combination(
        (1, e.scale(1, dims=al.dim(Eg=-n))) for n, e in even.items())
    assert checks.pipeline(model).stages[0].even == al.truncate_order(summed, cat_mod.MAX_ORDER)


def test_stage1_odd_slices_match_reduced_forms(dirac_result):
    omega = ham.omega_odd()
    omega3 = al.mul(al.mul(omega, omega), omega)
    omega5 = al.mul(al.mul(omega3, omega), omega)
    d_op = al.commutator(omega, ham.omega_even())
    w_op = al.commutator(d_op, omega)
    beta = _beta()
    expected = {
        1: al.mul(beta, d_op).scale(1, dims=al.dim(Eg=-1)),
        2: omega3.scale(Fraction(-4, 3), dims=al.dim(Eg=-2)),
        3: al.mul(beta, al.commutator(omega, w_op)).scale(Fraction(1, 6),
                                                          dims=al.dim(Eg=-3)),
        4: omega5.scale(Fraction(8, 15), dims=al.dim(Eg=-4)),
    }
    for n, ref in expected.items():
        assert al.order_slice(dirac_result.stages[0].odd, n) == ref


def test_every_stage_hamiltonian_is_hermitian(dirac_result):
    for split in dirac_result.stages:
        total = split.mass + split.even + split.odd
        assert al.hermitian_conjugate(total) == total


def test_no_terms_beyond_target_order(dirac_result, pauli_result):
    for result in (dirac_result, pauli_result):
        for split in result.stages:
            for expr in (split.even, split.odd):
                assert all(oracles.eg_order(k) <= 6 for k in expr.terms)


@pytest.mark.parametrize("target", [6, 8])
def test_free_particle_reproduces_square_root_expansion(target):
    """Field-free case: the kinetic chain must match the Taylor series of
    sqrt(m^2 c^4 + c^2 |Pi|^2), computed by an independent series oracle:
    its coefficients at odd orders, no field-free part at even orders."""
    h = ham.build_dirac_hamiltonian(ham.ParticleParams(e=0, etilde=0))
    result = fw.fw_run(h, target, model="dirac")
    # sqrt(1 + x) coefficients around x = |xi|^2
    sqrt_series = (1 + SeriesPoly.x(8) ** 2).rsqrt().inverse()
    beta = _beta()
    for n in range(1, target + 1, 2):
        derived = al.Expression(
            {k: v for k, v in al.substitute_energy_gap(result.even_slices[n]).terms.items()
             if oracles.field_degree(k[3]) == 0})
        k = (n + 1) // 2
        coeff = sqrt_series[2 * k]
        expected = al.Expression(
            {key: v for key, v in
             al.mul(al.mul(beta, al.Expression.term(coeff, dims=al.dim(m=1, c=2))),
                    ham.pi_squared(k).scale(1, dims=al.dim(m=-2 * k, c=-2 * k))).terms.items()
             if oracles.field_degree(key[3]) == 0})
        assert derived == expected
    for n in range(2, target + 1, 2):
        assert al.Expression(
            {k: v for k, v in result.even_slices[n].terms.items()
             if oracles.field_degree(k[3]) == 0}).is_zero()


def test_mass_term_preserved(dirac_result):
    assert dirac_result.stages[-1].mass == ham.rest_mass_term()


def test_stage_table_violation_names_the_stage(monkeypatch):
    """Stage 2's residual odd part must start at order 3: an odd term at
    order 2 added to its result is named with the stage and the order."""
    conjugate, calls = fw.bch_conjugate, []

    def stage_two_adds_odd_order_two(s, h, max_order):
        calls.append(max_order)
        out = conjugate(s, h, max_order)
        return out + ham.omega_odd().scale(1, dims=al.dim(Eg=-2)) if len(calls) == 2 else out

    monkeypatch.setattr(fw, "bch_conjugate", stage_two_adds_odd_order_two)
    h = ham.build_dirac_hamiltonian(ham.GENERIC_DYON)
    with pytest.raises(PipelineError,
                       match=r"^stage-2 odd part starts at order 2, expected >= 3$"):
        fw.fw_run(h, target_order=3, model="dirac")


def test_even_slice_moved_by_stage_three_names_the_order(monkeypatch):
    """A last stage that moves an even slice is named in the error: stage 3
    at target 6, stage 4 at target 8."""
    conjugate = fw.bch_conjugate
    h = ham.build_dirac_hamiltonian(ham.ParticleParams(e=0, etilde=0))
    for target, stages in ((6, 3), (8, 4)):
        calls = []

        def last_stage_adds_order_five(s, h, max_order):
            out = conjugate(s, h, max_order)
            calls.append(max_order)
            if len(calls) == stages:
                out = out + al.Expression.term(1, word=(al.VPOT,), dims=al.dim(Eg=-5))
            return out

        monkeypatch.setattr(fw, "bch_conjugate", last_stage_adds_order_five)
        with pytest.raises(PipelineError,
                           match=rf"^stage-{stages} even slice at order 5 changed$"):
            fw.fw_run(h, target, model="dirac")


def test_zero_hamiltonian_runs_through_the_stage_loop():
    result = fw.fw_run(al.Expression.zero(), cat_mod.MAX_ORDER, model="dirac")
    assert len(result.stages) == 3
    assert sorted(result.even_slices) == [1, 2, 3, 4, 5, 6]
    assert all(e.is_zero() for e in result.even_slices.values())


def test_run_rejects_bad_order():
    """Target 0 is refused; target 7, past the shipped order, runs a fourth stage."""
    h = ham.build_dirac_hamiltonian(ham.ParticleParams(e=0, etilde=0))
    assert len(fw.fw_run(h, target_order=7, model="dirac").stages) == 4
    with pytest.raises(ValueError):
        fw.fw_run(h, target_order=0, model="dirac")


# Per model: the terms of the even slices 7 and 8 at target 8.
_ORDER_8_SLICE_TERMS = {"dirac": (1214, 2240), "dirac-pauli": (5394, 8984)}


@pytest.mark.parametrize("model", ["dirac", "dirac-pauli"])
def test_order_8_run_adds_a_fourth_stage_and_keeps_slices_one_to_six(request, model):
    """At target 8 the run has 4 stages whose odd parts start at 1, 3, 4, 5;
    its slices 1..6 are the target-6 run's, and slices 7 and 8 are pinned."""
    result = request.getfixturevalue("dirac_result_8" if model == "dirac" else "pauli_result_8")
    assert [al.min_order(split.odd) for split in result.stages] == [1, 3, 4, 5]
    expected = checks.pipeline(model).even_slices
    assert all(result.even_slices[n] == expected[n] for n in range(1, 7))
    assert (len(result.even_slices[7]), len(result.even_slices[8])) == _ORDER_8_SLICE_TERMS[model]
