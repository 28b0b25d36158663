"""Fixture storage of the closed-form targets."""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dyonfw import algebra as al
from dyonfw import catalog as cat_mod
from dyonfw import fw
from dyonfw import hamiltonians as ham
from dyonfw import reduction

import oracles
from test_algebra import _raw_keys


def test_shipped_fixtures_match_builders(catalog):
    loaded = cat_mod.ReferenceCatalog.load()
    assert set(loaded.entries) == set(catalog.entries)
    for key in catalog.entries:
        assert loaded[key] == catalog[key], key


def test_rebuilt_catalog_file_is_byte_identical(tmp_path, catalog):
    packaged = Path(cat_mod.__file__).parent / "fixtures" / "catalog.json"
    assert catalog.save(tmp_path).read_bytes() == packaged.read_bytes()


_expressions = st.dictionaries(
    _raw_keys, st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3))),
    max_size=3).map(al.Expression)

# Beside the keys load requires, every catalog holds the zero expression and
# unit terms (an empty dim and an empty word) entered with all four phases;
# the canonical form keeps +1 and +i, with the sign in the coefficient.
_FIXED_ENTRIES = {
    "zero": al.Expression.zero(),
    "phases": al.Expression({(al.DIM_ZERO, mat, ip, ()): c for mat in (al.ID_MAT, al.BETA_MAT)
                             for ip, c in enumerate(map(Fraction, ("-3/2", "5/7", "1/3", "-2")))}),
}


@settings(max_examples=100, deadline=None)
@given(st.lists(_expressions, min_size=1, max_size=4),
       st.dictionaries(st.text(max_size=8), _expressions, max_size=2))
def test_save_writes_the_stdlib_encoders_text(required, extra):
    entries = {**extra, **_FIXED_ENTRIES,
               **{key: required[k % len(required)]
                  for k, key in enumerate(cat_mod.FW_KEYS + cat_mod.PHYSICAL_KEYS)}}
    payload = {"version": cat_mod.FIXTURES_VERSION,
               "entries": {key: al.to_json_dict(e) for key, e in entries.items()}}
    with tempfile.TemporaryDirectory() as directory:
        path = cat_mod.ReferenceCatalog(entries).save(directory)
        assert path.read_bytes() == json.dumps(payload, indent=1, sort_keys=True).encode()
        assert cat_mod.ReferenceCatalog.load(directory).entries == entries
    for e in entries.values():
        assert al.to_json_text(e, 0) == json.dumps(al.to_json_dict(e), indent=1, sort_keys=True)


def test_save_load_roundtrip(tmp_path, catalog):
    catalog.save(tmp_path)
    loaded = cat_mod.ReferenceCatalog.load(tmp_path)
    assert all(loaded[k] == catalog[k] for k in catalog.entries)


def test_env_override(tmp_path, monkeypatch, catalog):
    catalog.save(tmp_path)
    monkeypatch.setenv(cat_mod.FIXTURES_ENV, str(tmp_path))
    assert cat_mod.fixtures_dir() == tmp_path
    loaded = cat_mod.ReferenceCatalog.load()
    assert loaded["fw_order_2"] == catalog["fw_order_2"]


def test_version_mismatch_rejected(tmp_path, catalog):
    catalog.save(tmp_path)
    data = json.loads((tmp_path / "catalog.json").read_text())
    data["version"] = 999
    (tmp_path / "catalog.json").write_text(json.dumps(data))
    with pytest.raises(ValueError):
        cat_mod.ReferenceCatalog.load(tmp_path)


def test_expected_keys_present(catalog):
    for key in cat_mod.FW_KEYS + cat_mod.PHYSICAL_KEYS:
        assert key in catalog


def test_entries_are_canonical_on_write(catalog):
    data = al.to_json_dict(catalog["fw_order_2"])
    words = [tuple(t["word"]) for t in data["terms"]]
    # canonical order: fields strictly before momentum atoms in every word
    for word in words:
        seen_pi = False
        for atom in word:
            if atom.startswith("P"):
                seen_pi = True
            else:
                assert not seen_pi


def test_raw_even_slices_reproduce_the_dirac_pauli_pipeline(pauli_result):
    # the loop that builds the Dirac entries, fed the Dirac-Pauli operators,
    # must give every term of the staged run, multi-field terms included
    split = fw.split_even_odd(ham.build_dirac_pauli_hamiltonian(ham.GENERIC_DYON))
    slices = cat_mod.raw_even_slices(split.odd, split.even)
    assert sorted(slices) == [1, 2, 3, 4, 5, 6]
    for n, derived in pauli_result.even_slices.items():
        assert slices[n] == derived, f"order {n}"
    assert any(oracles.field_degree(key[3]) >= 2 for key in slices[6].terms)


def test_build_makes_the_first_stage_forms_once(monkeypatch):
    calls = []
    forms = cat_mod.first_stage_forms
    monkeypatch.setattr(cat_mod, "first_stage_forms",
                        lambda *ops: calls.append(ops) or forms(*ops))
    cat_mod.ReferenceCatalog.build()
    assert len(calls) == 1


def test_first_stage_forms_reject_a_negative_order():
    below = al.Expression.term(1, word=(al.VPOT,), dims=al.dim(Eg=1))
    with pytest.raises(ValueError, match="negative 1/Eg order"):
        cat_mod.first_stage_forms(ham.omega_odd(), below)


def test_physical_entries_are_lifts_of_the_classical_hamiltonian():
    # on the frozen fixture: each weak-field entry is its particle block with
    # beta put back on every term whose power of m is odd, physical order n
    # is the m^-n slice, and the entries with a spin or orbit of their own
    # add up to the classical Hamiltonian
    m = al.DIM_NAMES.index("m")
    loaded = cat_mod.ReferenceCatalog.load()
    for key in cat_mod.PHYSICAL_KEYS:
        block = al.project_particle_block(loaded[key])
        lifted = al.Expression({
            (dims, al.mat_code(3, al.mat_parts(mat)[1]) if dims[m] % 2 else mat, ip, word): val
            for (dims, mat, ip, word), val in block.terms.items()})
        assert lifted == loaded[key], key
    for n in range(1, cat_mod.MAX_ORDER + 1):
        assert {-key[0][m] for key in loaded[f"physical_order_{n}"].terms} == {n}
    whole = al.linear_combination((1, loaded[key]) for key in (
        "kinetic_energy", "spin_dipole", "anomalous_static", "anomalous_cross"))
    assert al.project_particle_block(whole) == reduction.classical_hamiltonian(cat_mod.MAX_ORDER)
