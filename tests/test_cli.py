"""Command-line contract: flags, exit codes, deterministic output."""

import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from dyonfw import algebra as al
from dyonfw import checks, cli, reduction
from dyonfw import dynamics as dyn

EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "expected.json").read_text())

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_derive_json_contains_requested_orders(capsys):
    code, out = run_cli(capsys, "derive", "--model", "dirac", "--order", "2")
    assert code == 0
    data = json.loads(out)
    assert [o["order"] for o in data["orders"]] == [1, 2]
    assert data["orders"][0]["expression"]["terms"]


def test_derive_latex_second_order(capsys):
    code, out = run_cli(capsys, "derive", "--model", "dirac", "--order", "2",
                        "--format", "latex")
    assert code == 0
    data = json.loads(out)
    latex = data["orders"][1]["latex"]
    assert "E_g^{2}" in latex and "\\Sigma" in latex


def test_derive_rejects_out_of_range_order():
    for order in ("0", "7"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["derive", "--order", order])
        assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_series_check_passes(capsys):
    code, out = run_cli(capsys, "series-check")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and len(data["checks"]) == 3


def test_verify_appendix_b(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "appendixB")
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert {c["name"] for c in data["checks"]} == {
        "sandwich_reduces_with_minus_sign", "symmetric_product_reduces"}


def test_verify_fw_six_zero_diffs(tmp_path, capsys):
    dump = tmp_path / "reports.json"
    code, out = run_cli(capsys, "verify", "--suite", "fw",
                        "--dump-reports", str(dump))
    assert code == 0
    data = json.loads(out)
    fw_checks = [c for c in data["checks"] if c["name"].startswith("fw_order_")]
    assert len(fw_checks) == 6
    assert all(c["passed"] for c in fw_checks)
    reports = json.loads(dump.read_text())["reports"]
    assert [r["order"] for r in reports] == [1, 2, 3, 4, 5, 6]
    assert all(r["pass"] and r["diff"] == {"terms": []} for r in reports)
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "74003a0f7537e3beed7ad5638e0b4f7df315b2e982524e4fdae0a1578b8f4139")


@pytest.mark.parametrize("suite", ["appendixB", "pauli"])
def test_dump_reports_with_a_suite_that_writes_none_is_a_usage_error(tmp_path, capsys, suite):
    dump = tmp_path / "reports.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", suite, "--dump-reports", str(dump)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not dump.exists()


def test_verify_pauli_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "pauli")
    assert code == 0
    data = json.loads(out)
    names = {c["name"] for c in data["checks"]}
    assert "anomalous_vanishes_at_g2" in names
    assert "classical_match_through_beta5" in names
    assert data["passed"]


def test_verify_all_prints_the_pinned_check_names(capsys):
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    assert ([c["name"] for c in json.loads(out)["checks"]]
            == json.loads(expected.read_text())["verify_check_names"])


def test_verify_all_stdout_matches_the_pinned_digest(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9ecd9a73b976ca11ec6c3da86153231adaca6e200a415a591210cf01150e486d")


def test_verify_reports_the_first_tbmt_failure(monkeypatch, capsys):
    diff = (al.Expression.term(1, word=(al.field_b(3),), mat=al.mat_code(0, 3), dims=al.dim(mu=2))
            + al.Expression.term(-2, word=(al.field_e(1),), mat=al.mat_code(0, 1),
                                 dims=al.dim(d=-1)))
    monkeypatch.setattr(reduction, "match_tbmt", lambda spin, order: diff)
    code, out = run_cli(capsys, "verify", "--suite", "pauli")
    assert code == 1
    grid = json.loads(out)["checks"][-1]
    assert grid["name"] == "classical_match_through_beta5"
    assert not grid["passed"]
    assert grid["detail"] == ("2 terms differ, first "
                              "(((0, 0, 0, 0, 0, 0, 0, -1), 1, 0, (0,)), Fraction(-2, 1))")


def test_verify_pauli_builds_only_the_dirac_pauli_pipeline(monkeypatch, capsys):
    models = []
    pipeline = checks.pipeline
    monkeypatch.setattr(checks, "pipeline", lambda model: models.append(model) or pipeline(model))
    code, _ = run_cli(capsys, "verify", "--suite", "pauli")
    assert code == 0
    assert models and set(models) == {"dirac-pauli"}


def test_verify_pauli_physicalizes_the_result_once(monkeypatch, capsys):
    calls = []
    physical_hamiltonian = reduction.physical_hamiltonian
    monkeypatch.setattr(reduction, "physical_hamiltonian",
                        lambda result: calls.append(result) or physical_hamiltonian(result))
    code, _ = run_cli(capsys, "verify", "--suite", "pauli")
    assert code == 0
    assert len(calls) == 1


def _packaged_data():
    return json.loads((Path(cli.__file__).with_name("fixtures") / "catalog.json").read_text())


def _packaged_catalog(edit):
    """The packaged catalog.json text after edit(entries, first term)."""
    data = _packaged_data()
    entries = data["entries"]
    edit(entries, entries[min(entries)]["terms"][0])
    return json.dumps(data)


def _packaged_catalog_at_version(version):
    """The packaged catalog.json text with its version replaced."""
    return json.dumps({**_packaged_data(), "version": version})


_MALFORMED_FIXTURES = {
    "unpackable-exponent": lambda _, t: t["dim"].update(hbar=8193),
    "unknown-atom": lambda _, t: t.update(word=["X1"]),
    "unknown-dim-name": lambda _, t: t.update(dim={"hbarr": 1}),
    "unknown-phase": lambda _, t: t["mat"].update(phase="+2"),
    "matrix-factor-5": lambda _, t: t["mat"].update(left=5),
    "term-without-mat": lambda _, t: t.pop("mat"),
    "term-without-dim": lambda _, t: t.pop("dim"),
    "zero-denominator": lambda _, t: t.update(coeff="1/0"),
    # Fraction reads 1e400 as a 401-digit int; 1e999999999 would take hours
    "decimal-exponent": lambda _, t: t.update(coeff="1e400"),
    "fractional-exponent": lambda _, t: t["dim"].update(hbar=1.5),
    "entry-is-a-list": lambda entries, _: entries.update(fw_order_1=[]),
    # normal ordering a word out of canonical order recurses once per inversion
    "unsorted-word": lambda _, t: t.update(word=["P2", "P1"]),
    "long-unsorted-word": lambda _, t: t.update(word=["P3", "P1"] * 50),
}

# The catalog key each error must name: a malformed entry, not a whole file.
_BROKEN_KEY = {"entry-is-a-list": "fw_order_1", "unsorted-word": "anomalous_cross",
               "long-unsorted-word": "anomalous_cross"}


@pytest.mark.parametrize(
    "content, key",
    [(None, None), ("{", None), ('{"version": 1, "entries": {}}', None), ("[]", None),
     ("[" * 200_000, None),
     (_packaged_catalog_at_version(True), None), (_packaged_catalog_at_version(1.0), None)]
    + [(_packaged_catalog(edit), _BROKEN_KEY.get(name))
       for name, edit in _MALFORMED_FIXTURES.items()],
    ids=["missing", "corrupt", "no-entries", "top-level-list", "deeply-nested",
         "version-true", "version-float", *_MALFORMED_FIXTURES])
def test_verify_rejects_unreadable_fixtures(tmp_path, monkeypatch, capsys, content, key):
    if content is not None:
        (tmp_path / "catalog.json").write_text(content)
    monkeypatch.setenv("FW_FIXTURES", str(tmp_path))
    code, out = run_cli(capsys, "verify", "--suite", "appendixB")
    assert code == 1
    assert set(json.loads(out)) == {"error"}
    if key is not None:
        assert json.loads(out)["error"].startswith(f"{key}: invalid ")


# The benchmark's expected.json pins the JSON digests; the LaTeX ones live here.
DERIVE_SHA256 = {
    "json": EXPECTED["derive_sha256"],
    "latex": {"dirac": "7fcc9fb2a7825e570cbd803748d6a5c627a7dc520f92ecc0fe9e590d079e376b",
              "dirac-pauli": "d2d6db0c720b0e122e03fdcacaacd80a497153d313a1f829a4f22e2a97c17d2f"},
}


@pytest.mark.parametrize("model", ["dirac", "dirac-pauli"])
@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_derive_order_6_matches_the_pinned_digest(capsys, fmt, model):
    code, out = run_cli(capsys, "derive", "--model", model, "--order", "6",
                        "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_SHA256[fmt][model]


def test_derive_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "derive", "--order", "3")
    _, second = run_cli(capsys, "derive", "--order", "3")
    assert first == second


@pytest.mark.parametrize("model", ["dirac", "dirac-pauli"])
def test_derive_output_is_independent_of_hash_seed(model):
    """Dict and set order may follow string hashing; derive's stdout must not."""
    argv = [sys.executable, "-m", "dyonfw.cli", "derive", "--model", model,
            "--order", "6", "--format", "json"]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
             for seed in ("0", "1")]
    outs = [proc.communicate(timeout=600)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs[0] and outs[0] == outs[1]


def _write_scenario(tmp_path, edit=None):
    scenario = {
        "particle": {"m": 1, "e": 1, "etilde": 0, "ge": 2, "gte": 2},
        "fields": {"B": [0, 0, 1]},
        "init": {"u": [1.0, 0, 0], "s": [0.7071067811865476, 0,
                                         0.7071067811865476]},
        "run": {"dt": 0.04442882938158366, "steps": 400},
    }
    if edit:
        edit(scenario)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scenario))
    return cfg


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = _write_scenario(tmp_path)
    out_csv = tmp_path / "traj.csv"
    code, out = run_cli(capsys, "simulate", "--config", str(cfg),
                        "--out", str(out_csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["samples"] == 401
    assert summary["helicity_drift"] < 1e-11
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("t,x,y,z,ux")
    assert len(lines) == 402


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_simulate_keeps_one_thread_without_openblas_settings(tmp_path):
    # numpy's OpenBLAS starts a thread pool unless OPENBLAS_NUM_THREADS is
    # set; simulate sets it, so it forks its CSV helpers from one thread.
    code = ("import os, sys; from dyonfw import cli; "
            f"assert cli.main(['simulate', '--config', {str(_write_scenario(tmp_path))!r}, "
            f"'--out', {str(tmp_path / 'traj.csv')!r}]) == 0; "
            "assert 'numpy' in sys.modules; "
            "print(len(os.listdir('/proc/self/task')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_NUM_THREADS", None)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "1"


def test_verify_fails_against_perturbed_fixtures(tmp_path, monkeypatch, capsys,
                                                 catalog):
    import json as json_mod
    catalog.save(tmp_path)
    data = json_mod.loads((tmp_path / "catalog.json").read_text())
    first = data["entries"]["fw_order_1"]["terms"][0]
    first["coeff"] = "7/13"
    (tmp_path / "catalog.json").write_text(json_mod.dumps(data))
    monkeypatch.setenv("FW_FIXTURES", str(tmp_path))
    dump = tmp_path / "reports.json"
    code, out = run_cli(capsys, "verify", "--suite", "fw", "--dump-reports", str(dump))
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    assert not report["checks"][0]["passed"]
    reports = json.loads(dump.read_text())["reports"]
    assert [(r["order"], r["pass"]) for r in reports] == [(1, False)] + [(n, True) for n in range(2, 7)]
    assert reports[0]["diff"]["terms"] and all(r["diff"] == {"terms": []} for r in reports[1:])


@pytest.mark.parametrize("edit, field", [
    (lambda scenario: scenario.pop("run"), "'run' block"),
    (lambda scenario: scenario.update(fields=[0, 0, 1]), "'fields' block"),
    (lambda scenario: scenario["fields"].update(B=[0, 0, "nan"]), "fields.B"),
    (lambda scenario: scenario["fields"].update(E=[0, 1]), "fields.E"),
    (lambda scenario: scenario["particle"].update(m=0), "particle.m"),
    (lambda scenario: scenario["particle"].update(m=-1), "particle.m"),
    (lambda scenario: scenario["particle"].update(ge="inf"), "particle.ge"),
    (lambda scenario: scenario["run"].pop("dt"), "run.dt"),
    (lambda scenario: scenario["run"].update(dt=0), "run.dt"),
    (lambda scenario: scenario["run"].pop("steps"), "run.steps"),
    (lambda scenario: scenario["run"].update(steps=-5), "run.steps"),
    (lambda scenario: scenario["run"].update(steps=2.5), "run.steps"),
    (lambda scenario: scenario["run"].update(scheme="euler"), "run.scheme"),
    (lambda scenario: scenario["particle"].update(m=True), "particle.m"),
    (lambda scenario: scenario["fields"].update(B=[0, 0, True]), "fields.B"),
    (lambda scenario: scenario["run"].update(dt="0.01"), "run.dt"),
    (lambda scenario: scenario["fields"].update(E=[0, float("nan"), 0]), "fields.E"),
    (lambda scenario: scenario["particle"].update(gte=float("-inf")), "particle.gte"),
    (lambda scenario: scenario["run"].update(scheme=[]), "run.scheme"),
    # JSON integers past float range
    (lambda scenario: scenario["particle"].update(m=10**400), "particle.m"),
    (lambda scenario: scenario["particle"].update(ge=-10**400), "particle.ge"),
    (lambda scenario: scenario["fields"].update(B=[0, 0, 10**400]), "fields.B"),
    (lambda scenario: scenario["run"].update(dt=10**400), "run.dt"),
    # CSVs of at least 44 bytes a row, 4.4e17 and 5.1e19 bytes, more than
    # any disk holds (test_simulate_refuses_a_csv_no_disk_holds)
    (lambda scenario: scenario["run"].update(steps=10**16), "steps"),
    (lambda scenario: scenario["run"].update(steps=2**60), "steps"),
    # |u| = 1e9 rounds beta to 1, where the Thomas-BMT gamma would divide by zero
    (lambda scenario: scenario.update(init={"u": [1e9, 0, 0]}), "boost speed must be below 1"),
    (lambda scenario: scenario.update(init={"u": [1e9, 0, 0]},
                                      run=dict(scenario["run"], scheme="rk4")),
     "boost speed must be below 1"),
    # B = 1e200 overflows the split step's precession angle in step 1 and
    # the rk4 run's orbit energy
    (lambda scenario: scenario["fields"].update(B=[0, 0, 1e200]),
     "trajectory is not finite: step 1 "),
    (lambda scenario: scenario.update(fields={"B": [0, 0, 1e200]},
                                      run=dict(scenario["run"], scheme="rk4")),
     "trajectory is not finite: "),
], ids=["no-run-block", "list-fields-block", "nan-field", "short-field",
        "zero-mass", "negative-mass", "inf-ge", "no-dt", "zero-dt", "no-steps",
        "negative-steps", "fractional-steps", "unknown-scheme", "bool-mass",
        "bool-field", "string-dt", "nan-literal-field", "inf-literal-gte",
        "list-scheme", "huge-int-mass", "huge-int-ge", "huge-int-field", "huge-int-dt",
        "unallocatable-steps", "oversized-steps", "light-speed-split", "light-speed-rk4",
        "overflowing-split", "overflowing-rk4"])
def test_simulate_bad_scenario_reports_error(tmp_path, capsys, edit, field):
    cfg = _write_scenario(tmp_path, edit)
    out_csv = tmp_path / "o.csv"
    code, out = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_csv))
    assert code == 1
    error = json.loads(out)
    assert set(error) == {"error"}
    assert field in error["error"]
    assert not out_csv.exists() or out_csv.read_text() == ""


@pytest.mark.parametrize("steps", [10**16, 2**60])
def test_simulate_refuses_a_csv_no_disk_holds(tmp_path, capsys, helper_forks, steps):
    # Nothing else bounds the steps of a run that holds one block at a time.
    cfg = _write_scenario(tmp_path, lambda scenario: scenario["run"].update(steps=steps))
    out_csv = tmp_path / "o.csv"
    code, out = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_csv))
    assert code == 1
    assert json.loads(out)["error"].startswith(
        f"steps = {steps} needs a CSV of at least {(steps + 1) * 44} bytes, more than the ")
    assert helper_forks["forks"] == 0
    assert out_csv.read_text() == ""


def test_simulate_needs_disk_room_only_for_a_regular_output(tmp_path, monkeypatch, capsys):
    # Only the temporary directory, where the helpers write, has room; a
    # device takes no disk space, a regular file in tmp_path does.
    usage = shutil.disk_usage

    def room_only_in_the_temporary_directory(path):
        found = usage(path)
        return found if path == tempfile.gettempdir() else found._replace(free=0)

    monkeypatch.setattr(shutil, "disk_usage", room_only_in_the_temporary_directory)
    cfg = _write_scenario(tmp_path)
    code, out = run_cli(capsys, "simulate", "--config", str(cfg), "--out", os.devnull)
    assert code == 0 and json.loads(out)["samples"] == 401
    code, out = run_cli(capsys, "simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert json.loads(out) == {"error": f"steps = 400 needs a CSV of at least {401 * 44} "
                                        f"bytes, more than the 0 bytes free in {tmp_path}"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_overflowing_rk4_run_prints_only_its_error(tmp_path, capsys):
    # B = 1e200 overflows the rk4 run's energy column and its drifts.
    cfg = _write_scenario(tmp_path, lambda scenario: scenario.update(
        fields={"B": [0, 0, 1e200]}, run=dict(scenario["run"], scheme="rk4")))
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"].startswith("trajectory is not finite: ")
    assert captured.err == ""


def test_simulate_deeply_nested_config_reports_error(tmp_path, capsys):
    # json.loads raises RecursionError here, which must not escape as a traceback
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 200_000)
    out_csv = tmp_path / "o.csv"
    code, out = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_csv))
    assert code == 1
    assert json.loads(out) == {"error": f"scenario {cfg} nests too deeply to read"}
    assert not out_csv.exists() or out_csv.read_text() == ""


def test_simulate_missing_config_reports_error(tmp_path, capsys):
    code, out = run_cli(capsys, "simulate", "--config",
                        str(tmp_path / "nope.json"), "--out",
                        str(tmp_path / "o.csv"))
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{cfg}", "--out", "{folder}"],
    ["simulate", "--config", "{folder}", "--out", "{csv}"],
    ["verify", "--suite", "appendixB"],
], ids=["simulate-out", "simulate-config", "fixtures"])
def test_directory_paths_report_error(tmp_path, monkeypatch, capsys, argv):
    """A directory where a file belongs is a JSON error, not a traceback."""
    folder = tmp_path / "catalog.json"
    folder.mkdir()
    monkeypatch.setenv("FW_FIXTURES", str(tmp_path))
    paths = {"cfg": _write_scenario(tmp_path), "folder": folder, "csv": tmp_path / "o.csv"}
    code, out = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert set(json.loads(out)) == {"error"}


# Enough steps for simulate to hand three whole blocks to helpers.
_SEVERAL_BLOCKS = 3 * dyn._BLOCK_CHUNKS * dyn._CHUNK_ROWS + 100


def test_simulate_out_directory_fails_before_any_helper_starts(tmp_path, monkeypatch, capsys):
    forks = []

    def fork():
        forks.append(1)
        raise OSError("fork attempted")

    monkeypatch.setattr(dyn, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    cfg = _write_scenario(tmp_path, lambda scenario: scenario["run"].update(
        steps=_SEVERAL_BLOCKS))
    folder = tmp_path / "out.csv"
    folder.mkdir()
    code, out = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(folder))
    assert code == 1
    assert set(json.loads(out)) == {"error"}
    assert forks == []


@pytest.mark.parametrize("failure, error, forks", [
    ("raise", "step failed", 1),
    ("nan", "trajectory is not finite", 4),
], ids=["step-raises", "trajectory-not-finite"])
def test_simulate_failure_after_a_helper_started_writes_no_row(tmp_path, monkeypatch, capsys,
                                                               helper_forks, failure, error,
                                                               forks):
    # From the first step of the second block on, the stepper raises or
    # carries a NaN position, which only the finite check after the last
    # step sees.
    split = dyn._STEPPERS["split"]

    def failing_in_the_second_block(*args):
        step, calls = split(*args), []

        def fail_late(row):
            calls.append(1)
            if len(calls) == dyn._BLOCK_CHUNKS * dyn._CHUNK_ROWS:
                if failure == "raise":
                    raise ValueError("step failed")
                row = (math.nan,) * 3 + row[3:]
            return step(row)
        return fail_late

    monkeypatch.setitem(dyn._STEPPERS, "split", failing_in_the_second_block)
    cfg = _write_scenario(tmp_path, lambda scenario: scenario["run"].update(
        steps=_SEVERAL_BLOCKS))
    out_csv = tmp_path / "o.csv"
    code, out = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_csv))
    assert code == 1
    assert json.loads(out)["error"].startswith(error)
    assert helper_forks["forks"] == forks
    assert out_csv.read_text() == ""


def test_simulate_reports_a_failing_helper_and_writes_no_row(tmp_path, monkeypatch, capsys):
    parent, write_chunks = os.getpid(), dyn._write_chunks

    def fail_in_helpers(f, columns, starts):
        if os.getpid() != parent:
            raise RuntimeError("helper failure")
        write_chunks(f, columns, starts)

    monkeypatch.setattr(dyn, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(dyn, "_write_chunks", fail_in_helpers)
    cfg = _write_scenario(tmp_path, lambda scenario: scenario["run"].update(
        steps=_SEVERAL_BLOCKS))
    out_csv = tmp_path / "o.csv"
    code, out = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_csv))
    assert code == 1
    assert json.loads(out) == {
        "error": "the helper writing CSV rows from 0 exited with status 1"}
    assert out_csv.read_text() == ""


def test_boost_dipole_prints_p_and_m(capsys):
    code, out = run_cli(capsys, "boost-dipole", "--beta", "0.6,0,0",
                        "--mu-p", "0,0.2,0")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"p", "m"}
    assert abs(data["p"][1] - 0.16) < 1e-12
    assert abs(data["m"][2] + 0.16 / 3) < 1e-12


def test_boost_dipole_reports_an_overflowing_result(capsys):
    # p_x is about 1.85e308, beyond the largest float under any formula
    code, out = run_cli(capsys, "boost-dipole", "--beta", "0,0.1,-0.1",
                        "--mu-p", "1.7e308,0,0", "--mu-m", "0,1.7e308,1.7e308")
    assert code == 1
    error = json.loads(out)
    assert set(error) == {"error"} and "not finite" in error["error"]


@pytest.mark.parametrize("flag, value", [("--beta", "nan,0,0"), ("--mu-p", "inf,0,1"),
                                         ("--mu-m", "0,nan,0")],
                         ids=["beta-nan", "mu-p-inf", "mu-m-nan"])
def test_boost_dipole_rejects_non_finite(capsys, flag, value):
    args = {"--beta": "0.1,0,0", "--mu-p": "0,0,1", "--mu-m": "0,0,0", flag: value}
    with pytest.raises(SystemExit) as exc:
        cli.main(["boost-dipole", *(x for item in args.items() for x in item)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("dyonfw ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
