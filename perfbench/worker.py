"""One benchmark operation in a fresh interpreter.

Usage: python worker.py JOB_JSON

The job names the workload, the scratch directory, the expected outputs and
whether to trace.  The worker notes the system-wide monotonic clock as soon
as ``dyonfw.cli`` is imported (the parent times set-up from the spawn up to
that instant), runs one operation, checks its outputs, and prints one JSON
result line.  A job with ``"workload": null`` only imports.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

# Criterion-7 conservation bounds of the split run.
DRIFT_LIMITS = {"helicity_drift": 1e-9, "spin_norm_drift": 1e-10, "energy_drift": 1e-9}

PROBE_INTERVAL_S = 0.02
_ZERO = Fraction(0)


def _probe_kernel() -> None:
    """Fixed work of the benchmark's kinds: Fraction sums merged into a dict
    (symbolic layers), float tuple arithmetic and float repr (dynamics)."""
    acc = {}
    x = (0.1, 0.2, 0.3)
    for i in range(70):
        key = (i % 37, (i * 7) % 13, (i % 3, i % 5))
        acc[key] = acc.get(key, _ZERO) + Fraction(i % 11, 1 + i % 7)
        x = (x[1] * 0.5 + x[2], x[2] - x[0] * 0.25, x[0] * 0.75 + 1.0)
        repr(x[0])


class SpeedProbe:
    """Samples how fast this CPU runs Python right now.

    Other tenants of the host change the speed of a CPU by up to 2x within
    seconds, and the guest sees no lost time.  Every PROBE_INTERVAL_S of
    wall time a SIGALRM handler times a fixed kernel in this process.
    ``take`` summarizes the samples since the last call as (count, total
    seconds, mean kernel runs per second).  Work done over an interval is
    proportional to the interval times the mean speed, so a duration times
    the mean speed measures work whatever the CPU's speed was.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe_kernel()
        self.samples.append(time.perf_counter() - start)
        if enabled:
            gc.enable()

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self) -> tuple[int, float, float]:
        samples, self.samples = self.samples, []
        if not samples:
            start = time.perf_counter()
            _probe_kernel()
            samples = [time.perf_counter() - start]
        return len(samples), sum(samples), sum(1 / k for k in samples) / len(samples)


def run_cli(argv: list[str]) -> tuple[int, str]:
    from dyonfw import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def op_verify_all(job):
    rc, out = run_cli(["verify", "--suite", "all"])

    def check():
        report = json.loads(out)
        names = [c["name"] for c in report["checks"]]
        if rc != 0 or report["passed"] is not True:
            return f"verify exit {rc}, passed={report['passed']}"
        if names != job["expected"]["verify_check_names"]:
            return f"verify check names differ: {names}"
        for model, digest in job["expected"]["derive_sha256"].items():
            drc, text = run_cli(["derive", "--model", model, "--order", "6",
                                 "--format", "json"])
            got = hashlib.sha256(text.encode()).hexdigest()
            if drc != 0 or got != digest:
                return f"derive {model}: exit {drc}, sha256 {got}"
        return None
    return check


def op_catalog_rebuild(job):
    from dyonfw.catalog import ReferenceCatalog
    directory = Path(job["work_dir"]) / "catalog"
    built = ReferenceCatalog.build()
    path = built.save(directory)
    loaded = ReferenceCatalog.load(directory)

    def check():
        if path.read_bytes() != Path(job["fixture"]).read_bytes():
            return "saved catalog.json differs from the packaged fixture"
        if loaded.entries != built.entries:
            return "loaded entries differ from built entries"
        return None
    return check


def op_simulate(job):
    work = Path(job["work_dir"])
    runs = {}
    for scheme, config in job["scenarios"].items():
        rc, out = run_cli(["simulate", "--config", config,
                           "--out", str(work / f"{scheme}.csv")])
        runs[scheme] = (rc, out)

    def check():
        for scheme, (rc, out) in runs.items():
            if rc != 0:
                return f"simulate {scheme}: exit {rc}: {out.strip()}"
            summary = json.loads(out)
            if summary["samples"] != job["steps"][scheme] + 1:
                return f"simulate {scheme}: {summary['samples']} samples"
            values = [summary[k] for k in DRIFT_LIMITS]
            if not all(math.isfinite(v) for v in values):
                return f"simulate {scheme}: non-finite summary {summary}"
            if scheme == "split":
                for key, limit in DRIFT_LIMITS.items():
                    if not summary[key] < limit:
                        return f"split {key} {summary[key]} >= {limit}"
        return None
    return check


OPS = {"verify-all": op_verify_all, "catalog-rebuild": op_catalog_rebuild,
       "simulate": op_simulate}


def check_counts(layer: dict, expected: dict) -> str | None:
    """Tracer self-check: exact product counts under each model's fw_run."""
    for model, want in expected.items():
        got = {k: layer[f"fw.{model}.mul.{k}"] for k in want}
        if got != want:
            return f"{model} product counts {got}, expected {want}"
    return None


def main() -> None:
    probe = SpeedProbe().start()
    import dyonfw.cli
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_probe = probe.take()
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    if src not in Path(dyonfw.cli.__file__).resolve().parents:
        raise SystemExit(f"dyonfw imported from {dyonfw.cli.__file__}, not from {src}")
    if job["workload"] is None:
        probe.stop()
        print(json.dumps({"ready_at": ready_at, "setup_probe": setup_probe}))
        return
    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer(job["op_id"]).install()
    try:
        probe.take()
        start = time.perf_counter()
        check = OPS[job["workload"]](job)
        op_s = time.perf_counter() - start
        op_probe = probe.take()
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error = check()
    result = {"ready_at": ready_at, "setup_probe": setup_probe, "op_s": op_s,
              "op_probe": op_probe, "peak_rss_mb": rss_mb, "error": error}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["spans"] = tracer.spans
        if error is None and job["workload"] == "verify-all":
            result["error"] = check_counts(result["layers"],
                                           job["expected"]["fw_mul_counts"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
