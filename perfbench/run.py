"""Outside-in benchmark of dyonfw.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, both modes

Each operation runs in a fresh worker interpreter (``worker.py``), one at a
time, because every CLI call pays a cold normal-ordering cache.  The parent
starts operations until the next one would end past ``--seconds`` (at least
one), checks every operation's outputs in the worker, and prints one metric a
line followed by a JSON result as the last line of stdout.

Times are reported in reference seconds.  Other tenants of the host change
the CPU's speed by up to 2x within seconds, so each worker times a fixed
Python kernel every 20 ms (worker.SpeedProbe); a duration, minus the probe's
own time, is multiplied by ``K_REF_S * mean kernel speed`` over that
duration.
The wall-clock medians are printed beside the metrics and kept in the run
record.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced operations and reports the per-layer metrics
of the traced ones (see tracer.py) plus the tracing overhead.  The run record,
with the seed and every span of the traced operations, is written once at the
end to ``.perfbench/`` in the checkout.

Only ``simulate`` draws inputs from the seed: the two symbolic workloads run
the paper's fixed Hamiltonians and closed forms, whose results the gates
compare byte for byte, so they have no input to vary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("verify-all", "catalog-rebuild", "simulate")

SETUP_SPAWNS = 5          # import-only workers per run, for a steady setup_s
HARD_LIMIT_S = 150.0      # no operation starts that would end past this
SPLIT_STEPS = 200_000     # acceptance criterion 7
RK4_STEPS = 20_000
DT = 0.0444288293815837   # 200 steps per cyclotron period at |u| = 1, B = 1
K_REF_S = 3e-4            # probe-kernel time that defines one reference second


def reference_seconds(wall_s: float, probe: list) -> float:
    """Scale a wall duration by the speed the probe saw; probe is the worker's
    (count, total seconds, mean kernel runs per second) over that duration."""
    _, total, speed = probe
    return (wall_s - total) * K_REF_S * speed


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("FW_FIXTURES", None)
    return env


def spawn(job: dict, timeout: float) -> tuple[float, dict | None]:
    """Run one worker; returns (wall set-up seconds, result or None)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return math.nan, None
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return math.nan, None
    result = json.loads(out.splitlines()[-1])
    return result["ready_at"] - start, result


def _direction(rng: random.Random) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def make_scenarios(seed: int, directory: Path) -> dict[str, str]:
    """Criterion-7 split run and an anomalous rk4 run, pure B, |u| = 1, with
    the seed choosing the directions of the initial u and spin."""
    rng = random.Random(seed)
    paths = {}
    for scheme, ge, steps in (("split", 2, SPLIT_STEPS), ("rk4", 2.2, RK4_STEPS)):
        config = {
            "particle": {"m": 1, "e": 1, "etilde": 0, "ge": ge, "gte": 2},
            "fields": {"E": [0, 0, 0], "B": [0, 0, 1]},
            "init": {"x": [0, 0, 0], "u": _direction(rng), "s": _direction(rng)},
            "run": {"dt": DT, "steps": steps, "scheme": scheme},
        }
        path = directory / f"{scheme}.json"
        path.write_text(json.dumps(config, indent=1))
        paths[scheme] = str(path)
    return paths


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the run record (result plus raw samples)."""
    started = time.perf_counter()
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = {"workload": workload, "src": str(SRC),
            "expected": json.loads((HERE / "expected.json").read_text()),
            "fixture": str(SRC / "dyonfw" / "fixtures" / "catalog.json")}
    if workload == "simulate":
        base["scenarios"] = make_scenarios(seed, run_dir)
        base["steps"] = {"split": SPLIT_STEPS, "rk4": RK4_STEPS}

    setups = []
    for _ in range(SETUP_SPAWNS):
        setup_s, result = spawn({"workload": None, "src": str(SRC)}, 60)
        if result is not None:
            setups.append((setup_s, result["setup_probe"]))
    ops: list[dict] = []
    rounds: list[float] = []
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            op_dir = run_dir / f"op{len(ops)}"
            op_dir.mkdir()
            job = dict(base, trace=traced, work_dir=str(op_dir),
                       op_id=f"{workload}-seed{seed}-op{len(ops)}")
            setup_s, result = spawn(job, started + HARD_LIMIT_S - time.perf_counter())
            shutil.rmtree(op_dir)
            if result is None:
                result = {"error": "worker failed"}
            else:
                setups.append((setup_s, result["setup_probe"]))
            if result["error"]:
                print(f"operation failed: {result['error']}", file=sys.stderr)
            ops.append(dict(result, traced=traced))
        rounds.append(time.perf_counter() - round_start)
        upcoming = time.perf_counter() + statistics.median(rounds)
        if upcoming > begin + seconds or upcoming > started + HARD_LIMIT_S:
            break
    shutil.rmtree(run_dir)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "setups": setups, "ops": ops}


def summarize(record: dict, units: dict[str, str]) -> dict:
    """The driver-facing result: correctness, counts and metric medians."""
    ops = record["ops"]
    good = [op for op in ops if not op["error"]]
    plain = [reference_seconds(op["op_s"], op["op_probe"])
             for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    metrics: dict[str, float] = {}
    if record["trace"]:
        if traced:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(op["layers"][name] for op in traced)
        if traced and plain:
            traced_s = statistics.median(reference_seconds(op["op_s"], op["op_probe"])
                                         for op in traced)
            metrics["trace.op_s"] = traced_s
            metrics["trace.overhead_s"] = traced_s - statistics.median(plain)
    elif plain:
        metrics["op_s"] = statistics.median(plain)
        metrics["setup_s"] = statistics.median(
            reference_seconds(wall, probe) for wall, probe in record["setups"])
        metrics["peak_rss_mb"] = statistics.median(
            op["peak_rss_mb"] for op in good if not op["traced"])
    failed = len(ops) - len(good)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run(workload: str, seed: int, seconds: float, trace: bool,
        units: dict[str, str]) -> dict:
    """Measure one workload, write its record once, print its metrics."""
    record = measure(workload, seed, seconds, trace)
    result = summarize(record, units)
    path = WORK / f"run-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(dict(record, result=result)))
    walls = [op["op_s"] for op in record["ops"] if not op["error"] and not op["traced"]]
    print(f"# {workload} seed={seed} trace={int(trace)} "
          f"attempted={result['attempted']} failed={result['failed']} wall: "
          f"op_s={statistics.median(walls or [math.nan])!r} "
          f"setup_s={statistics.median([w for w, _ in record['setups']] or [math.nan])!r}")
    for name, m in result["metrics"].items():
        print(f"{workload}.{name} {m['value']!r} {m['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dyonfw" / "cli.py").is_file():
        print(f"no dyonfw sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    WORK.mkdir(exist_ok=True)

    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, seconds, bool(args.trace), units)))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(workload, args.seed, seconds, trace, units)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
