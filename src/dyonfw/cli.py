"""Batch command-line front end: derivation, verification, series checks,
simulation and dipole boosts.

Exit codes: 0 full pass, 1 verification failure, 2 usage error.  Output is
UTF-8 JSON (or LaTeX/CSV where requested) and is byte-identical across runs
for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import algebra as al
from . import catalog as cat_mod
from . import checks
from . import reduction
from . import fw


def cmd_derive(args) -> int:
    result = checks.pipeline(args.model)
    orders = []
    for n in range(1, args.order + 1):
        derived = result.even_slices[n]
        if args.format == "latex":
            orders.append({"order": n, "latex": al.to_latex(derived)})
        else:
            orders.append({"order": n, "expression": al.to_json_dict(derived)})
    json.dump({"model": args.model, "orders": orders}, sys.stdout, indent=1)
    print()
    return 0


def cmd_verify(args) -> int:
    catalog = cat_mod.ReferenceCatalog.load()
    suites = {"fw": lambda: checks.fw_checks(catalog, args.dump_reports),
              "pauli": lambda: checks.pauli_checks(checks.pipeline("dirac-pauli"), catalog),
              "appendixB": checks.appendix_b_checks,
              "series": checks.series_checks}
    names = suites if args.suite == "all" else (args.suite,)
    return _report(args.suite, [c for name in names for c in suites[name]()])


def cmd_series_check(args) -> int:
    return _report("series", checks.series_checks())


def _report(suite: str, results: list[dict]) -> int:
    passed = all(c["passed"] for c in results)
    json.dump({"suite": suite, "passed": passed, "checks": results},
              sys.stdout, indent=1)
    print()
    return 0 if passed else 1


def cmd_simulate(args) -> int:
    # Before numpy loads: OpenBLAS would start a thread pool, which competes
    # with the CSV helpers for the CPUs and makes every os.fork multi-threaded.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import dynamics as dyn  # imported only by the commands that run it
    params, fields, state, run = dyn.load_scenario(args.config)
    samples, drifts = dyn.simulate(state, fields, params, path=args.out, **run)
    json.dump({"samples": samples, "out": args.out, **drifts},
              sys.stdout, indent=1)
    print()
    return 0


def _vec(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated values")
    if not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError("expected finite values")
    return tuple(parts)


def cmd_boost_dipole(args) -> int:
    from . import dynamics as dyn
    p, m = dyn.boost_dipole(args.mu_p, args.mu_m, args.beta)
    json.dump({"p": list(p), "m": list(m)}, sys.stdout, indent=1)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyonfw",
        description="Block-diagonalization of dyon Hamiltonians and classical cross-checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="emit derived expansion orders")
    p_derive.add_argument("--model", choices=("dirac", "dirac-pauli"), default="dirac")
    p_derive.add_argument("--order", type=int, choices=range(1, cat_mod.MAX_ORDER + 1),
                          default=cat_mod.MAX_ORDER, metavar=f"{{1..{cat_mod.MAX_ORDER}}}")
    p_derive.add_argument("--format", choices=("json", "latex"), default="json")
    p_derive.set_defaults(func=cmd_derive)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", choices=("fw", "pauli", "appendixB", "all"),
                          default="all")
    p_verify.add_argument("--dump-reports", metavar="FILE", default=None,
                          help="write per-order derived/reference/diff JSON "
                               "and LaTeX (fw suite only)")
    p_verify.set_defaults(func=cmd_verify)

    p_series = sub.add_parser("series-check", help="check the boost-series identities")
    p_series.set_defaults(func=cmd_series_check)

    p_sim = sub.add_parser("simulate", help="integrate a scenario config to CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_boost = sub.add_parser("boost-dipole", help="boost a dipole pair")
    p_boost.add_argument("--beta", type=_vec, required=True)
    p_boost.add_argument("--mu-p", type=_vec, default=(0.0, 0.0, 0.0))
    p_boost.add_argument("--mu-m", type=_vec, default=(0.0, 0.0, 0.0))
    p_boost.set_defaults(func=cmd_boost_dipole)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.dump_reports and args.suite not in ("fw", "all"):
        parser.error(f"--dump-reports needs the fw suite; --suite {args.suite} writes no report")
    try:
        return args.func(args)
    except (fw.PipelineError, reduction.ReductionError, OSError,
            ValueError) as exc:
        json.dump({"error": str(exc)}, sys.stdout, indent=1)
        print()
        return 1


if __name__ == "__main__":
    sys.exit(main())
