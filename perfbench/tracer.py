"""Outside-in tracer: wraps public functions of the dyonfw modules.

The package calls across layers through module attributes (``al.mul``,
``fw.bch_conjugate``, ``dyn.integrate`` ...), so replacing those attributes
from outside records every call without touching the package.  Each call
becomes a span ``[name, start, end, parent, op_id, attrs]``; spans stay in
memory until the caller asks for them.  ``layer_metrics`` turns the spans of
one operation into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _order_histogram(al, e) -> dict[int, int]:
    return {n: len(part) for n, part in al.by_order(e).items()}


def _pair_counts(al, a, b, max_order) -> dict:
    """Term pairs offered to a product and pairs within the 1/Eg order limit."""
    offered = len(a) * len(b)
    if max_order is None:
        return {"pairs_offered": offered, "pairs_in_order": offered}
    ha, hb = _order_histogram(al, a), _order_histogram(al, b)
    in_order = sum(na * nb for oa, na in ha.items() for ob, nb in hb.items()
                   if oa + ob <= max_order)
    return {"pairs_offered": offered, "pairs_in_order": in_order}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, owner, attr: str, name, attrs=None):
        """Record a span per call of owner.attr; name and attrs may be
        functions of the call's (args, kwargs) and (args, kwargs, result)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = [name(args, kwargs) if callable(name) else name,
                    time.perf_counter(), None, parent, self.op_id, {}]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def install(self) -> "Tracer":
        from dyonfw import algebra as al
        from dyonfw import catalog, cli, dynamics, fw, hamiltonians, reduction

        def product(args, kwargs, result):
            max_order = args[2] if len(args) > 2 else kwargs.get("max_order")
            out = _pair_counts(al, args[0], args[1], max_order)
            out["terms_out"] = len(result)
            return out

        self._wrap(al, "mul", "algebra.mul", product)
        self._wrap(al, "commutator", "algebra.commutator", product)
        self._wrap(al, "hermitian_conjugate", "algebra.hermitian_conjugate")
        self._wrap(al, "from_json_dict", "algebra.from_json_dict")
        self._wrap(al, "to_json_dict", "algebra.to_json_dict")

        self._wrap(fw, "fw_run", "fw.fw_run",
                   lambda a, k, r: {"model": k.get("model", a[3] if len(a) > 3 else "dirac")})
        self._wrap(fw, "bch_conjugate", "fw.bch_conjugate",
                   lambda a, k, r: {"generator_terms": len(a[0]), "terms_out": len(r)})

        for attr in ("build_dirac_hamiltonian", "build_dirac_pauli_hamiltonian"):
            self._wrap(hamiltonians, attr, "hamiltonians.build")

        def catalog_bytes(args, kwargs, result):
            path = result if isinstance(result, Path) else None
            if path is None:
                directory = args[1] if len(args) > 1 else kwargs.get("directory")
                path = Path(directory or catalog.fixtures_dir()) / "catalog.json"
            return {"bytes": path.stat().st_size}

        cat = catalog.ReferenceCatalog
        self._wrap(cat, "build", "catalog.build")
        self._wrap(cat, "load", "catalog.load", catalog_bytes)
        self._wrap(cat, "save", "catalog.save", catalog_bytes)

        self._wrap(reduction, "match_tbmt", "reduction.match_tbmt")
        for attr in ("physical_orders", "reduce_to_physical", "pauli_extra_terms"):
            self._wrap(reduction, attr, "reduction.reduce")
        self._wrap(reduction, "series_check", "reduction.series_check")

        self._wrap(dynamics, "integrate",
                   lambda a, k: "dynamics.integrate." + k.get("scheme", "split"),
                   lambda a, k, r: {"steps": k.get("steps", a[4] if len(a) > 4 else 0)})
        self._wrap(dynamics.Trajectory, "write_csv", "dynamics.write_csv")
        self._wrap(dynamics, "load_scenario", "dynamics.load_scenario")

        self._wrap(cli, "main", "cli.main")
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Aggregation

MODELS = ("dirac", "dirac-pauli")
STAGES = (1, 2, 3)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [f"algebra.mul.{k}" for k in (
        "calls", "self_s", "pairs_offered", "pairs_in_order", "in_order_ratio",
        "terms_out", "us_per_pair_in_order")]
    names += ["algebra.commutator.self_s",
              "algebra.hermitian_conjugate.calls", "algebra.hermitian_conjugate.self_s",
              "algebra.from_json_dict.self_s", "algebra.to_json_dict.self_s"]
    for model in MODELS:
        for k in STAGES:
            names += [f"fw.{model}.stage{k}.{m}"
                      for m in ("s", "nestings", "generator_terms", "terms_out")]
        names += [f"fw.{model}.mul.{m}"
                  for m in ("calls", "pairs_offered", "pairs_in_order")]
    names += ["fw.bch_conjugate.self_s", "fw.fw_run.self_s",
              "hamiltonians.build_s",
              "catalog.build.s", "catalog.save.s", "catalog.load.s", "catalog.bytes",
              "reduction.match_tbmt.calls", "reduction.match_tbmt.self_s",
              "reduction.reduce.s", "reduction.series_check.s",
              "dynamics.integrate.split.s", "dynamics.integrate.rk4.s",
              "dynamics.split_us_per_step", "dynamics.rk4_us_per_step",
              "dynamics.write_csv.s", "dynamics.load_scenario.s",
              "cli.main.self_s"]
    return names


def _product_counts(spans, children, root: int) -> dict:
    """Products under one span.  A commutator counts as its two products, so
    the totals do not depend on whether it is computed through ``mul``."""
    calls = offered = in_order = 0
    todo = [root]
    while todo:
        for c in children[todo.pop()]:
            name = spans[c][NAME]
            if name in ("algebra.commutator", "algebra.mul"):
                n = 2 if name == "algebra.commutator" else 1
                calls += n
                offered += n * spans[c][ATTRS]["pairs_offered"]
                in_order += n * spans[c][ATTRS]["pairs_in_order"]
            else:
                todo.append(c)
    return {"calls": calls, "pairs_offered": offered, "pairs_in_order": in_order}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one operation's spans; unreached layers read 0."""
    children: dict = {i: [] for i in range(len(spans))}
    children[None] = []
    for i, s in enumerate(spans):
        children[s[PARENT]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    sums: Counter = Counter()
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        self_s[name] += dur(i) - sum(dur(c) for c in children[i])
        total_s[name] += dur(i)
        for key, val in s[ATTRS].items():
            if isinstance(val, (int, float)):
                sums[f"{name}.{key}"] += val

    m = dict.fromkeys(metric_names(), 0)
    mul = "algebra.mul"
    m[f"{mul}.calls"] = calls[mul]
    m[f"{mul}.self_s"] = self_s[mul]
    for key in ("pairs_offered", "pairs_in_order", "terms_out"):
        m[f"{mul}.{key}"] = sums[f"{mul}.{key}"]
    if m[f"{mul}.pairs_offered"]:
        m[f"{mul}.in_order_ratio"] = m[f"{mul}.pairs_in_order"] / m[f"{mul}.pairs_offered"]
    if m[f"{mul}.pairs_in_order"]:
        m[f"{mul}.us_per_pair_in_order"] = 1e6 * m[f"{mul}.self_s"] / m[f"{mul}.pairs_in_order"]
    for name in ("algebra.commutator", "algebra.hermitian_conjugate",
                 "algebra.from_json_dict", "algebra.to_json_dict",
                 "fw.bch_conjugate", "fw.fw_run", "reduction.match_tbmt", "cli.main"):
        m[f"{name}.self_s"] = self_s[name]
    m["algebra.hermitian_conjugate.calls"] = calls["algebra.hermitian_conjugate"]
    m["reduction.match_tbmt.calls"] = calls["reduction.match_tbmt"]

    for i, s in enumerate(spans):
        if s[NAME] != "fw.fw_run":
            continue
        model = s[ATTRS]["model"]
        stages = [c for c in children[i] if spans[c][NAME] == "fw.bch_conjugate"]
        for k, c in enumerate(stages[:len(STAGES)], start=1):
            prefix = f"fw.{model}.stage{k}"
            m[f"{prefix}.s"] += dur(c)
            m[f"{prefix}.nestings"] += sum(
                1 for g in children[c] if spans[g][NAME] == "algebra.commutator")
            m[f"{prefix}.generator_terms"] += spans[c][ATTRS]["generator_terms"]
            m[f"{prefix}.terms_out"] += spans[c][ATTRS]["terms_out"]
        for key, val in _product_counts(spans, children, i).items():
            m[f"fw.{model}.mul.{key}"] += val

    m["hamiltonians.build_s"] = total_s["hamiltonians.build"]
    for part in ("build", "save", "load"):
        m[f"catalog.{part}.s"] = total_s[f"catalog.{part}"]
    m["catalog.bytes"] = max((s[ATTRS]["bytes"] for s in spans
                              if s[NAME] in ("catalog.save", "catalog.load")), default=0)
    m["reduction.reduce.s"] = total_s["reduction.reduce"]
    m["reduction.series_check.s"] = total_s["reduction.series_check"]
    for scheme in ("split", "rk4"):
        name = f"dynamics.integrate.{scheme}"
        m[f"{name}.s"] = total_s[name]
        if sums[f"{name}.steps"]:
            m[f"dynamics.{scheme}_us_per_step"] = 1e6 * total_s[name] / sums[f"{name}.steps"]
    m["dynamics.write_csv.s"] = total_s["dynamics.write_csv"]
    m["dynamics.load_scenario.s"] = total_s["dynamics.load_scenario"]
    return m
