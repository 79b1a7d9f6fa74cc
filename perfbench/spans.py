"""In-memory span recording around the library's layer boundaries.

The library's modules bind each other's functions with ``from .x import y``,
so a function is wrapped at every module that calls it, not only where it
is defined.  Spans live in flat arrays while a traced unit runs; the
aggregation into per-layer numbers and the dump to disk happen afterwards.
"""

from __future__ import annotations

import json
import time
from array import array

# (module, attribute, span name, what the span's work count measures)
# The work count is taken from the call: "in" = letters of the first braid
# argument, "in2" = letters of both braid arguments, "out" = letters of the
# returned braid.  search_orderings spans are renamed after the call by the
# status of the result, so exhaustive and budget searches aggregate apart.
SITES = (
    ("designs", "nf_mul", "braid.nf_mul", None),
    ("designs", "normal_form", "braid.normal_form", "in"),
    ("braid", "normal_form", "braid.normal_form", "in"),
    ("designs", "swing_word", "surface.swing_word", None),
    ("surface", "swing_word", "surface.swing_word", None),
    ("catalog", "completeness_check", "catalog.completeness_check", None),
    ("catalog", "verify", "catalog.verify", None),
    ("catalog", "equals", "braid.equals", None),
    ("catalog", "lk_equal", "braid.lk_equal", "in2"),
    ("catalog", "to_braid", "surface.to_braid", "out"),
    ("catalog", "multiplicities", "surface.multiplicities", None),
    ("catalog", "search_orderings", "designs.search_orderings", "status"),
    ("catalog", "enumerate_designs", "designs.enumerate_designs", None),
    ("catalog", "euler_characteristic", "plumbing.euler_characteristic", None),
)

SEARCH_KINDS = ("exhausted", "budget")


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, work."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, fn, name: str, work):
        nid = self.name_id(name)
        kinds = {k: self.name_id(f"{name}.{k}") for k in SEARCH_KINDS} if work == "status" else {}
        names, starts, ends, parents, works = (
            self.name, self.start, self.end, self.parent, self.work,
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            works.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            starts[idx] = t0
            if work == "in":
                works[idx] = len(args[0].letters)
            elif work == "in2":
                works[idx] = len(args[0].letters) + len(args[1].letters)
            elif work == "out":
                works[idx] = len(out.letters)
            elif work == "status":
                names[idx] = kinds[out.status]
            return out

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every site in SITES; `modules` maps short names to modules."""
        for mod_name, attr, name, work in SITES:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, work))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def dump(self, fh) -> None:
        """Write every span as JSON, times in seconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        rows = [
            [self.name[i], self.start[i] - t0, self.end[i] - t0, self.parent[i], self.work[i]]
            for i in range(len(self))
        ]
        doc = {"names": self.names, "columns": ["name", "start_s", "end_s", "parent", "work"], "spans": rows}
        json.dump(doc, fh, separators=(",", ":"))


def _empty() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "nf_mul_calls": 0}


def aggregate(tracer: Tracer, lo: int, hi: int) -> dict[str, dict]:
    """Per span name over spans lo..hi: calls, total and self seconds, work.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.  For
    each search kind, ``nf_mul_calls`` counts the nf_mul spans whose nearest
    search_orderings ancestor is of that kind.
    """
    name, parent = tracer.name, tracer.parent
    dur = [tracer.end[i] - tracer.start[i] for i in range(lo, hi)]
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        if parent[i] >= lo:
            child[parent[i] - lo] += dur[i - lo]
    search_ids = {tracer.name_id(f"designs.search_orderings.{k}") for k in SEARCH_KINDS}
    nf_mul_id = tracer.name_id("braid.nf_mul")
    out: dict[str, dict] = {}
    for i in range(lo, hi):
        agg = out.setdefault(tracer.names[name[i]], _empty())
        agg["calls"] += 1
        agg["total_s"] += dur[i - lo]
        agg["self_s"] += dur[i - lo] - child[i - lo]
        agg["work"] += tracer.work[i]
        if name[i] == nf_mul_id:
            p = parent[i]
            while p >= lo and name[p] not in search_ids:
                p = parent[p]
            if p >= lo:
                out.setdefault(tracer.names[name[p]], _empty())["nf_mul_calls"] += 1
    return out


def layer_metrics(agg: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced unit, as name -> (value, unit)."""

    def get(name: str) -> dict:
        return agg.get(name, _empty())

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num * scale / den if den else 0.0

    nf_mul = get("braid.nf_mul")
    nf = get("braid.normal_form")
    lk = get("braid.lk_equal")
    exhausted = get("designs.search_orderings.exhausted")
    budget = get("designs.search_orderings.budget")
    return {
        "braid.nf_mul.calls": (nf_mul["calls"], "count"),
        "braid.nf_mul.self_s": (nf_mul["self_s"], "s"),
        "braid.nf_mul.us_per_call": (per(nf_mul["self_s"], nf_mul["calls"], 1e6), "us"),
        "braid.normal_form.calls": (nf["calls"], "count"),
        "braid.normal_form.self_s": (nf["self_s"], "s"),
        "braid.normal_form.us_per_letter": (per(nf["self_s"], nf["work"], 1e6), "us"),
        "braid.equals.self_s": (get("braid.equals")["self_s"], "s"),
        "braid.lk_equal.calls": (lk["calls"], "count"),
        "braid.lk_equal.self_s": (lk["self_s"], "s"),
        "braid.lk_equal.us_per_letter": (per(lk["self_s"], lk["work"], 1e6), "us"),
        "surface.to_braid.self_s": (get("surface.to_braid")["self_s"], "s"),
        "surface.to_braid.letters": (get("surface.to_braid")["work"], "count"),
        "surface.swing_word.calls": (get("surface.swing_word")["calls"], "count"),
        "surface.multiplicities.self_s": (get("surface.multiplicities")["self_s"], "s"),
        "designs.search_orderings.exhausted.calls": (exhausted["calls"], "count"),
        "designs.search_orderings.exhausted.self_s": (exhausted["self_s"], "s"),
        "designs.search_orderings.exhausted.nf_mul_calls": (exhausted["nf_mul_calls"], "count"),
        "designs.dfs_states_per_s": (per(exhausted["nf_mul_calls"], exhausted["total_s"]), "1/s"),
        "designs.search_orderings.budget.calls": (budget["calls"], "count"),
        "designs.search_orderings.budget.self_s": (budget["self_s"], "s"),
        "designs.search_orderings.budget.nf_mul_calls": (budget["nf_mul_calls"], "count"),
        "designs.enumerate_designs.self_s": (get("designs.enumerate_designs")["self_s"], "s"),
        "catalog.verify.self_s": (get("catalog.verify")["self_s"], "s"),
        "catalog.completeness_check.self_s": (get("catalog.completeness_check")["self_s"], "s"),
        "plumbing.euler_characteristic.calls": (get("plumbing.euler_characteristic")["calls"], "count"),
    }
