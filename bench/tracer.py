"""Outside-in tracer: per-layer self times and counts for the linkset benchmark.

The library is not changed.  While a ``Tracer`` is active, every public
function of the layer modules is replaced by a timing wrapper in *every*
``linkset`` module namespace that binds it, because the library imports
functions by name (``from .designs import is_difference_set`` in
``linking``, ``search`` and ``io``); rebinding only the defining module would
miss those calls.  ``FiniteGroup.mul`` is wrapped on the class.

Ordinary calls become spans (id, name, start, end, parent) kept in memory.
The hot inner calls (the group-ring operations, ``is_difference_set``) are
aggregated per parent into a call count and a total time, and
``FiniteGroup.mul`` is only counted, so a traced census stays a bounded
number of records instead of about a million.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict

LAYERS = ("groups", "group_ring", "designs", "linking", "diffmat", "bent", "search", "io", "cli")

# Called tens of thousands to millions of times per pass.
AGGREGATED_LAYERS = frozenset({"group_ring"})
AGGREGATED = frozenset({"designs.is_difference_set"})
COUNTED_METHOD = "groups.FiniteGroup.mul"

# Bytes the rg.mul support loop touches per multiply-add, computed from the
# dtypes (not measured): an int32 table index, an int64 coefficient gathered
# from y, and the int64 accumulator read and written.
MUL_BYTES_PER_MADD = 4 + 8 + 16

SWEEPS = ("search.mcfarland_pair_sweep", "search.spence_pair_sweep")

# (metric, unit) in the order the benchmark reports them.
PER_LAYER = (
    ("groups.make_abelian.self_s", "s"),
    ("groups.direct_product.self_s", "s"),
    ("groups.FiniteGroup.mul.calls", "count"),
    ("group_ring.mul.calls", "count"),
    ("group_ring.mul.self_s", "s"),
    ("group_ring.mul.madds", "count"),
    ("group_ring.mul.bytes_computed", "B"),
    ("designs.is_difference_set.calls", "count"),
    ("designs.is_difference_set.self_s", "s"),
    ("designs.is_difference_set.accept_ratio", "ratio"),
    ("linking.verify_reduced.calls", "count"),
    ("linking.verify_reduced.self_s", "s"),
    ("linking.verify_reduced.pairs", "count"),
    ("linking.verify_full.self_s", "s"),
    ("linking.expand.self_s", "s"),
    ("diffmat.dm_auto.calls", "count"),
    ("diffmat.dm_auto.self_s", "s"),
    ("diffmat.verify_dm.calls", "count"),
    ("diffmat.verify_dm.self_s", "s"),
    ("diffmat.linked_from_dm.self_s", "s"),
    ("bent.kerdock_bent_set.self_s", "s"),
    ("bent.bent_linking.self_s", "s"),
    ("search.enumerate_difference_sets.self_s", "s"),
    ("search.build_linking_graph.self_s", "s"),
    ("search.linking_graph.edges", "count"),
    ("search.enumerate_systems.self_s", "s"),
    ("search.enumerate_systems.cliques", "count"),
    ("search.max_system_size.self_s", "s"),
    ("search.sweep.self_s", "s"),
    ("search.sweep.pairs_tested", "count"),
    ("search.sweep.pairs_per_s", "1/s"),
    ("io.system_to_json.self_s", "s"),
    ("io.system_from_json.self_s", "s"),
    ("io.census_payload.self_s", "s"),
    ("io.certificate_bytes", "B"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
)


def _count_madds(counters, args, result):
    x = args[0]
    counters["group_ring.mul.madds"] += int((x.coeffs != 0).sum()) * x.group.order


def _count_accepted(counters, args, result):
    counters["designs.is_difference_set.accepted"] += result is not None


def _count_pairs(counters, args, result):
    ell = len(args[1])
    counters["linking.verify_reduced.pairs"] += ell * (ell - 1)


def _count_edges(counters, args, result):
    counters["search.linking_graph.edges"] += result.num_edges()


def _count_cliques(counters, args, result):
    counters["search.enumerate_systems.cliques"] += len(result)


def _count_sweep(counters, args, result):
    counters["search.sweep.pairs_tested"] += result.pairs_tested


# Counts read from a call's arguments or result after it returns.
HOOKS = {
    "group_ring.mul": _count_madds,
    "designs.is_difference_set": _count_accepted,
    "linking.verify_reduced": _count_pairs,
    "search.build_linking_graph": _count_edges,
    "search.enumerate_systems": _count_cliques,
    "search.mcfarland_pair_sweep": _count_sweep,
    "search.spence_pair_sweep": _count_sweep,
}


def public_functions() -> dict:
    """Map each public function defined in a layer module to its span name."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"linkset.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out[obj] = f"{layer}.{attr}"
    return out


def linkset_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "linkset" or name.startswith("linkset."))]


class Tracer:
    """Context manager that installs the wrappers on entry and restores every
    original binding on exit.  Records stay on the object afterwards."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._aggregates: dict[tuple[int, str], list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [0]  # id 0 is the root: outside every span
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    @property
    def aggregates(self) -> list[tuple[int, str, int, int, float]]:
        """(id, name, parent, calls, total seconds) per aggregated name and parent."""
        return [(aid, name, parent, calls, total)
                for (parent, name), (aid, calls, total) in self._aggregates.items()]

    # -- wrappers ----------------------------------------------------------------

    def _span(self, fn, name):
        stack, spans, ids, hook = self._stack, self.spans, self._ids, HOOKS.get(name)
        counters, clock = self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((sid, name, start, clock(), parent))
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def _aggregate(self, fn, name):
        stack, aggs, ids, hook = self._stack, self._aggregates, self._ids, HOOKS.get(name)
        counters, clock = self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            key = (stack[-1], name)
            agg = aggs.get(key)
            if agg is None:
                agg = aggs[key] = [next(ids), 0, 0.0]
            stack.append(agg[0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                agg[2] += clock() - start
                agg[1] += 1
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def _counted_method(self, fn, name):
        stack, aggs, ids = self._stack, self._aggregates, self._ids

        def wrapper(obj, *args):
            key = (stack[-1], name)
            agg = aggs.get(key)
            if agg is None:
                agg = aggs[key] = [next(ids), 0, 0.0]
            agg[1] += 1
            return fn(obj, *args)

        return wrapper

    def _bind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        from linkset.groups import FiniteGroup

        wrappers = {}
        for fn, name in public_functions().items():
            hot = name.split(".")[0] in AGGREGATED_LAYERS or name in AGGREGATED
            wrappers[fn] = (self._aggregate if hot else self._span)(fn, name)
        try:
            for mod in linkset_modules():
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._bind(mod, attr, wrappers[obj])
            self._bind(FiniteGroup, "mul", self._counted_method(FiniteGroup.mul, COUNTED_METHOD))
        except BaseException:
            self._unbind()
            raise
        return self

    def _unbind(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._unbind()


# -- arithmetic on the records --------------------------------------------------


def _union_length(intervals, lo=float("-inf"), hi=float("inf")) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, aggregates) -> dict[int, float]:
    """Self time per record id: its duration minus the time its children cover.

    ``spans`` are (id, name, start, end, parent); ``aggregates`` are
    (id, name, parent, calls, total seconds).  Child spans may overlap, so
    they cover the union of their intervals inside the parent; aggregated
    children cover their total, since their calls run one after another.
    """
    child_intervals: dict[int, list] = defaultdict(list)
    child_totals: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent in spans:
        child_intervals[parent].append((start, end))
    for _aid, _name, parent, _calls, total in aggregates:
        child_totals[parent] += total
    out = {}
    for sid, _name, start, end, _parent in spans:
        covered = _union_length(child_intervals.get(sid, ()), start, end)
        out[sid] = (end - start) - covered - child_totals.get(sid, 0.0)
    for aid, _name, _parent, _calls, total in aggregates:
        covered = _union_length(child_intervals.get(aid, ()))
        out[aid] = total - covered - child_totals.get(aid, 0.0)
    return out


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and inclusive seconds."""
    aggregates = tracer.aggregates
    own = self_times(tracer.spans, aggregates)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                            "total_s": 0.0})
    for sid, name, start, end, _parent in tracer.spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += own[sid]
        row["total_s"] += end - start
    for aid, name, _parent, calls, total in aggregates:
        row = out[name]
        row["calls"] += calls
        row["self_s"] += own[aid]
        row["total_s"] += total
    return dict(out)


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float,
                  certificate_bytes: int) -> dict[str, float]:
    """Every per-layer metric of PER_LAYER for one traced pass."""
    by_name = summarize(tracer)
    counters = tracer.counters

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    sweep_total = sum(get(n, "total_s") for n in SWEEPS)
    ds_calls = get("designs.is_difference_set", "calls")
    m = {}
    for metric, _unit in PER_LAYER:
        name, _, key = metric.rpartition(".")
        if key in ("self_s", "calls"):
            m[metric] = get(name, key)
    m.update({
        "group_ring.mul.madds": counters["group_ring.mul.madds"],
        "group_ring.mul.bytes_computed": counters["group_ring.mul.madds"] * MUL_BYTES_PER_MADD,
        "designs.is_difference_set.accept_ratio":
            counters["designs.is_difference_set.accepted"] / ds_calls if ds_calls else 0.0,
        "linking.verify_reduced.pairs": counters["linking.verify_reduced.pairs"],
        "search.linking_graph.edges": counters["search.linking_graph.edges"],
        "search.enumerate_systems.cliques": counters["search.enumerate_systems.cliques"],
        "search.sweep.self_s": sum(get(n, "self_s") for n in SWEEPS),
        "search.sweep.pairs_tested": counters["search.sweep.pairs_tested"],
        "search.sweep.pairs_per_s":
            counters["search.sweep.pairs_tested"] / sweep_total if sweep_total else 0.0,
        "io.certificate_bytes": certificate_bytes,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        "trace.unattributed_s": traced_wall_s - sum(row["self_s"] for row in by_name.values()),
    })
    return {metric: m[metric] for metric, _unit in PER_LAYER}
