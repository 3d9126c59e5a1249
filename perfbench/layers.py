"""Per-layer attribution: spans around each layer's public entry points.

The spans live here, outside the program.  :func:`install` replaces each
entry point below with a wrapper — in the defining module or class and
in every ``repro`` module that imported it by name — so the program's
own code paths run unchanged, only timed.  A span's *self time* is its
duration minus the time of its direct child spans; summed over all
spans of an op it equals the time the op spent inside some layer, and
the rest of the op is reported as unattributed.

The traced run is a separate process from the untraced one, so the
spans never touch the end-to-end numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (entry point, layer, span kind, module, attribute path).  The kind
#: groups entry points into one per-layer metric.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("parse_query", "algebra", "parse", "repro.algebra.parser", "parse_query"),
    ("ctable_of", "tables", "coerce", "repro.tables.convert", "ctable_of"),
    ("StatsAccumulator.from_ctable", "ctalgebra", "stats", "repro.ctalgebra.plan", "StatsAccumulator.from_ctable"),
    ("StatsAccumulator.apply_delta", "ctalgebra", "stats_delta", "repro.ctalgebra.plan", "StatsAccumulator.apply_delta"),
    # The mutation API rolls statistics forward through these two.
    ("StatsAccumulator.add_rows", "ctalgebra", "stats_delta", "repro.ctalgebra.plan", "StatsAccumulator.add_rows"),
    ("StatsAccumulator.remove_rows", "ctalgebra", "stats_delta", "repro.ctalgebra.plan", "StatsAccumulator.remove_rows"),
    ("build_plan", "ctalgebra", "plan", "repro.ctalgebra.translate", "build_plan"),
    ("optimize_plan", "ctalgebra", "optimize", "repro.ctalgebra.optimize", "optimize_plan"),
    ("PlanVerifier.verify_query", "ctalgebra", "verify", "repro.ctalgebra.verify", "PlanVerifier.verify_query"),
    ("lower", "physical", "lower", "repro.physical.lower", "lower"),
    ("execute_physical", "physical", "execute", "repro.physical.lower", "execute_physical"),
    ("Batch.to_ctable", "physical", "materialize", "repro.physical.batch", "Batch.to_ctable"),
    ("Session.register", "engine", "register", "repro.engine.session", "Session.register"),
    ("Session.prepare", "engine", "terminal", "repro.engine.session", "Session.prepare"),
    ("PreparedQuery.execute", "engine", "terminal", "repro.engine.session", "PreparedQuery.execute"),
    ("PreparedQuery.refresh", "engine", "terminal", "repro.engine.session", "PreparedQuery.refresh"),
    ("Dataset.collect", "engine", "terminal", "repro.engine.session", "Dataset.collect"),
    ("Dataset.certain", "engine", "terminal", "repro.engine.session", "Dataset.certain"),
    ("Dataset.possible", "engine", "terminal", "repro.engine.session", "Dataset.possible"),
    ("Dataset.probability", "engine", "terminal", "repro.engine.session", "Dataset.probability"),
    ("Dataset.lineage", "engine", "terminal", "repro.engine.session", "Dataset.lineage"),
    ("Session.insert", "ivm", "mutate", "repro.engine.session", "Session.insert"),
    ("Session.delete", "ivm", "mutate", "repro.engine.session", "Session.delete"),
    ("Session.update", "ivm", "mutate", "repro.engine.session", "Session.update"),
    ("MaterializedView.refresh", "ivm", "refresh", "repro.ivm.view", "MaterializedView.refresh"),
    ("probability_shannon", "logic", "shannon", "repro.logic.counting", "probability_shannon"),
    ("compile_condition", "logic", "compile", "repro.logic.compile", "compile_condition"),
    ("is_satisfiable_over", "logic", "sat", "repro.logic.models", "is_satisfiable_over"),
    ("is_satisfiable_infinite", "logic", "sat", "repro.logic.equality_sat", "is_satisfiable_infinite"),
    ("is_valid_infinite", "logic", "sat", "repro.logic.equality_sat", "is_valid_infinite"),
    ("compile_probability", "prob", "compile", "repro.prob.wmc", "compile_probability"),
    ("CompiledCondition.probability", "prob", "wmc_count", "repro.prob.wmc", "CompiledCondition.probability"),
    ("certain_from_answer", "worlds", "certain", "repro.worlds.symbolic_answers", "certain_from_answer"),
    ("possible_from_answer", "worlds", "possible", "repro.worlds.symbolic_answers", "possible_from_answer"),
    ("membership_condition", "worlds", "membership", "repro.worlds.symbolic_answers", "membership_condition"),
)

LAYERS = ("algebra", "tables", "ctalgebra", "physical", "engine", "ivm", "logic", "prob", "worlds")

_LAYER_OF = {entry: layer for entry, layer, _kind, _module, _path in ENTRY_POINTS}
_KIND_OF = {entry: f"{layer}.{kind}" for entry, layer, kind, _module, _path in ENTRY_POINTS}


class Tracer:
    """Span bookkeeping for one traced process.

    Spans are recorded only while ``phase`` is set (``"setup"`` or
    ``"ops"``), so oracle checks and input generation leave no trace.
    """

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        # Open spans: [entry, start, child seconds].
        self._stack: List[List[Any]] = []
        self._open: Counter = Counter()
        self.self_seconds: Dict[str, Counter] = {"setup": Counter(), "ops": Counter()}
        self.calls: Dict[str, Counter] = {"setup": Counter(), "ops": Counter()}
        self.failures: Dict[str, Counter] = {"setup": Counter(), "ops": Counter()}
        # Time of outermost spans: the part of the phase some layer covers.
        self.covered: Counter = Counter()
        self.view_build_seconds = 0.0
        self.refresh_modes: Counter = Counter()
        self.delta_rows = 0
        self.answers = 0
        self.rows_scanned = 0
        self.rows_returned = 0
        self.condition_nodes = 0
        self._answers: List[Any] = []

    def wrap(self, entry: str, function: Callable[..., Any]) -> Callable[..., Any]:
        stack, open_ = self._stack, self._open
        observe = _OBSERVERS.get(entry)

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            phase = self.phase
            if phase is None or open_[entry]:
                # Not recording, or a recursive call already inside this span.
                return function(*args, **kwargs)
            self.calls[phase][entry] += 1
            open_[entry] += 1
            frame = [entry, perf_counter(), 0.0]
            stack.append(frame)
            failed = True
            try:
                result = function(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                open_[entry] -= 1
                duration = end - frame[1]
                self_time = duration - frame[2]
                self.self_seconds[phase][entry] += self_time
                if stack:
                    stack[-1][2] += duration
                else:
                    self.covered[phase] += duration
                if failed:
                    self.failures[phase][_LAYER_OF[entry]] += 1
                elif observe is not None:
                    observe(self, phase, args, kwargs, result, self_time)

        return traced

    def settle_op(self) -> None:
        """Count the answers of the op that just ended (outside its time)."""
        for result in self._answers:
            self.rows_returned += len(result)
            for row in result.rows:
                self.condition_nodes += _dag_size(row.condition)
        self._answers.clear()


def _dag_size(formula: Any) -> int:
    seen = set()
    pending = [formula]
    while pending:
        node = pending.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        child = getattr(node, "child", None)  # negation
        if child is not None:
            pending.append(child)
        pending.extend(getattr(node, "children", ()))  # conjunction, disjunction
    return len(seen)


def _observe_execute(tracer: Tracer, phase: str, args: tuple, kwargs: dict, result: Any, _self: float) -> None:
    if phase != "ops":
        return
    physical, tables = args[0], args[1]
    pending = [physical]
    while pending:
        op = pending.pop()
        name = getattr(op, "name", None)
        if type(op).__name__ == "ScanOp" and name in tables:
            tracer.rows_scanned += len(tables[name])
        pending.extend(op.children())
    tracer._answers.append(result)


def _observe_refresh(tracer: Tracer, phase: str, args: tuple, kwargs: dict, result: Any, self_time: float) -> None:
    mode = result[1]
    if phase == "setup" and mode == "build":
        tracer.view_build_seconds += self_time
    if phase == "ops":
        tracer.refresh_modes[mode] += 1


_ANSWER_TERMINALS = ("Dataset.certain", "Dataset.possible", "Dataset.probability", "Dataset.lineage")


def _observe_answer(tracer: Tracer, phase: str, args: tuple, kwargs: dict, result: Any, _self: float) -> None:
    # probability() reads the lineage: count only the outermost terminal.
    if phase == "ops" and not any(tracer._open[entry] for entry in _ANSWER_TERMINALS):
        tracer.answers += 1


def _observe_mutation(weight: int) -> Callable[..., None]:
    def observe(tracer: Tracer, phase: str, args: tuple, kwargs: dict, result: Any, _self: float) -> None:
        if phase == "ops":
            tracer.delta_rows += weight * len(args[2])

    return observe


_OBSERVERS: Dict[str, Callable[..., None]] = {
    "execute_physical": _observe_execute,
    "MaterializedView.refresh": _observe_refresh,
    "Session.insert": _observe_mutation(1),
    "Session.delete": _observe_mutation(1),
    # An update is one delete plus one insert per pair.
    "Session.update": _observe_mutation(2),
    **{entry: _observe_answer for entry in _ANSWER_TERMINALS},
}


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` with *tracer*'s spans."""
    for entry, _layer, _kind, module_name, path in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(tracer.wrap(entry, raw.__func__)))
            else:
                setattr(owner, attribute, tracer.wrap(entry, raw))
            continue
        original = getattr(module, path)
        wrapper = tracer.wrap(entry, original)
        # Rebind every name that refers to the function, so callers that
        # imported it with ``from ... import`` see the wrapper too.
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attribute, wrapper)


def per_layer_metrics(tracer: Tracer, ops: int, cache: Dict[str, float], process: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run, as ``name -> (value, unit)``.

    *cache* holds the hit ratios and evictions summed over the ops;
    *process* the intern-table and evaluation-memo sizes at the end.
    """
    ops_self: Counter = Counter()
    for entry, seconds in tracer.self_seconds["ops"].items():
        ops_self[_KIND_OF[entry]] += seconds
    setup_self: Counter = Counter()
    for entry, seconds in tracer.self_seconds["setup"].items():
        setup_self[_KIND_OF[entry]] += seconds
    calls = tracer.calls["ops"]

    def per_op(kind: str) -> Tuple[float, str]:
        return (1000.0 * ops_self[kind] / ops, "ms")

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    refreshes = sum(tracer.refresh_modes.values())
    metrics: Dict[str, Tuple[float, str]] = {
        "algebra.parse_ms_per_op": per_op("algebra.parse"),
        "tables.coerce_s": (setup_self["tables.coerce"], "s"),
        # from_ctable builds its accumulator through add_rows.
        "ctalgebra.stats_s": (setup_self["ctalgebra.stats"] + setup_self["ctalgebra.stats_delta"], "s"),
        "ctalgebra.stats_delta_ms_per_op": per_op("ctalgebra.stats_delta"),
        "ctalgebra.plan_ms_per_op": per_op("ctalgebra.plan"),
        "ctalgebra.optimize_ms_per_op": per_op("ctalgebra.optimize"),
        "ctalgebra.verify_ms_per_op": per_op("ctalgebra.verify"),
        "physical.lower_ms_per_op": per_op("physical.lower"),
        "physical.execute_self_ms_per_op": per_op("physical.execute"),
        "physical.materialize_ms_per_op": per_op("physical.materialize"),
        "physical.rows_examined_per_row_returned": (share(tracer.rows_scanned, tracer.rows_returned), "rows/row"),
        "physical.answer_condition_size": (share(tracer.condition_nodes, tracer.rows_returned), "nodes/row"),
        "engine.register_s": (setup_self["engine.register"], "s"),
        "engine.terminal_self_ms_per_op": per_op("engine.terminal"),
        "engine.plan_cache_hit_ratio": (cache["plan_hit_ratio"], "ratio"),
        "engine.result_cache_hit_ratio": (cache["result_hit_ratio"], "ratio"),
        "engine.result_cache_evictions": (cache["result_evictions"], "count"),
        "engine.circuit_cache_hit_ratio": (cache["circuit_hit_ratio"], "ratio"),
        "ivm.view_build_s": (tracer.view_build_seconds, "s"),
        "ivm.mutate_ms_per_op": per_op("ivm.mutate"),
        "ivm.refresh_self_ms_per_op": per_op("ivm.refresh"),
        "ivm.delta_rows_per_op": (tracer.delta_rows / ops, "rows"),
        "ivm.fallback_ratio": (share(tracer.refresh_modes["fallback"], refreshes), "ratio"),
        "logic.shannon_ms_per_op": per_op("logic.shannon"),
        "logic.compile_ms_per_op": per_op("logic.compile"),
        "logic.sat_ms_per_op": per_op("logic.sat"),
        "logic.intern_table_size": (process["intern_table_size"], "count"),
        "logic.eval_memo_entries": (process["eval_memo_entries"], "count"),
        "prob.compile_self_ms_per_op": per_op("prob.compile"),
        "prob.wmc_count_ms_per_op": per_op("prob.wmc_count"),
        "prob.route_share_wmc": (share(calls["compile_probability"], calls["Dataset.probability"]), "ratio"),
        "worlds.certain_ms_per_op": per_op("worlds.certain"),
        "worlds.possible_ms_per_op": per_op("worlds.possible"),
        "worlds.membership_checks_per_answer": (share(calls["membership_condition"], tracer.answers), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.failures"] = (tracer.failures["ops"][layer] + tracer.failures["setup"][layer], "count")
    return metrics
