"""Benchmark runner: executes the E01–E24 suite and times the PR's fast paths.

Produces ``BENCH_*.json`` files so every PR records its performance
story::

    PYTHONPATH=src python benchmarks/runner.py            # full run
    PYTHONPATH=src python benchmarks/runner.py --quick    # CI-sized run

Three things happen:

1. the ``bench_e01..e20`` pytest files run (``--benchmark-disable``: each
   benchmarked callable executes once, asserting the paper artifacts
   still regenerate);
2. headline workloads are timed **against the seed code paths, which
   remain in-tree** (written to ``--output``, default ``BENCH_pr1.json``):

   - ``join_heavy`` — an E08-style plan ``π̄[0,3](σ̄[1=2](L ×̄ R))``.
     Seed route: ``select_bar(product_bar(...))`` (blind nested loop);
     optimized route: the fused ``join_bar`` equijoin hash partitioning
     used by ``translate_query``.
   - ``world_enumeration`` — repeated ``Mod``-level query answering.
     Seed route: evaluation memo disabled; optimized: memo enabled
     (shared interned sub-formulas are evaluated once per distinct
     valuation restriction).
   - ``condition_engine`` — repeated condition composition/simplify on
     shared sub-formulas, reporting interning hit rates.

3. the **planner ablations E21–E24** run (written to
   ``--planner-output``, default ``BENCH_pr2.json``): each workload
   evaluates the same query verbatim (``optimize=False``) and through
   the rule-based optimizer (``optimize=True``), asserts
   ``ctables_equivalent`` on the two answers, and reports the speedup;

   - ``e21_selection_pushdown`` — one-sided selections high above a
     product; pushdown shrinks both sides before pairing.
   - ``e22_join_reordering`` — a three-way join written in the worst
     order; the greedy reorder joins through the small relation first.
   - ``e23_deep_plan`` — projection + selection pushdown through a deep
     plan with a difference on top.
   - ``e24_dead_branch`` — a union with an unsatisfiable branch over an
     expensive product; SAT-based pruning skips the whole region.

4. the **engine/session workloads E25–E27** run (written to
   ``--engine-output``, default ``BENCH_pr3.json``), ablating the
   session layer against the flat per-call API:

   - ``e25_prepared_hot_loop`` — one query executed ``iters`` times.
     Legacy route: ``apply_query_to_ctable`` per call (re-translates
     and re-plans every time); prepared route: one ``Session.prepare``,
     plan cached in the engine's LRU, execution only per call.  A third
     arm re-plans with the optimizer per call to isolate the caching
     gain from the plan-quality gain.
   - ``e26_registry_coercion`` — an or-set table queried repeatedly.
     Legacy route re-runs ``ctable_of`` per call; the session registry
     coerces once at ``register`` and caches per-table stats.
   - ``e27_mixed_session`` — a workload over four representation
     systems at once (c-table, ?-table, or-set table, pc-table),
     including a two-relation join; the session serves all of it from
     cached coercions and cached plans.

5. the **physical-executor ablations E28–E30** run (written to
   ``--physical-output``, default ``BENCH_pr4.json``), timing the
   vectorized batch runtime of :mod:`repro.physical` against the
   interpreted lifted operators on structurally identical answers:

   - ``e28_vectorized_scan`` — a selection-heavy scan; ``FilterOp``
     runs the predicate's compiled kernel, folding constant rows
     without building a formula.
   - ``e29_generalized_hash_join`` — a two-key equijoin + residual;
     both sides hash-partition, the vectorized side runs the residual
     predicate's compiled kernel on hash-matched pairs.
   - ``e30_result_cache_hot_loop`` — repeated identical reads; the
     engine's result cache serves every read after the first without
     executing the plan at all.

6. the **symbolic-equivalence workloads E34–E36** run (written to
   ``--equivalence-output``, default ``BENCH_pr7.json``), pitting the
   SAT/BDD condition-equivalence engine against witness-domain world
   enumeration:

   - ``e34_equivalence_scaling`` — a 100-variable boolean c-table pair
     (``~1.3e30`` worlds per side, far beyond any enumerable witness
     domain) decided symbolically in milliseconds: ``True`` on the
     Mod-equal reordered ring, ``False`` on the strengthened ring; an
     enumeration oracle cross-check runs at a feasible variable count.
   - ``e35_semantic_verify_overhead`` — the optimizing planner timed
     unverified, with the syntactic verifier, and with the semantic
     (translation-validation) verifier proving condition equivalence
     after every rewrite.
   - ``e36_symbolic_scaling`` — runtime curves: enumeration climbing
     ``2^variables`` on small counts vs the symbolic engine flat-ish out
     to 100 variables.

7. the **probability-at-scale workloads E37–E39** run (written to
   ``--probability-output``, default ``BENCH_pr8.json``), measuring the
   knowledge-compilation route (d-DNNF + weighted model counting) that
   makes Theorem-9 probabilities exact far past enumeration:

   - ``e37_tuple_probability`` — ``P[t ∈ q(I)]`` on a 60-variable ring
     lineage (``~1.15e18`` worlds) through the full engine stack: the
     compiled WMC route must answer the exact fraction in under a
     second and agree with memoized Shannon expansion; a reduced-scale
     twin pins both to the Definition-13 product-space oracle.
   - ``e38_probability_hot_loop`` — the prepared probability hot loop:
     circuit-cache hits (memoized compiled conditions) vs cold
     compiles, gated at ≥5× on the full-size run.
   - ``e39_compile_scaling`` — compile-time/count-time/circuit-size
     curves vs lineage width: linear circuit growth against
     ``2^width`` world growth.

8. the **observability workloads E40–E42** run (written to
   ``--obs-output``, default ``BENCH_pr9.json``), pricing and
   exercising the ``repro.obs`` layer:

   - ``e40_tracing_overhead`` — the identical join loop raw (bare
     ``execute_physical``), with tracing disabled (≤5% over raw on the
     full run), and with tracing enabled (≤25%).
   - ``e41_estimate_drift`` — ``explain(analyze=True)`` on a
     90%-skewed column: the estimated-vs-actual drift column must flag
     the ≥4× planner miss.
   - ``e42_cache_observability`` — prepared relational and probability
     hot loops read back through one ``Engine.metrics_snapshot()``:
     the unified cache stats must show the hits the loops generated.

9. the **incremental-maintenance workloads E43–E45** run (written to
    ``--ivm-output``, default ``BENCH_pr10.json``), measuring the
    signed-delta view maintenance of ``maintenance="incremental"``:

    - ``e43_refresh_vs_rerun`` — a standing join refreshed after 1%
      per-cycle churn: ``refresh()`` vs full re-execution, gated ≥10×
      on the full run with structural identity asserted on *every*
      cycle, unconditionally.
    - ``e44_update_throughput`` — sustained mutate→refresh cycles;
      delta rows/second read back through ``metrics_snapshot()``.
    - ``e45_cancellation_fast_path`` — no-op refreshes and
      insert-then-delete cancellations against the full-rerun price.

The workloads are sized so the full run finishes in a couple of minutes;
``--quick`` shrinks them for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import (  # noqa: E402
    CTable,
    Engine,
    OrSet,
    OrSetRow,
    OrSetTable,
    PCTable,
    QRow,
    QTable,
    Var,
    conj,
    ctable_of,
    eq,
    ne,
)
from repro.algebra import (  # noqa: E402
    col_eq,
    col_eq_const,
    col_ne,
    col_ne_const,
    diff,
    proj,
    prod,
    rel,
    sel,
    union,
)
from repro.ctalgebra.lifted import (  # noqa: E402
    join_bar,
    product_bar,
    project_bar,
    select_bar,
)
from repro.ctalgebra.translate import (  # noqa: E402
    apply_query_to_ctable,
    plan_for_query,
    translate_query,
)
from repro.logic.atoms import boolvar  # noqa: E402
from repro.logic.counting import probability  # noqa: E402
from repro.prob.wmc import compile_probability  # noqa: E402
from repro.worlds.compare import ctables_equivalent  # noqa: E402
from repro.logic.evaluation import (  # noqa: E402
    clear_evaluation_caches,
    evaluation_cache_stats,
    set_evaluation_cache,
)
from repro.logic.simplify import simplify  # noqa: E402
from repro.logic.syntax import TOP, interning_stats  # noqa: E402
from repro.obs.names import (  # noqa: E402
    IVM_DELTA_ROWS_TOTAL,
    IVM_MUTATIONS_TOTAL,
    IVM_REFRESH_SECONDS,
    IVM_REFRESH_TOTAL,
)
from repro.physical.lower import execute_physical  # noqa: E402


def _timed(callable_, repeats: int) -> float:
    """Median wall time of *callable_* over *repeats* runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _assert_structurally_identical(reference, candidate, context: str) -> None:
    """Positional identity: same rows in the same order, the same interned
    condition objects.  (``CTable.__eq__`` compares row *sets*, which
    would let a row-reordering bug through.)"""
    assert len(candidate.rows) == len(reference.rows), context
    for expected, actual in zip(reference.rows, candidate.rows):
        assert actual.values == expected.values, context
        assert actual.condition is expected.condition, context


# ----------------------------------------------------------------------
# Workload: projection/join-heavy plans (E08-style)
# ----------------------------------------------------------------------

def _join_tables(rows: int):
    """Two constant-heavy c-tables with a sprinkle of symbolic rows."""
    x, y = Var("x"), Var("y")
    left_rows = []
    right_rows = []
    for index in range(rows):
        left_rows.append(((index % 97, index % 13), ne(x, index % 7)))
        right_rows.append(((index % 13, index % 89), eq(y, index % 5)))
    # Symbolic join columns exercise the fallback pairing.
    left_rows.append(((0, x), eq(x, 1)))
    right_rows.append(((y, 0), ne(y, 2)))
    return CTable(left_rows, arity=2), CTable(right_rows, arity=2)


def run_join_heavy(rows: int, plans: int, repeats: int) -> dict:
    left, right = _join_tables(rows)
    predicate = col_eq(1, 2)
    columns = (0, 3)

    def seed_route():
        for _ in range(plans):
            project_bar(
                select_bar(product_bar(left, right), predicate), columns
            )

    def optimized_route():
        for _ in range(plans):
            project_bar(join_bar(left, right, predicate), columns)

    # Same result either way — assert it before timing.
    seed_table = project_bar(
        select_bar(product_bar(left, right), predicate), columns
    )
    fast_table = project_bar(join_bar(left, right, predicate), columns)
    assert seed_table == fast_table, "join fast path diverged from seed"

    baseline = _timed(seed_route, repeats)
    optimized = _timed(optimized_route, repeats)
    return {
        "rows_per_table": rows + 1,
        "plans": plans,
        "answer_rows": len(fast_table),
        "baseline_seconds": baseline,
        "optimized_seconds": optimized,
        "speedup": baseline / optimized if optimized else float("inf"),
    }


# ----------------------------------------------------------------------
# Workload: possible-world enumeration (Mod-level certain answers)
# ----------------------------------------------------------------------

def _difference_answer_table(base_rows: int) -> CTable:
    """Symbolic answer of a difference-over-join plan.

    ``−̄`` conjoins, per kept row, a negated membership condition for
    every opposing row, so the answer's conditions are large and — thanks
    to interning — share their sub-formulas across rows.  Enumerating
    ``Mod`` of such a table is the shape where the evaluation memo pays:
    each shared sub-condition is evaluated once per distinct restriction
    of the valuation instead of once per row per world.
    """
    x, y, z = Var("x"), Var("y"), Var("z")
    variables = (x, y, z)
    rows = []
    for index in range(base_rows):
        rows.append(
            (
                (index % 4, variables[index % 3]),
                ne(variables[index % 3], index % 5),
            )
        )
    table = CTable(rows, arity=2)
    query = diff(
        proj(sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3]),
        proj(rel("V", 2), [1, 0]),
    )
    return apply_query_to_ctable(query, table)


def run_world_enumeration(base_rows: int, repeats: int) -> dict:
    answer = _difference_answer_table(base_rows)
    domain = answer.witness_domain()

    def enumerate_worlds():
        return sum(1 for _ in answer.possible_worlds(domain))

    set_evaluation_cache(False)
    baseline = _timed(enumerate_worlds, repeats)
    set_evaluation_cache(True)
    clear_evaluation_caches()
    optimized = _timed(enumerate_worlds, repeats)
    stats = evaluation_cache_stats()
    worlds = enumerate_worlds()
    return {
        "answer_rows": len(answer),
        "worlds": worlds,
        "baseline_seconds": baseline,
        "optimized_seconds": optimized,
        "speedup": baseline / optimized if optimized else float("inf"),
        "cache_entries": stats["evaluate_entries"],
    }


# ----------------------------------------------------------------------
# Workload: condition composition on shared sub-formulas
# ----------------------------------------------------------------------

def run_condition_engine(width: int, repeats: int) -> dict:
    x, y, z = Var("x"), Var("y"), Var("z")

    def compose():
        acc = eq(x, y)
        for index in range(width):
            clause = conj(
                eq(x, index % 5), ne(y, index % 3), acc
            ) | conj(ne(z, index % 7), acc)
            acc = simplify(clause | acc)
        return acc

    before = interning_stats()
    elapsed = _timed(compose, repeats)
    after = interning_stats()
    # Delta over this workload only; the counters are process-cumulative.
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "width": width,
        "seconds": elapsed,
        "intern_live_nodes": after["live_nodes"],
        "intern_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


# ----------------------------------------------------------------------
# Workloads: planner ablations E21–E24 (verbatim vs optimized plans)
# ----------------------------------------------------------------------

def _planner_ablation(query, tables, repeats: int) -> dict:
    """Time the verbatim and optimized routes; assert identical Mod.

    Both arms include plan construction (the optimizer's own cost is
    charged to the optimized route), and ``ctables_equivalent`` checks
    the two answers over a joint witness domain before timing.
    """
    verbatim_table = translate_query(query, tables)
    optimized_table = translate_query(query, tables, optimize=True)
    equivalent = ctables_equivalent(verbatim_table, optimized_table)
    assert equivalent, "optimized plan diverged from the verbatim plan"
    baseline = _timed(lambda: translate_query(query, tables), repeats)
    optimized = _timed(
        lambda: translate_query(query, tables, optimize=True), repeats
    )
    return {
        "answer_rows": len(optimized_table),
        "equivalent": equivalent,
        "baseline_seconds": baseline,
        "optimized_seconds": optimized,
        "speedup": baseline / optimized if optimized else float("inf"),
    }


def run_e21_selection_pushdown(rows: int, repeats: int) -> dict:
    """E21 — one-sided selections above a product.

    The verbatim route finds no cross-operand equijoin, so it pays the
    full nested loop before filtering; pushdown filters each side to a
    sliver first.
    """
    x = Var("x")
    left = CTable(
        [((i % 13, i % 11), ne(x, i % 3)) for i in range(rows)]
        + [((x, 0), eq(x, 1))],
        arity=2,
    )
    right = CTable([(i % 13, i % 7) for i in range(rows)], arity=2)
    query = sel(
        prod(rel("L", 2), rel("R", 2)),
        conj(col_eq_const(0, 3), col_eq_const(2, 5)),
    )
    result = _planner_ablation(query, {"L": left, "R": right}, repeats)
    result["rows_per_side"] = rows
    return result


def run_e22_join_reordering(rows: int, repeats: int) -> dict:
    """E22 — a three-way join written in the worst order.

    ``A × B`` shares no join column, so the verbatim left-deep plan
    materializes their full product before ``C`` restricts anything;
    the greedy reorder joins through the small ``C`` first.
    """
    small = rows // 12 + 2
    a = CTable([(i % 9, i % 23) for i in range(rows)], arity=2)
    b = CTable([(i % 7, i % 19) for i in range(rows)], arity=2)
    c = CTable([(i % 23, (i * 3) % 19) for i in range(small)], arity=2)
    query = sel(
        prod(prod(rel("A", 2), rel("B", 2)), rel("C", 2)),
        conj(col_eq(1, 4), col_eq(3, 5)),
    )
    result = _planner_ablation(query, {"A": a, "B": b, "C": c}, repeats)
    result["rows_per_big_side"] = rows
    result["rows_small_side"] = small
    return result


def run_e23_deep_plan(rows: int, repeats: int) -> dict:
    """E23 — pushdown through a deep plan with a difference on top."""
    x = Var("x")
    left = CTable(
        [((i % 11, i % 13), ne(x, i % 2)) for i in range(rows)], arity=2
    )
    right = CTable([(i % 13, i % 5) for i in range(rows)], arity=2)
    s = CTable([(i % 7, i % 3) for i in range(rows)], arity=2)
    inner = proj(
        sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq_const(0, 1), col_eq(1, 2)),
        ),
        [0, 3],
    )
    outer = proj(
        sel(prod(inner, rel("S", 2)), col_eq_const(2, 4)), [1, 3]
    )
    query = diff(outer, proj(rel("S", 2), [1, 0]))
    result = _planner_ablation(
        query, {"L": left, "R": right, "S": s}, repeats
    )
    result["rows_per_side"] = rows
    return result


def run_e24_dead_branch(rows: int, repeats: int) -> dict:
    """E24 — a union with an unsatisfiable branch over a big product.

    Verbatim evaluation builds every pair only for each condition to
    fold to ``false``; the optimizer proves the selection unsatisfiable
    (DPLL + congruence) and prunes the whole region to an empty table
    that keeps the branch's domains and global condition.
    """
    left = CTable([(i % 13, i % 11) for i in range(rows)], arity=2)
    right = CTable([(i % 11, i % 7) for i in range(rows)], arity=2)
    good = proj(rel("L", 2), [0, 1])
    dead = proj(
        sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq_const(0, 1), col_eq_const(0, 2)),
        ),
        [0, 3],
    )
    query = union(good, dead)
    result = _planner_ablation(query, {"L": left, "R": right}, repeats)
    result["rows_per_side"] = rows
    return result


PLANNER_WORKLOADS = (
    ("e21_selection_pushdown", run_e21_selection_pushdown),
    ("e22_join_reordering", run_e22_join_reordering),
    ("e23_deep_plan", run_e23_deep_plan),
    ("e24_dead_branch", run_e24_dead_branch),
)


# ----------------------------------------------------------------------
# Workloads: engine/session ablations E25–E27 (flat API vs Session)
# ----------------------------------------------------------------------

def _hot_loop_table(rows: int) -> CTable:
    x, y = Var("x"), Var("y")
    entries = [((i % 13, i % 7), ne(x, i % 3)) for i in range(rows)]
    entries.append(((x, 1), eq(x, 2)))
    entries.append(((y, 3), ne(y, 1)))
    return CTable(entries, arity=2)


HOT_QUERY = proj(
    sel(
        prod(rel("V", 2), rel("V", 2)),
        conj(col_eq(1, 2), col_eq_const(0, 3)),
    ),
    [0, 3],
)


def run_e25_prepared_hot_loop(rows: int, iters: int, repeats: int) -> dict:
    """E25 — one repeated query: per-call flat API vs a prepared session.

    The flat route re-translates and re-plans ``q̄`` on every call (the
    pre-engine behavior of every top-level function); the session plans
    once — optimizer on, plan memoized in the engine's LRU keyed on
    (query, schema, stats fingerprint) — and pays only execution per
    call.  ``replanned`` runs the optimizer per call to split the gain:
    plan *quality* (baseline/replanned) vs plan *caching*
    (replanned/prepared).
    """
    table = _hot_loop_table(rows)
    # Result caching off: E25 measures plan caching + execution; the
    # result cache has its own workload (E30).
    engine = Engine(result_cache_size=0)
    session = engine.session(V=table)
    prepared = session.prepare(HOT_QUERY)

    flat = apply_query_to_ctable(HOT_QUERY, table)
    replanned = apply_query_to_ctable(HOT_QUERY, table, optimize=True)
    hot = prepared.execute()
    equivalent = ctables_equivalent(flat, hot) and ctables_equivalent(
        replanned, hot
    )
    assert equivalent, "prepared diverged from the flat API"

    def flat_loop():
        for _ in range(iters):
            apply_query_to_ctable(HOT_QUERY, table)

    def replanned_loop():
        for _ in range(iters):
            apply_query_to_ctable(HOT_QUERY, table, optimize=True)

    def prepared_loop():
        for _ in range(iters):
            prepared.execute()

    baseline = _timed(flat_loop, repeats)
    replanned_time = _timed(replanned_loop, repeats)
    cached = _timed(prepared_loop, repeats)
    return {
        "rows_per_table": rows + 2,
        "iterations": iters,
        "answer_rows": len(hot),
        "equivalent": equivalent,
        "baseline_seconds": baseline,
        "replanned_seconds": replanned_time,
        "optimized_seconds": cached,
        "speedup": baseline / cached if cached else float("inf"),
        "speedup_caching_only": (
            replanned_time / cached if cached else float("inf")
        ),
        "plan_cache": engine.plan_cache_stats(),
    }


def _orset_inventory(rows: int) -> OrSetTable:
    entries = []
    for i in range(rows):
        entries.append(
            OrSetRow(
                (i % 17, OrSet((i % 5, (i + 1) % 5, (i + 2) % 5))),
                i % 4 == 0,
            )
        )
    return OrSetTable(entries, arity=2)


def run_e26_registry_coercion(rows: int, iters: int, repeats: int) -> dict:
    """E26 — repeated queries over a weak representation system.

    The flat route must embed the or-set table into a c-table
    (``ctable_of``) on every call; the registry coerces once at
    ``register`` and caches the embedding and its statistics.
    """
    inventory = _orset_inventory(rows)
    query = proj(sel(rel("O", 2), col_eq_const(1, 2)), [0])
    engine = Engine(result_cache_size=0)  # E30 measures result caching
    session = engine.session(O=inventory)
    prepared = session.prepare(query)

    # Equivalence: structurally identical against the same-plan flat
    # route over the registry's coerced table (coerced tables have one
    # variable per or-set cell, so a full-size Mod enumeration is
    # infeasible by design) ...
    hot = prepared.execute()
    structurally_equal = (
        apply_query_to_ctable(query, session.table("O"), optimize=True)
        == hot
    )
    assert structurally_equal, "session diverged from flat API"
    # ... plus Mod-level equivalence at a small size, where the world
    # count is tractable.
    small = _orset_inventory(6)
    small_session = Engine().session(O=small)
    mod_equivalent = ctables_equivalent(
        apply_query_to_ctable(query, ctable_of(small)),
        small_session.query(query).collect(),
    )
    assert mod_equivalent, "session diverged from flat API at Mod level"
    equivalent = structurally_equal and mod_equivalent

    # Same optimizer setting on both arms: the speedup isolates what the
    # registry caches (coercion, statistics, the planned plan).
    def flat_loop():
        for _ in range(iters):
            apply_query_to_ctable(query, ctable_of(inventory), optimize=True)

    def session_loop():
        for _ in range(iters):
            prepared.execute()

    baseline = _timed(flat_loop, repeats)
    cached = _timed(session_loop, repeats)
    return {
        "orset_rows": rows,
        "iterations": iters,
        "answer_rows": len(hot),
        "equivalent": equivalent,
        "baseline_seconds": baseline,
        "optimized_seconds": cached,
        "speedup": baseline / cached if cached else float("inf"),
    }


def run_e27_mixed_session(rows: int, iters: int, repeats: int) -> dict:
    """E27 — one session serving four representation systems at once.

    A c-table joins a ?-table (a *two-relation* query the flat
    single-table API cannot even express — it needs explicit
    ``translate_query`` bindings), plus filters over an or-set table
    and a pc-table.  The flat route re-coerces and re-plans per call.
    """
    from fractions import Fraction

    x = Var("x")
    # Finite-domain: the lifted operators refuse to mix infinite-domain
    # tables with the finite-domain embeddings of the weak systems.
    vtable = CTable(
        [((i % 13, i % 7), ne(x, i % 3)) for i in range(rows)],
        arity=2,
        domains={"x": (0, 1, 2, 3)},
    )
    qtable = QTable(
        [QRow((i % 7, i % 5), i % 3 == 0) for i in range(rows // 2)]
    )
    orset = _orset_inventory(rows)
    pctable = PCTable(
        [((i % 5, i % 3), eq(Var(f"p{i % 4}"), 1)) for i in range(rows // 4)],
        {
            f"p{i}": {0: Fraction(1, 3), 1: Fraction(2, 3)}
            for i in range(4)
        },
        arity=2,
    )
    workload = [
        (
            "join_vq",
            proj(
                sel(prod(rel("V", 2), rel("Q", 2)), col_eq(1, 2)), [0, 3]
            ),
            {"V": vtable, "Q": qtable},
        ),
        (
            "filter_orset",
            proj(sel(rel("O", 2), col_eq_const(0, 1)), [1]),
            {"O": orset},
        ),
        ("project_pc", proj(rel("P", 2), [0]), {"P": pctable}),
    ]

    engine = Engine(result_cache_size=0)  # E30 measures result caching
    session = engine.session(V=vtable, Q=qtable, O=orset, P=pctable)
    prepared = {name: session.prepare(query) for name, query, _ in workload}

    def flat_bindings(sources):
        return {
            name: (
                source.table
                if isinstance(source, PCTable)
                else ctable_of(source)
            )
            for name, source in sources.items()
        }

    # Structural equality against the same-plan flat route over the
    # registry's coerced tables; the coercions carry one variable per
    # or-set cell / optional row, putting a full Mod enumeration out of
    # reach by design (Mod soundness at small sizes is covered by E26
    # and the engine test suite).
    equivalent = True
    for name, query, sources in workload:
        flat = translate_query(
            query,
            {rel_name: session.table(rel_name) for rel_name in sources},
            optimize=True,
        )
        equivalent = equivalent and flat == prepared[name].execute()
        assert equivalent, name

    # Same optimizer setting on both arms (cf. E25's replanned arm): the
    # speedup isolates coercion + plan caching, not plan quality.
    def flat_loop():
        for _ in range(iters):
            for name, query, sources in workload:
                translate_query(query, flat_bindings(sources), optimize=True)

    def session_loop():
        for _ in range(iters):
            for name, _, _ in workload:
                prepared[name].execute()

    baseline = _timed(flat_loop, repeats)
    cached = _timed(session_loop, repeats)
    return {
        "rows": rows,
        "iterations": iters,
        "queries": [name for name, _, _ in workload],
        "equivalent": equivalent,
        "baseline_seconds": baseline,
        "optimized_seconds": cached,
        "speedup": baseline / cached if cached else float("inf"),
    }


ENGINE_WORKLOADS = (
    ("e25_prepared_hot_loop", run_e25_prepared_hot_loop),
    ("e26_registry_coercion", run_e26_registry_coercion),
    ("e27_mixed_session", run_e27_mixed_session),
)


# ----------------------------------------------------------------------
# Workloads: physical executor ablations E28–E30
# (interpreted lifted operators vs the vectorized batch runtime)
# ----------------------------------------------------------------------

def _executor_pair(query, tables):
    """Prepared queries for both executors over identical registries.

    Result caching is off on both engines — these workloads time the
    physical runtime itself; E30 times the result cache.
    """
    interpreted = (
        Engine(executor="interpreted", result_cache_size=0)
        .session(**tables)
        .prepare(query)
    )
    vectorized = (
        Engine(executor="vectorized", result_cache_size=0)
        .session(**tables)
        .prepare(query)
    )
    return interpreted, vectorized


def _executor_ablation(make_tables, query, rows, check_rows, iters, repeats):
    """Time interpreted vs vectorized; check equivalence both ways.

    At the benchmarked size the two answers are asserted *structurally
    equal* (same rows, same interned conditions — which implies equal
    ``Mod``); ``ctables_equivalent`` additionally re-checks Mod-level
    equality on a reduced instance of the same workload, where the world
    enumeration is tractable.
    """
    small = make_tables(check_rows)
    small_interp, small_vect = _executor_pair(query, small)
    mod_equivalent = ctables_equivalent(
        small_interp.execute(), small_vect.execute()
    )
    assert mod_equivalent, "vectorized runtime diverged at Mod level"

    tables = make_tables(rows)
    interpreted, vectorized = _executor_pair(query, tables)
    interpreted_answer = interpreted.execute()
    vectorized_answer = vectorized.execute()
    structurally_equal = interpreted_answer == vectorized_answer
    assert structurally_equal, "vectorized runtime diverged structurally"

    def interpreted_loop():
        for _ in range(iters):
            interpreted.execute()

    def vectorized_loop():
        for _ in range(iters):
            vectorized.execute()

    baseline = _timed(interpreted_loop, repeats)
    optimized = _timed(vectorized_loop, repeats)
    return {
        "rows": rows,
        "iterations": iters,
        "answer_rows": len(vectorized_answer),
        "equivalent": structurally_equal and mod_equivalent,
        "baseline_seconds": baseline,
        "optimized_seconds": optimized,
        "speedup": baseline / optimized if optimized else float("inf"),
    }


def run_e28_vectorized_scan(rows: int, iters: int, repeats: int) -> dict:
    """E28 — a selection-heavy scan with a wide predicate.

    The interpreted ``select_bar`` rebuilds a substitution and re-walks
    the predicate for every row; the vectorized ``FilterOp`` runs the
    predicate's compiled kernel, which folds each constant (in)equality
    without building an atom, over the scan batch cached on the table.
    The predicate has no top-level ``column = constant`` conjunct, so
    every row is visited (no arrangement key).
    """
    x, y = Var("x"), Var("y")

    def make_tables(size):
        entries = [((i % 13, i % 11), ne(x, i % 7)) for i in range(size)]
        entries.append(((x, 3), eq(x, 1)))
        entries.append(((5, y), ne(y, 4)))
        return {"V": CTable(entries, arity=2)}

    predicate = conj(
        col_ne_const(0, 5),
        col_eq_const(1, 3) | col_eq_const(1, 7) | col_eq_const(0, 2),
    )
    query = proj(sel(rel("V", 2), predicate), [1, 0])
    return _executor_ablation(
        make_tables, query, rows, max(40, rows // 40), iters, repeats
    )


def run_e29_generalized_hash_join(rows: int, iters: int, repeats: int) -> dict:
    """E29 — a two-key equijoin with a residual disequality.

    Both executors hash-partition on the constant keys (the fused
    ``join_bar`` generalized inside the plan).  The interpreted one
    re-buckets the right operand on every execution; the vectorized
    ``HashJoinOp`` probes the arrangement cached on the (scan-rooted)
    indexed table, and runs the residual predicate's compiled kernel on
    hash-matched pairs.
    """
    x, y = Var("x"), Var("y")

    def make_tables(size):
        left = [
            ((i % 19, i % 13, i % 7), ne(x, i % 5)) for i in range(size)
        ]
        left.append(((x, 0, 1), eq(x, 2)))
        right = [
            ((i % 13, i % 7, i % 17), eq(y, i % 3)) for i in range(size)
        ]
        right.append(((y, 2, 3), ne(y, 1)))
        return {
            "L": CTable(left, arity=3),
            "R": CTable(right, arity=3),
        }

    predicate = conj(col_eq(1, 3), col_eq(2, 4), col_ne(0, 5))
    query = proj(sel(prod(rel("L", 3), rel("R", 3)), predicate), [0, 5])
    return _executor_ablation(
        make_tables, query, rows, max(24, rows // 20), iters, repeats
    )


def run_e30_result_cache_hot_loop(rows: int, iters: int, repeats: int) -> dict:
    """E30 — repeated identical reads against an unchanged registry.

    Both arms run the vectorized executor and fresh ``Dataset`` objects
    per read (no per-dataset memoization applies); the cached arm's
    engine serves every read after the first from the result cache,
    skipping plan lookup, lowering, and execution entirely.
    """
    x, y = Var("x"), Var("y")
    entries = [((i % 13, i % 7), ne(x, i % 3)) for i in range(rows)]
    entries.append(((x, 1), eq(x, 2)))
    entries.append(((y, 3), ne(y, 1)))
    table = CTable(entries, arity=2)
    query = proj(
        sel(
            prod(rel("V", 2), rel("V", 2)),
            conj(col_eq(1, 2), col_eq_const(0, 3)),
        ),
        [0, 3],
    )

    uncached_engine = Engine(result_cache_size=0)
    uncached = uncached_engine.session(V=table)
    cached_engine = Engine()
    cached = cached_engine.session(V=table)

    first = cached.query(query).collect()
    repeated = cached.query(query).collect()
    served_from_cache = repeated is first
    assert served_from_cache, "result cache did not serve the repeated read"
    equivalent = uncached.query(query).collect() == first
    assert equivalent, "cached answer diverged from uncached execution"

    def uncached_loop():
        for _ in range(iters):
            uncached.query(query).collect()

    def cached_loop():
        for _ in range(iters):
            cached.query(query).collect()

    baseline = _timed(uncached_loop, repeats)
    optimized = _timed(cached_loop, repeats)
    return {
        "rows": rows + 2,
        "iterations": iters,
        "answer_rows": len(first),
        "equivalent": equivalent,
        "served_from_cache": served_from_cache,
        "baseline_seconds": baseline,
        "optimized_seconds": optimized,
        "speedup": baseline / optimized if optimized else float("inf"),
        "result_cache": cached_engine.result_cache_stats(),
    }


PHYSICAL_WORKLOADS = (
    ("e28_vectorized_scan", run_e28_vectorized_scan),
    ("e29_generalized_hash_join", run_e29_generalized_hash_join),
    ("e30_result_cache_hot_loop", run_e30_result_cache_hot_loop),
)


# ----------------------------------------------------------------------
# Workloads: symbolic equivalence & semantic verification (E34–E36)
# ----------------------------------------------------------------------

def _flag_ring_tables(variables: int):
    """Three boolean c-tables over a ring of presence flags.

    ``same`` guards row ``i`` with ``pᵢ ∧ pᵢ₊₁`` (indices mod
    *variables*); ``reordered`` lists the identical rows in reverse
    order (Mod-equal, syntactically shuffled); ``strengthened`` conjoins
    one extra flag onto the last row, dropping exactly the worlds where
    that flag is false — a genuine Mod difference hiding in one corner
    of a ``2^variables`` valuation space.
    """
    flags = [boolvar(f"p{index:03d}") for index in range(variables)]

    def ring_rows(strengthen: bool = False):
        rows = []
        for index in range(variables):
            condition = conj(flags[index], flags[(index + 1) % variables])
            if strengthen and index == variables - 1:
                condition = conj(condition, flags[variables // 2])
            rows.append(((index, index + 1), condition))
        return rows

    same = CTable(ring_rows(), arity=2)
    reordered = CTable(list(reversed(ring_rows())), arity=2)
    strengthened = CTable(ring_rows(strengthen=True), arity=2)
    return same, reordered, strengthened


def run_e34_equivalence_scaling(
    variables: int, crosscheck_variables: int, repeats: int
) -> dict:
    """Symbolic equivalence at a scale no enumeration can touch.

    The headline pair has *variables* boolean variables, so its witness
    enumeration would visit ``2^variables`` valuations per side; the
    symbolic engine decides both the equivalent (reordered) and the
    inequivalent (strengthened) pair in milliseconds.  A cross-check at
    *crosscheck_variables* — where enumeration still terminates —
    asserts the two engines agree.
    """
    same, reordered, strengthened = _flag_ring_tables(variables)

    equivalent_verdict = ctables_equivalent(same, reordered, enumerate=False)
    strengthened_verdict = ctables_equivalent(
        same, strengthened, enumerate=False
    )
    symbolic_equivalent = _timed(
        lambda: ctables_equivalent(same, reordered, enumerate=False), repeats
    )
    symbolic_strengthened = _timed(
        lambda: ctables_equivalent(same, strengthened, enumerate=False),
        repeats,
    )

    small = _flag_ring_tables(crosscheck_variables)
    pairs = ((small[0], small[1]), (small[0], small[2]))
    agreement = all(
        ctables_equivalent(left, right, enumerate=False)
        == ctables_equivalent(left, right, enumerate=True)  # enumeration-ok: oracle cross-check at feasible scale
        for left, right in pairs
    )
    enumeration_seconds = _timed(
        lambda: [
            ctables_equivalent(left, right, enumerate=True)  # enumeration-ok: oracle cross-check at feasible scale
            for left, right in pairs
        ],
        repeats,
    )
    symbolic_small_seconds = _timed(
        lambda: [
            ctables_equivalent(left, right, enumerate=False)
            for left, right in pairs
        ],
        repeats,
    )
    return {
        "variables": variables,
        "equivalent_pair_verdict": equivalent_verdict,
        "strengthened_pair_verdict": strengthened_verdict,
        "symbolic_seconds_equivalent_pair": symbolic_equivalent,
        "symbolic_seconds_strengthened_pair": symbolic_strengthened,
        "enumeration_worlds_at_scale": float(2 ** variables),
        "enumeration_feasible_at_scale": variables <= 20,
        "crosscheck_variables": crosscheck_variables,
        "crosscheck_agrees": agreement,
        "crosscheck_enumeration_seconds": enumeration_seconds,
        "crosscheck_symbolic_seconds": symbolic_small_seconds,
        "crosscheck_speedup": (
            enumeration_seconds / symbolic_small_seconds
            if symbolic_small_seconds
            else float("inf")
        ),
    }


def run_e35_semantic_verify_overhead(
    rows: int, iters: int, repeats: int
) -> dict:
    """Cost of translation validation along the optimizing planner.

    The same join-heavy query is planned *iters* times unverified, with
    the syntactic verifier, and with the semantic verifier (condition-
    equivalence proofs after every rewrite).  ``plan_for_query`` raises
    on any failed proof, so completing the semantic arm certifies every
    rewrite the optimizer fired on this plan.
    """
    left, right = _join_tables(rows)
    tables = {"L": left, "R": right}
    query = proj(sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), [0, 3])

    def planning(verify: bool, mode: str):
        def loop():
            for _ in range(iters):
                plan_for_query(
                    query, tables, optimize=True,
                    verify=verify, verify_mode=mode,
                )
        return loop

    baseline = _timed(planning(False, "syntactic"), repeats)
    syntactic = _timed(planning(True, "syntactic"), repeats)
    semantic = _timed(planning(True, "semantic"), repeats)
    return {
        "rows_per_table": rows + 1,
        "iterations": iters,
        "baseline_seconds": baseline,
        "syntactic_seconds": syntactic,
        "semantic_seconds": semantic,
        "syntactic_overhead": (
            syntactic / baseline if baseline else float("inf")
        ),
        "semantic_overhead": (
            semantic / baseline if baseline else float("inf")
        ),
        "semantic_verified": True,
    }


def run_e36_symbolic_scaling(
    enumeration_points, symbolic_points, repeats: int
) -> dict:
    """Runtime curves: enumeration vs symbolic as variables grow.

    Enumeration is timed on the (small) counts where it terminates and
    grows as ``2^variables``; the symbolic engine is timed far past
    enumeration's horizon and grows with condition size only.  Every
    timed pair is the Mod-equal reordered ring, so all verdicts must be
    ``True``.
    """
    enumeration_curve = {}
    for variables in enumeration_points:
        same, reordered, _ = _flag_ring_tables(variables)
        enumeration_curve[str(variables)] = _timed(
            lambda: ctables_equivalent(same, reordered, enumerate=True),  # enumeration-ok: scaling-curve baseline
            repeats,
        )
    symbolic_curve = {}
    verdicts = []
    for variables in symbolic_points:
        same, reordered, _ = _flag_ring_tables(variables)
        verdicts.append(ctables_equivalent(same, reordered, enumerate=False))
        symbolic_curve[str(variables)] = _timed(
            lambda: ctables_equivalent(same, reordered, enumerate=False),
            repeats,
        )
    deepest = str(max(enumeration_points))
    largest = str(max(symbolic_points))
    return {
        "enumeration_curve_seconds": enumeration_curve,
        "symbolic_curve_seconds": symbolic_curve,
        "verdicts_all_equivalent": all(verdicts),
        "symbolic_largest_vs_enumeration_deepest": (
            enumeration_curve[deepest] / symbolic_curve[largest]
            if symbolic_curve[largest]
            else float("inf")
        ),
    }


def run_equivalence_suite(quick: bool, repeats: int) -> dict:
    workloads = {}

    print("== e34_equivalence_scaling (symbolic proof vs enumeration) ==")
    e34 = run_e34_equivalence_scaling(
        variables=100,
        crosscheck_variables=6 if quick else 10,
        repeats=repeats,
    )
    workloads["e34_equivalence_scaling"] = e34
    print(
        f"   {e34['variables']} variables "
        f"(~{e34['enumeration_worlds_at_scale']:.1e} worlds/side): "
        f"equivalent pair {e34['symbolic_seconds_equivalent_pair']*1000:.1f}ms, "
        f"strengthened pair "
        f"{e34['symbolic_seconds_strengthened_pair']*1000:.1f}ms; "
        f"{e34['crosscheck_variables']}-var oracle cross-check "
        f"agrees={e34['crosscheck_agrees']} "
        f"({e34['crosscheck_speedup']:.1f}x over enumeration)"
    )

    print("== e35_semantic_verify_overhead (translation validation) ==")
    e35 = run_e35_semantic_verify_overhead(
        60 if quick else 250, 2 if quick else 5, repeats
    )
    workloads["e35_semantic_verify_overhead"] = e35
    print(
        f"   plan-only {e35['baseline_seconds']*1000:.1f}ms, "
        f"syntactic {e35['syntactic_seconds']*1000:.1f}ms "
        f"({e35['syntactic_overhead']:.1f}x), "
        f"semantic {e35['semantic_seconds']*1000:.1f}ms "
        f"({e35['semantic_overhead']:.1f}x)"
    )

    print("== e36_symbolic_scaling (runtime vs variable count) ==")
    e36 = run_e36_symbolic_scaling(
        (4, 6) if quick else (4, 6, 8, 10),
        (10, 50, 100) if quick else (10, 25, 50, 100),
        repeats,
    )
    workloads["e36_symbolic_scaling"] = e36
    enum_curve = ", ".join(
        f"{count}v {seconds*1000:.1f}ms"
        for count, seconds in e36["enumeration_curve_seconds"].items()
    )
    sym_curve = ", ".join(
        f"{count}v {seconds*1000:.1f}ms"
        for count, seconds in e36["symbolic_curve_seconds"].items()
    )
    print(f"   enumeration: {enum_curve}")
    print(f"   symbolic:    {sym_curve}")
    return workloads


# ----------------------------------------------------------------------
# Workloads: probability at scale — d-DNNF + WMC (E37–E39)
# ----------------------------------------------------------------------

def _ring_pctable(variables: int) -> PCTable:
    """A pc-table whose one answer tuple has a *variables*-flag ring lineage.

    Every row carries the same term tuple ``(0, 1)`` guarded by
    ``pᵢ ∧ pᵢ₊₁`` (indices mod *variables*), so the tuple's membership
    condition is the full ring disjunction over all flags — one lineage
    formula spanning the whole variable set, with ``2^variables``
    valuations behind it.
    """
    flags = [boolvar(f"p{index:03d}") for index in range(variables)]
    rows = [
        ((0, 1), conj(flags[index], flags[(index + 1) % variables]))
        for index in range(variables)
    ]
    distributions = {
        f"p{index:03d}": {True: Fraction(1, 3), False: Fraction(2, 3)}
        for index in range(variables)
    }
    return PCTable(rows, distributions, arity=2)


def run_e37_tuple_probability(
    variables: int, twin_variables: int, repeats: int
) -> dict:
    """E37 — exact tuple probability on a lineage no enumeration can touch.

    The full-scale arm asks ``P[(0, 1) ∈ q(I)]`` on the
    *variables*-flag ring pc-table through the whole engine stack
    (register → prepare → dataset → probability) under both the
    compiled d-DNNF route and memoized Shannon expansion; the answers
    must be the identical exact fraction.  The reduced-scale *twin* —
    the same construction at *twin_variables* flags — is small enough
    for the Definition-13 product-space oracle, which pins both
    symbolic routes to the enumeration semantics.
    """
    query = sel(rel("V", 2), col_eq_const(0, 0))
    row = (0, 1)

    engine = Engine()
    session = engine.session(V=_ring_pctable(variables))
    prepared = session.prepare(query)
    prepared.dataset().collect()  # exclude planning from the timings

    def wmc_route():
        engine.clear_circuit_cache()  # time cold compiles (E38 times hits)
        return prepared.dataset().probability(row, strategy="wmc")

    def shannon_route():
        return prepared.dataset().probability(row, strategy="shannon")

    wmc_seconds = _timed(wmc_route, repeats)
    shannon_seconds = _timed(shannon_route, repeats)
    wmc_answer = wmc_route()
    shannon_answer = shannon_route()

    twin_engine = Engine()
    twin_session = twin_engine.session(V=_ring_pctable(twin_variables))
    twin_dataset = twin_session.prepare(query).dataset()
    enumeration_seconds = _timed(
        lambda: twin_dataset.probability(row, strategy="enumerate"), repeats
    )
    twin_enumerated = twin_dataset.probability(row, strategy="enumerate")
    twin_wmc = twin_dataset.probability(row, strategy="wmc")
    twin_shannon = twin_dataset.probability(row, strategy="shannon")

    return {
        "variables": variables,
        "worlds_at_scale": 2.0**variables,
        "wmc_seconds": wmc_seconds,
        "shannon_seconds": shannon_seconds,
        "answer": str(wmc_answer),
        "answer_float": float(wmc_answer),
        "routes_agree_at_scale": wmc_answer == shannon_answer,
        "twin_variables": twin_variables,
        "twin_enumeration_seconds": enumeration_seconds,
        "twin_agrees": twin_enumerated == twin_wmc == twin_shannon,
    }


def run_e38_probability_hot_loop(
    variables: int, iters: int, repeats: int
) -> dict:
    """E38 — the prepared probability hot loop against the circuit cache.

    Both arms ask the same prepared query for the same tuple's
    probability *iters* times under ``prob_strategy="wmc"``.  The cold
    arm clears the engine's circuit cache before every call, paying
    compile + count each time; the hot arm hits the cached
    :class:`~repro.prob.wmc.CompiledCondition`, whose memoized count
    makes a hit pure lookup.  The ratio is the price of not caching.
    """
    query = sel(rel("V", 2), col_eq_const(0, 0))
    row = (0, 1)
    engine = Engine(prob_strategy="wmc")
    session = engine.session(V=_ring_pctable(variables))
    dataset = session.prepare(query).dataset()
    expected = dataset.probability(row)  # warm: plan, collect, compile

    def cold_loop():
        for _ in range(iters):
            engine.clear_circuit_cache()
            assert dataset.probability(row) == expected

    def hot_loop():
        for _ in range(iters):
            assert dataset.probability(row) == expected

    cold_seconds = _timed(cold_loop, repeats)
    hot_seconds = _timed(hot_loop, repeats)
    stats = engine.circuit_cache_stats()
    return {
        "variables": variables,
        "iterations": iters,
        "baseline_seconds": cold_seconds,
        "optimized_seconds": hot_seconds,
        "speedup": cold_seconds / hot_seconds if hot_seconds else float("inf"),
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
    }


def run_e39_compile_scaling(var_counts, repeats: int) -> dict:
    """E39 — compile-time and count-time curves vs lineage width.

    Ring lineages at each width: compile time is the decision-DNNF
    search over the interned lineage
    (:func:`repro.prob.wmc.compile_probability` is lazy about counting),
    count time is one full circuit traversal
    (:meth:`~repro.logic.compile.DDNNF.model_count`), and the recorded
    circuit sizes show the representation growing linearly (4 nodes per
    ring variable, minus 7) while the world count grows as ``2^width``.
    """
    compile_curve = {}
    count_curve = {}
    size_curve = {}
    agree = True
    for count in var_counts:
        pctable = _ring_pctable(count)
        lineage = pctable.membership_condition((0, 1))
        distributions = pctable.distributions
        compile_curve[count] = _timed(
            lambda: compile_probability(lineage, distributions), repeats
        )
        compiled = compile_probability(lineage, distributions)
        count_curve[count] = _timed(
            compiled.compiled.circuit.model_count, repeats
        )
        size_curve[count] = compiled.circuit_size()
        agree = agree and compiled.probability() == probability(
            lineage, distributions, strategy="shannon"
        )
    return {
        "compile_curve_seconds": compile_curve,
        "count_curve_seconds": count_curve,
        "circuit_sizes": size_curve,
        "shannon_agrees_everywhere": agree,
    }


def _obs_join_tables(rows: int):
    """Wide-fanout join inputs where per-row execution work dominates.

    Joining on ``rows // 8`` distinct keys yields ~``8 * rows`` output
    tuples, so the timed loops measure executor work rather than the
    fixed per-call bookkeeping E40 is trying to bound.
    """
    keys = max(1, rows // 8)
    left = CTable([((index, index % keys), TOP) for index in range(rows)])
    right = CTable([((index % keys, index), TOP) for index in range(rows)])
    return left, right


def run_e40_tracing_overhead(rows: int, iters: int, repeats: int) -> dict:
    """E40 — the per-query price of the observability layer.

    Three arms run the identical lowered join plan *iters* times with
    the result cache off, so every iteration actually executes:

    - *raw*: ``execute_physical`` on the pre-lowered tree — no engine
      bookkeeping, no tracing; the floor;
    - *disabled*: ``PreparedQuery.execute()`` with ``trace=False`` —
      the always-on surface (cache stats, query counters, the
      one-integer-compare tracer gate) but no spans;
    - *enabled*: the same with ``trace=True`` — spans, per-operator
      actuals, and a stored JSON-able trace per execution.

    The acceptance gates in ``main`` bound *disabled* within 5% of raw
    and *enabled* within 25% on the full-size run; quick runs are
    noise-dominated and get relaxed bounds.
    """
    query = proj(sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), (0, 3))
    left, right = _obs_join_tables(rows)
    tables = {"L": left, "R": right}

    engine = Engine(result_cache_size=0)
    session = engine.session(**tables)
    disabled = session.prepare(query, trace=False)
    enabled = session.prepare(query, trace=True)
    physical = disabled.physical_plan()

    expected = execute_physical(physical, tables)
    equivalent = ctables_equivalent(
        expected, disabled.execute()
    ) and ctables_equivalent(expected, enabled.execute())

    def raw_loop():
        for _ in range(iters):
            execute_physical(physical, tables)

    def disabled_loop():
        for _ in range(iters):
            disabled.execute()

    def enabled_loop():
        for _ in range(iters):
            enabled.execute()

    # The gate bounds a few-microsecond fixed cost against a multi-ms
    # loop, so timing the arms in separate blocks (as _timed would)
    # lets slow machine drift masquerade as overhead.  Interleave the
    # arms round-robin and take per-arm medians instead.
    samples = {"raw": [], "disabled": [], "enabled": []}
    for _ in range(max(5, repeats)):
        for name, loop in (
            ("raw", raw_loop),
            ("disabled", disabled_loop),
            ("enabled", enabled_loop),
        ):
            start = time.perf_counter()
            loop()
            samples[name].append(time.perf_counter() - start)
    raw_seconds = statistics.median(samples["raw"])
    disabled_seconds = statistics.median(samples["disabled"])
    enabled_seconds = statistics.median(samples["enabled"])
    return {
        "rows_per_table": rows,
        "answer_rows": len(expected),
        "iterations": iters,
        "raw_seconds": raw_seconds,
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "disabled_overhead": (
            disabled_seconds / raw_seconds - 1.0 if raw_seconds else 0.0
        ),
        "enabled_overhead": (
            enabled_seconds / raw_seconds - 1.0 if raw_seconds else 0.0
        ),
        "equivalent": equivalent,
        "trace_recorded": engine.last_trace() is not None,
    }


def run_e41_estimate_drift(rows: int, repeats: int) -> dict:
    """E41 — EXPLAIN ANALYZE surfaces estimator drift on skewed data.

    The planner's selection estimate assumes near-uniform selectivity;
    the table is built so 90% of its rows share one value in the
    filtered column.  ``explain(analyze=True)`` then renders estimated
    vs actual rows per operator and flags the ≥4× divergence in the
    drift column — the feedback signal for revisiting a plan.
    """
    skew_value = 7
    skewed = int(rows * 0.9)
    table_rows = [((index, skew_value), TOP) for index in range(skewed)]
    table_rows += [
        ((skewed + offset, 1000 + offset), TOP)
        for offset in range(rows - skewed)
    ]
    engine = Engine()
    session = engine.session(S=CTable(table_rows, arity=2))
    prepared = session.prepare(sel(rel("S", 2), col_eq_const(1, skew_value)))
    rendered = prepared.explain(analyze=True)
    seconds = _timed(lambda: prepared.explain(analyze=True), repeats)
    return {
        "rows": rows,
        "skewed_fraction": skewed / rows,
        "explain_seconds": seconds,
        "drift_flagged": "[drift" in rendered,
        "shows_estimates": "est≈" in rendered and "act=" in rendered,
        "rendering": rendered.splitlines(),
    }


def run_e42_cache_observability(rows: int, iters: int, repeats: int) -> dict:
    """E42 — hot caches observed end to end through one snapshot.

    Runs two hot loops on a fresh engine — a prepared relational read
    (result + plan caches) and a prepared tuple probability (circuit
    cache) — then reads ``Engine.metrics_snapshot()`` once and checks
    the unified per-cache hit/miss counters recorded the traffic the
    loops actually generated.
    """
    left, right = _obs_join_tables(rows)
    engine = Engine(prob_strategy="wmc")
    session = engine.session(L=left, R=right, V=_ring_pctable(16))
    prepared = session.prepare(
        proj(sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), (0, 3))
    )
    dataset = session.prepare(sel(rel("V", 2), col_eq_const(0, 0))).dataset()

    def hot_loops():
        for _ in range(iters):
            prepared.execute()
            dataset.probability((0, 1))

    hot_loops()  # warm: plan, lower, compile
    seconds = _timed(hot_loops, repeats)
    snapshot = engine.metrics_snapshot()
    caches = snapshot["caches"]
    return {
        "rows_per_table": rows,
        "iterations": iters,
        "loop_seconds": seconds,
        "caches": caches,
        "observed_hot": (
            caches["result"]["hits"] >= iters
            and caches["circuit"]["hits"] >= iters
        ),
    }


# ----------------------------------------------------------------------
# Incremental view maintenance: E43–E45
# ----------------------------------------------------------------------

def _ivm_tables(rows: int):
    """Standing-join inputs with a conditioned stripe.

    Same fanout shape as :func:`_obs_join_tables` (``rows // 8`` join
    keys, ~8× output), but every fourth left row carries a symbolic
    condition so delta propagation exercises condition composition, not
    just tuple bookkeeping.
    """
    keys = max(1, rows // 8)
    left = CTable(
        [
            (
                (index, index % keys),
                eq(Var(f"c{index % 12}"), 1) if index % 4 == 0 else TOP,
            )
            for index in range(rows)
        ],
        arity=2,
    )
    right = CTable(
        [((index % keys, index), TOP) for index in range(rows)], arity=2
    )
    return left, right


_IVM_QUERY = proj(sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), (0, 3))


def _ivm_fresh_rows(rows: int, iters: int, changed: int):
    """Per-iteration insert batches with collision-free ids, fanout kept."""
    keys = max(1, rows // 8)
    return [
        [
            (
                (rows * 10 + iteration * changed + offset,
                 (iteration * changed + offset) % keys),
                TOP,
            )
            for offset in range(changed)
        ]
        for iteration in range(iters)
    ]


def run_e43_refresh_vs_rerun(rows: int, iters: int, repeats: int) -> dict:
    """E43 — incremental refresh vs full re-execution at 1% churn.

    Both arms apply the identical mutation script — each cycle deletes
    the oldest 1% of the left rows and inserts as many fresh ones — and
    only the ``refresh()`` call is timed.  The incremental arm folds
    the signed deltas through the standing view's operator states; the
    rerun arm re-plans and re-executes.  Structural identity between
    the two answers is asserted on every cycle, unconditionally: the
    speedup is only admissible because the answers are *the same* —
    rows, interned condition objects, and order.
    """
    changed = max(1, rows // 100)
    fresh = _ivm_fresh_rows(rows, iters, changed)

    def run_arm(maintenance: str):
        left, right = _ivm_tables(rows)
        engine = Engine(maintenance=maintenance)
        session = engine.session(L=left, R=right)
        prepared = session.prepare(_IVM_QUERY)
        prepared.refresh()  # build the view / warm the caches
        seconds = 0.0
        answers = []
        for iteration in range(iters):
            session.delete("L", list(session.table("L").rows[:changed]))
            session.insert("L", fresh[iteration])
            started = time.perf_counter()
            answers.append(prepared.refresh())
            seconds += time.perf_counter() - started
        return seconds / iters, answers

    refresh_samples = []
    rerun_samples = []
    for _ in range(repeats):
        refresh_seconds, maintained = run_arm("incremental")
        rerun_seconds, rerun = run_arm("rerun")
        for iteration, (incremental, full) in enumerate(
            zip(maintained, rerun)
        ):
            _assert_structurally_identical(
                full, incremental, f"e43 cycle {iteration}"
            )
        refresh_samples.append(refresh_seconds)
        rerun_samples.append(rerun_seconds)
    refresh_seconds = statistics.median(refresh_samples)
    rerun_seconds = statistics.median(rerun_samples)
    return {
        "rows_per_table": rows,
        "iterations": iters,
        "changed_rows_per_cycle": changed,
        "change_rate": changed / rows,
        "refresh_seconds": refresh_seconds,
        "rerun_seconds": rerun_seconds,
        "speedup": rerun_seconds / refresh_seconds,
        "equivalent": True,  # every cycle asserted above
    }


def run_e44_update_throughput(rows: int, iters: int, repeats: int) -> dict:
    """E44 — sustained mutate→refresh throughput, read via the snapshot.

    Runs *iters* delete+insert+refresh cycles against a standing join
    and reports delta rows per second — with the delta-row and refresh
    accounting read back through ``Engine.metrics_snapshot()`` rather
    than locals, so the benchmark doubles as a check that the ``ivm_*``
    series actually record the traffic.
    """
    changed = max(1, rows // 100)
    best_wall = None
    snapshot = None
    for _ in range(repeats):
        left, right = _ivm_tables(rows)
        engine = Engine(maintenance="incremental")
        session = engine.session(L=left, R=right)
        prepared = session.prepare(_IVM_QUERY)
        prepared.refresh()
        fresh = _ivm_fresh_rows(rows, iters, changed)
        started = time.perf_counter()
        for iteration in range(iters):
            session.delete("L", list(session.table("L").rows[:changed]))
            session.insert("L", fresh[iteration])
            prepared.refresh()
        wall = time.perf_counter() - started
        if best_wall is None or wall < best_wall:
            best_wall = wall
            snapshot = engine.metrics_snapshot()
    counters = snapshot["engine"]["counters"]
    delta_rows = sum(counters.get(IVM_DELTA_ROWS_TOTAL, {}).values())
    mutations = sum(counters.get(IVM_MUTATIONS_TOTAL, {}).values())
    refresh_histogram = snapshot["engine"]["histograms"].get(
        IVM_REFRESH_SECONDS, {}
    )
    delta_series = refresh_histogram.get("mode=delta", {})
    return {
        "rows_per_table": rows,
        "iterations": iters,
        "changed_rows_per_cycle": changed,
        "wall_seconds": best_wall,
        "delta_rows_total": delta_rows,
        "mutations_total": mutations,
        "delta_refreshes": delta_series.get("count", 0.0),
        "delta_refresh_seconds": delta_series.get("sum", 0.0),
        "delta_rows_per_second": delta_rows / best_wall,
        "observed_via_snapshot": (
            delta_rows == 2 * changed * iters
            and mutations == 2 * iters
            and delta_series.get("count", 0.0) == iters
        ),
    }


def run_e45_cancellation_fast_path(rows: int, iters: int, repeats: int) -> dict:
    """E45 — what no-ops and cancellations cost against a full rerun.

    Three arms over the same standing join: refresh with nothing
    pending (``noop`` — materialize only), refresh after an
    insert-then-delete of the same rows (``cancel`` — two signed
    batches that annihilate), and a full re-execution on an
    uncached rerun engine as the reference price.  Both fast-path
    answers must be structurally identical to the pre-mutation answer.
    """
    cancel_rows = max(1, rows // 100)
    left, right = _ivm_tables(rows)
    engine = Engine(maintenance="incremental")
    session = engine.session(L=left, R=right)
    prepared = session.prepare(_IVM_QUERY)
    baseline = prepared.refresh()

    def noop_loop():
        for _ in range(iters):
            prepared.refresh()

    def cancel_loop():
        for iteration in range(iters):
            batch = [
                ((rows * 100 + iteration * cancel_rows + offset, 0), TOP)
                for offset in range(cancel_rows)
            ]
            session.insert("L", batch)
            session.delete("L", batch)
            prepared.refresh()

    noop_seconds = _timed(noop_loop, repeats) / iters
    cancel_seconds = _timed(cancel_loop, repeats) / iters
    _assert_structurally_identical(baseline, prepared.refresh(), "e45 noop")

    rerun_engine = Engine(maintenance="rerun", result_cache_size=0)
    rerun_prepared = rerun_engine.session(L=left, R=right).prepare(_IVM_QUERY)
    rerun_seconds = _timed(rerun_prepared.refresh, repeats)
    _assert_structurally_identical(
        rerun_prepared.refresh(), prepared.refresh(), "e45 vs rerun"
    )
    noop_refreshes = engine.metrics.counter_value(
        IVM_REFRESH_TOTAL, {"mode": "noop"}
    )
    return {
        "rows_per_table": rows,
        "iterations": iters,
        "cancelled_rows_per_cycle": cancel_rows,
        "noop_seconds": noop_seconds,
        "cancel_seconds": cancel_seconds,
        "rerun_seconds": rerun_seconds,
        "noop_speedup": rerun_seconds / noop_seconds,
        "cancel_speedup": rerun_seconds / cancel_seconds,
        "noop_refreshes_observed": noop_refreshes,
        "equivalent": True,  # asserted above
    }


def run_ivm_suite(quick: bool, repeats: int) -> dict:
    workloads = {}

    print("== e43_refresh_vs_rerun (1% churn on a standing join) ==")
    e43 = run_e43_refresh_vs_rerun(
        400 if quick else 2400, 3 if quick else 10, repeats
    )
    workloads["e43_refresh_vs_rerun"] = e43
    print(
        f"   {e43['rows_per_table']} rows/side, "
        f"{e43['changed_rows_per_cycle']} rows/cycle: "
        f"rerun {e43['rerun_seconds']*1000:.1f}ms -> "
        f"refresh {e43['refresh_seconds']*1000:.1f}ms "
        f"({e43['speedup']:.1f}x), identical every cycle"
    )

    print("== e44_update_throughput (mutate→refresh via metrics_snapshot) ==")
    e44 = run_e44_update_throughput(
        400 if quick else 2400, 5 if quick else 20, repeats
    )
    workloads["e44_update_throughput"] = e44
    print(
        f"   {e44['delta_rows_total']:.0f} delta rows in "
        f"{e44['wall_seconds']*1000:.1f}ms "
        f"({e44['delta_rows_per_second']:.0f} rows/s), "
        f"observed_via_snapshot={e44['observed_via_snapshot']}"
    )

    print("== e45_cancellation_fast_path (noop/cancel vs full rerun) ==")
    e45 = run_e45_cancellation_fast_path(
        400 if quick else 2400, 3 if quick else 10, repeats
    )
    workloads["e45_cancellation_fast_path"] = e45
    print(
        f"   noop {e45['noop_seconds']*1000:.2f}ms "
        f"({e45['noop_speedup']:.1f}x vs rerun), "
        f"cancel {e45['cancel_seconds']*1000:.2f}ms "
        f"({e45['cancel_speedup']:.1f}x)"
    )
    return workloads


def run_probability_suite(quick: bool, repeats: int) -> dict:
    workloads = {}

    print("== e37_tuple_probability (compiled WMC vs Shannon vs oracle) ==")
    e37 = run_e37_tuple_probability(
        variables=60,
        twin_variables=10 if quick else 12,
        repeats=repeats,
    )
    workloads["e37_tuple_probability"] = e37
    print(
        f"   {e37['variables']} variables "
        f"(~{e37['worlds_at_scale']:.1e} worlds): "
        f"wmc {e37['wmc_seconds']*1000:.1f}ms, "
        f"shannon {e37['shannon_seconds']*1000:.1f}ms, "
        f"agree={e37['routes_agree_at_scale']}; "
        f"{e37['twin_variables']}-var oracle twin agrees={e37['twin_agrees']}"
    )

    print("== e38_probability_hot_loop (circuit cache hits vs cold) ==")
    e38 = run_e38_probability_hot_loop(
        24 if quick else 60, 5 if quick else 20, repeats
    )
    workloads["e38_probability_hot_loop"] = e38
    print(
        f"   cold {e38['baseline_seconds']*1000:.1f}ms -> "
        f"hot {e38['optimized_seconds']*1000:.1f}ms "
        f"({e38['speedup']:.1f}x), "
        f"{e38['cache_hits']} hits / {e38['cache_misses']} misses"
    )

    print("== e39_compile_scaling (circuit growth vs variable count) ==")
    e39 = run_e39_compile_scaling(
        (10, 20, 40) if quick else (10, 20, 40, 60, 80), repeats
    )
    workloads["e39_compile_scaling"] = e39
    compile_points = ", ".join(
        f"{count}v {seconds*1000:.1f}ms/{e39['circuit_sizes'][count]}n"
        for count, seconds in e39["compile_curve_seconds"].items()
    )
    print(f"   compile: {compile_points}")
    print(f"   shannon agrees everywhere: {e39['shannon_agrees_everywhere']}")
    return workloads


def run_obs_suite(quick: bool, repeats: int) -> dict:
    workloads = {}

    print("== e40_tracing_overhead (raw vs disabled vs enabled) ==")
    e40 = run_e40_tracing_overhead(
        400 if quick else 2400, 3 if quick else 10, repeats
    )
    workloads["e40_tracing_overhead"] = e40
    print(
        f"   raw {e40['raw_seconds']*1000:.1f}ms/loop, "
        f"disabled {e40['disabled_overhead']*100:+.1f}%, "
        f"enabled {e40['enabled_overhead']*100:+.1f}% "
        f"({e40['answer_rows']} answer rows, "
        f"equivalent={e40['equivalent']})"
    )

    print("== e41_estimate_drift (EXPLAIN ANALYZE on planted skew) ==")
    e41 = run_e41_estimate_drift(100 if quick else 1000, repeats)
    workloads["e41_estimate_drift"] = e41
    print(
        f"   drift flagged={e41['drift_flagged']}, "
        f"render {e41['explain_seconds']*1000:.1f}ms"
    )

    print("== e42_cache_observability (hot loops through one snapshot) ==")
    e42 = run_e42_cache_observability(
        120 if quick else 600, 5 if quick else 25, repeats
    )
    workloads["e42_cache_observability"] = e42
    result_stats = e42["caches"]["result"]
    print(
        f"   result cache {result_stats['hits']} hits / "
        f"{result_stats['misses']} misses, "
        f"circuit cache {e42['caches']['circuit']['hits']} hits; "
        f"observed_hot={e42['observed_hot']}"
    )
    return workloads


def run_physical_suite(quick: bool, repeats: int) -> dict:
    sizes = {
        # workload: (rows, iterations) — each sized to its own shape.
        "e28_vectorized_scan": (600, 2) if quick else (4000, 5),
        "e29_generalized_hash_join": (200, 2) if quick else (800, 5),
        "e30_result_cache_hot_loop": (24, 30) if quick else (96, 200),
    }
    workloads = {}
    for name, runner in PHYSICAL_WORKLOADS:
        print(f"== {name} (interpreted executor vs vectorized) ==")
        rows, iters = sizes[name]
        result = runner(rows, iters, repeats)
        workloads[name] = result
        print(
            f"   {result['baseline_seconds']*1000:.1f}ms -> "
            f"{result['optimized_seconds']*1000:.1f}ms "
            f"({result['speedup']:.1f}x), "
            f"{result['answer_rows']} answer rows, "
            f"equivalent={result['equivalent']}"
        )
    return workloads


def run_engine_suite(rows: int, iters: int, repeats: int) -> dict:
    workloads = {}
    for name, runner in ENGINE_WORKLOADS:
        print(f"== {name} (flat per-call API vs Session) ==")
        result = runner(rows, iters, repeats)
        workloads[name] = result
        print(
            f"   {result['baseline_seconds']*1000:.1f}ms -> "
            f"{result['optimized_seconds']*1000:.1f}ms "
            f"({result['speedup']:.1f}x), "
            f"equivalent={result['equivalent']}"
        )
    return workloads


def run_planner_suite(rows: int, repeats: int) -> dict:
    workloads = {}
    for name, runner in PLANNER_WORKLOADS:
        print(f"== {name} (verbatim plan vs rule-based optimizer) ==")
        result = runner(rows, repeats)
        workloads[name] = result
        print(
            f"   {result['baseline_seconds']*1000:.1f}ms -> "
            f"{result['optimized_seconds']*1000:.1f}ms "
            f"({result['speedup']:.1f}x), "
            f"{result['answer_rows']} answer rows, "
            f"equivalent={result['equivalent']}"
        )
    return workloads


# ----------------------------------------------------------------------
# The E01–E20 pytest suite
# ----------------------------------------------------------------------

def run_suite(quick: bool) -> dict:
    bench_dir = REPO_ROOT / "benchmarks"
    files = sorted(bench_dir.glob("bench_e*.py"))
    if quick:
        keep = ("e01", "e02", "e08", "e18")
        files = [f for f in files if any(tag in f.name for tag in keep)]
    # bench_*.py does not match pytest's default python_files pattern, so
    # the files are passed explicitly (explicit arguments always collect).
    command = [
        sys.executable,
        "-m",
        "pytest",
        *[str(f) for f in files],
        "-q",
        "--benchmark-disable",
        "-p",
        "no:cacheprovider",
    ]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    )
    completed = subprocess.run(
        command,
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    tail = completed.stdout.strip().splitlines()[-1:] or [""]
    return {
        "command": " ".join(command[2:]),
        "exit_code": completed.returncode,
        "summary": tail[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: suite subset and smaller workloads",
    )
    parser.add_argument(
        "--skip-suite",
        action="store_true",
        help="only time the headline workloads",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_pr1.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--planner-output",
        default=str(REPO_ROOT / "BENCH_pr2.json"),
        help="where to write the planner-ablation (E21–E24) JSON report",
    )
    parser.add_argument(
        "--engine-output",
        default=str(REPO_ROOT / "BENCH_pr3.json"),
        help="where to write the engine/session (E25–E27) JSON report",
    )
    parser.add_argument(
        "--physical-output",
        default=str(REPO_ROOT / "BENCH_pr4.json"),
        help="where to write the physical-executor (E28–E30) JSON report",
    )
    parser.add_argument(
        "--equivalence-output",
        default=str(REPO_ROOT / "BENCH_pr7.json"),
        help="where to write the symbolic-equivalence (E34–E36) JSON report",
    )
    parser.add_argument(
        "--probability-output",
        default=str(REPO_ROOT / "BENCH_pr8.json"),
        help="where to write the probability/WMC (E37–E39) JSON report",
    )
    parser.add_argument(
        "--obs-output",
        default=str(REPO_ROOT / "BENCH_pr9.json"),
        help="where to write the observability (E40–E42) JSON report",
    )
    parser.add_argument(
        "--ivm-output",
        default=str(REPO_ROOT / "BENCH_pr10.json"),
        help="where to write the view-maintenance (E43–E45) JSON report",
    )
    args = parser.parse_args(argv)

    if args.quick:
        join_rows, plans, diff_rows, width, repeats = 60, 2, 9, 40, 1
        planner_rows = 60
        engine_rows, engine_iters = 24, 10
    else:
        join_rows, plans, diff_rows, width, repeats = 250, 3, 12, 120, 3
        planner_rows = 250
        engine_rows, engine_iters = 96, 100

    report = {
        "meta": {
            "label": Path(args.output).stem,
            "quick": args.quick,
            "python": sys.version.split()[0],
        },
        "workloads": {},
    }

    print("== join_heavy (π̄/σ̄-over-×̄, seed nested loop vs hash join) ==")
    join = run_join_heavy(join_rows, plans, repeats)
    report["workloads"]["join_heavy"] = join
    print(
        f"   {join['rows_per_table']} rows/side × {plans} plans: "
        f"{join['baseline_seconds']*1000:.1f}ms -> "
        f"{join['optimized_seconds']*1000:.1f}ms "
        f"({join['speedup']:.1f}x)"
    )

    print("== world_enumeration (evaluation memo off vs on) ==")
    worlds = run_world_enumeration(diff_rows, repeats)
    report["workloads"]["world_enumeration"] = worlds
    print(
        f"   {worlds['worlds']} worlds: "
        f"{worlds['baseline_seconds']*1000:.1f}ms -> "
        f"{worlds['optimized_seconds']*1000:.1f}ms "
        f"({worlds['speedup']:.1f}x)"
    )

    print("== condition_engine (interning hit rate) ==")
    engine = run_condition_engine(width, repeats)
    report["workloads"]["condition_engine"] = engine
    print(
        f"   width {engine['width']}: {engine['seconds']*1000:.1f}ms, "
        f"hit rate {engine['intern_hit_rate']:.2%}, "
        f"{engine['intern_live_nodes']} live nodes"
    )

    planner_report = {
        "meta": {
            "label": Path(args.planner_output).stem,
            "quick": args.quick,
            "python": sys.version.split()[0],
            "rows": planner_rows,
        },
        "workloads": run_planner_suite(planner_rows, repeats),
    }

    engine_report = {
        "meta": {
            "label": Path(args.engine_output).stem,
            "quick": args.quick,
            "python": sys.version.split()[0],
            "rows": engine_rows,
            "iterations": engine_iters,
        },
        "workloads": run_engine_suite(engine_rows, engine_iters, repeats),
    }

    physical_report = {
        "meta": {
            "label": Path(args.physical_output).stem,
            "quick": args.quick,
            "python": sys.version.split()[0],
        },
        "workloads": run_physical_suite(args.quick, repeats),
    }

    equivalence_report = {
        "meta": {
            "label": Path(args.equivalence_output).stem,
            "quick": args.quick,
            "python": sys.version.split()[0],
        },
        "workloads": run_equivalence_suite(args.quick, repeats),
    }

    probability_report = {
        "meta": {
            "label": Path(args.probability_output).stem,
            "quick": args.quick,
            "python": sys.version.split()[0],
        },
        "workloads": run_probability_suite(args.quick, repeats),
    }

    obs_report = {
        "meta": {
            "label": Path(args.obs_output).stem,
            "quick": args.quick,
            "python": sys.version.split()[0],
        },
        "workloads": run_obs_suite(args.quick, repeats),
    }

    ivm_report = {
        "meta": {
            "label": Path(args.ivm_output).stem,
            "quick": args.quick,
            "python": sys.version.split()[0],
        },
        "workloads": run_ivm_suite(args.quick, repeats),
    }

    if not args.skip_suite:
        print("== E01–E20 suite ==")
        suite = run_suite(args.quick)
        report["suite"] = suite
        print(f"   {suite['summary']} (exit {suite['exit_code']})")
    else:
        report["suite"] = {"skipped": True}

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")

    planner_output = Path(args.planner_output)
    planner_output.write_text(json.dumps(planner_report, indent=2) + "\n")
    print(f"wrote {planner_output}")

    engine_output = Path(args.engine_output)
    engine_output.write_text(json.dumps(engine_report, indent=2) + "\n")
    print(f"wrote {engine_output}")

    physical_output = Path(args.physical_output)
    physical_output.write_text(json.dumps(physical_report, indent=2) + "\n")
    print(f"wrote {physical_output}")

    equivalence_output = Path(args.equivalence_output)
    equivalence_output.write_text(
        json.dumps(equivalence_report, indent=2) + "\n"
    )
    print(f"wrote {equivalence_output}")

    probability_output = Path(args.probability_output)
    probability_output.write_text(
        json.dumps(probability_report, indent=2) + "\n"
    )
    print(f"wrote {probability_output}")

    obs_output = Path(args.obs_output)
    obs_output.write_text(json.dumps(obs_report, indent=2) + "\n")
    print(f"wrote {obs_output}")

    ivm_output = Path(args.ivm_output)
    ivm_output.write_text(json.dumps(ivm_report, indent=2) + "\n")
    print(f"wrote {ivm_output}")

    planner_workloads = planner_report["workloads"].values()
    best_planner_speedup = max(
        workload["speedup"] for workload in planner_workloads
    )
    engine_workloads = engine_report["workloads"].values()
    prepared_speedup = engine_report["workloads"]["e25_prepared_hot_loop"][
        "speedup"
    ]
    physical_workloads = physical_report["workloads"].values()
    # Acceptance: ≥3× on at least two of E28–E30, equivalence everywhere,
    # and the result cache actually serving the repeated read.
    vectorized_wins = sum(
        1
        for workload in physical_workloads
        if workload["speedup"] >= (1.0 if args.quick else 3.0)
    )
    result_cache_served = physical_report["workloads"][
        "e30_result_cache_hot_loop"
    ]["served_from_cache"]
    # E34–E36: the symbolic engine must decide the 100-variable pair no
    # witness enumeration can touch (True on the reordered ring, False
    # on the strengthened one), agree with the enumeration oracle where
    # both run, and the semantic verifier must certify the optimizer's
    # rewrites end to end.
    e34 = equivalence_report["workloads"]["e34_equivalence_scaling"]
    e36 = equivalence_report["workloads"]["e36_symbolic_scaling"]
    symbolic_at_scale = (
        e34["variables"] >= 100
        and e34["equivalent_pair_verdict"] is True
        and e34["strengthened_pair_verdict"] is False
        and not e34["enumeration_feasible_at_scale"]
        and e34["crosscheck_agrees"]
        and e36["verdicts_all_equivalent"]
        and equivalence_report["workloads"]["e35_semantic_verify_overhead"][
            "semantic_verified"
        ]
    )
    # E37–E39: the 60-variable (~1.15e18 worlds) tuple probability must
    # come back exact in under a second on the compiled route, agree
    # with Shannon at full scale and with the enumeration oracle on the
    # reduced twin, and the circuit cache must actually pay (≥5× hot
    # over cold compiles on the full-size run).
    e37 = probability_report["workloads"]["e37_tuple_probability"]
    e38 = probability_report["workloads"]["e38_probability_hot_loop"]
    e39 = probability_report["workloads"]["e39_compile_scaling"]
    probability_at_scale = (
        e37["variables"] >= 60
        and e37["wmc_seconds"] < 1.0
        and e37["routes_agree_at_scale"]
        and e37["twin_agrees"]
        and e38["speedup"] >= (2.0 if args.quick else 5.0)
        and e39["shannon_agrees_everywhere"]
    )
    # E40–E42: observability must be near-free when off and bounded
    # when on — disabled tracing within 5% of the raw executor loop,
    # full tracing within 25% (quick runs are noise-dominated and get
    # loose bounds) — EXPLAIN ANALYZE must flag the planted ≥4×
    # estimate drift, and the metrics snapshot must show the hot
    # caches actually serving their loops.
    e40 = obs_report["workloads"]["e40_tracing_overhead"]
    e41 = obs_report["workloads"]["e41_estimate_drift"]
    e42 = obs_report["workloads"]["e42_cache_observability"]
    observability_ok = (
        e40["equivalent"]
        and e40["trace_recorded"]
        and e40["disabled_overhead"] <= (0.60 if args.quick else 0.05)
        and e40["enabled_overhead"] <= (2.00 if args.quick else 0.25)
        and e41["drift_flagged"]
        and e41["shows_estimates"]
        and e42["observed_hot"]
    )
    # E43–E45: incremental refresh must beat full rerun ≥10× at 1%
    # churn on the full-size run (identity was asserted on every cycle
    # inside the workload), the delta/refresh traffic must be visible
    # through metrics_snapshot(), and the no-op/cancellation fast paths
    # must stay cheaper than a rerun.
    e43 = ivm_report["workloads"]["e43_refresh_vs_rerun"]
    e44 = ivm_report["workloads"]["e44_update_throughput"]
    e45 = ivm_report["workloads"]["e45_cancellation_fast_path"]
    ivm_ok = (
        e43["equivalent"]
        and e43["speedup"] >= (1.0 if args.quick else 10.0)
        and e44["observed_via_snapshot"]
        and e44["delta_rows_per_second"] > 0
        and e45["equivalent"]
        and e45["noop_speedup"] >= 1.0
        and e45["cancel_speedup"] >= 1.0
    )
    failed = (
        report["suite"].get("exit_code", 0) != 0
        or report["workloads"]["join_heavy"]["speedup"] < 1.0
        or not all(w["equivalent"] for w in planner_workloads)
        or best_planner_speedup < (1.0 if args.quick else 5.0)
        or not all(w["equivalent"] for w in engine_workloads)
        # Was 5.0 pre-PR4: the vectorized runtime sped the *flat* arm up
        # more than the prepared one (re-planned bad plans got cheap to
        # execute), so the plan-caching ratio legitimately shrank while
        # both absolute times improved ~2.5–5x.
        or prepared_speedup < (1.0 if args.quick else 3.0)
        or not all(w["equivalent"] for w in physical_workloads)
        or vectorized_wins < 2
        or not result_cache_served
        or not symbolic_at_scale
        or not probability_at_scale
        or not observability_ok
        or not ivm_ok
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
