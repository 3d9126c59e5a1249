"""Observability: EXPLAIN ANALYZE, per-query traces, engine metrics.

Run with ``PYTHONPATH=src python examples/explain_analyze.py``.

Theorem 4 promises lifted evaluation in polynomial time; ``repro.obs``
is how the engine *shows its work* per operator.  ``explain
(analyze=True)`` executes the prepared query under tracing and renders
the physical tree with estimated-vs-actual cardinalities, per-operator
wall time, and cache-hit provenance; a drift column flags operators
whose estimate missed by ≥4×.  ``Engine.metrics_snapshot()`` exposes
unified hit/miss/eviction stats for all four caches plus optimizer
rule-fire and solver-call counters, renderable as Prometheus text, and
``trace=True`` (or ``REPRO_TRACE=1``) stores a JSON-able span tree per
execution.
"""

from repro import CTable, Engine, col_eq, col_eq_const, proj, prod, rel, sel
from repro.logic.syntax import TOP


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A skewed table the planner will mis-estimate.
    # ------------------------------------------------------------------
    # 90 of 100 rows share the value 7 in column 1; the uniform-
    # selectivity estimate for the filter is ~10x too low, so the
    # analyzer's drift column lights up.
    rows = [((index, 7), TOP) for index in range(90)]
    rows += [((90 + offset, 1000 + offset), TOP) for offset in range(10)]
    orders = CTable(rows, arity=2)
    lookup = CTable([((7, key), TOP) for key in range(5)], arity=2)

    engine = Engine()
    session = engine.session(Orders=orders, Lookup=lookup)

    print("EXPLAIN ANALYZE on a skewed filter (note the drift flag):")
    skewed = session.prepare(sel(rel("Orders", 2), col_eq_const(1, 7)))
    print(skewed.explain(analyze=True))
    print()

    # ------------------------------------------------------------------
    # 2. The same, on a join — per-operator actuals and provenance.
    # ------------------------------------------------------------------
    join = proj(
        sel(prod(rel("Orders", 2), rel("Lookup", 2)), col_eq(1, 2)), [0, 3]
    )
    prepared = session.prepare(join)
    print("EXPLAIN ANALYZE on a join (est vs act rows, per-op time):")
    print(prepared.explain(analyze=True))
    print()

    answer = prepared.execute()  # populate the result cache ...
    prepared.execute()  # ... and hit it
    print("after an execute, provenance shows the result-cache hit:")
    print(prepared.explain(analyze=True).splitlines()[2])
    print()

    # ------------------------------------------------------------------
    # 3. A traced vectorized execution: span tree and operator actuals.
    # ------------------------------------------------------------------
    engine.clear_result_cache()  # so the traced run really executes
    traced = session.prepare(join, executor="vectorized", trace=True)
    traced.execute()
    trace = engine.last_trace()
    print("span tree of the traced vectorized execution:")
    for span in trace["children"]:
        attrs = span.get("attrs", {})
        print(f"  {span['name']}: {sorted(attrs)}")
        for record in attrs.get("operators", ()):
            print(
                f"    {record['operator']}: "
                f"{record['rows_in']} rows in, {record['rows_out']} out"
            )
    print()

    # ------------------------------------------------------------------
    # 4. Engine-wide metrics: four caches, one snapshot.
    # ------------------------------------------------------------------
    snapshot = engine.metrics_snapshot()
    for name, stats in sorted(snapshot["caches"].items()):
        print(f"{name} cache: {stats}")
    print()
    print("Prometheus exposition (first lines):")
    for line in engine.metrics_prometheus().splitlines()[:8]:
        print(f"  {line}")

    assert len(answer) > 0
    assert "[drift" in skewed.explain(analyze=True)


if __name__ == "__main__":
    main()
