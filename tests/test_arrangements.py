"""Scan arrangements: equality filters and hash joins that probe them.

A scan's columnar batch, and every :class:`~repro.physical.batch.Arrangement`
built on it, is cached on the immutable table version.  A filter
directly over a scan with ``column = constant`` conjuncts runs its
kernel only on the key's bucket plus the symbolic rows; a hash join
reads a scan-rooted indexed input through the arrangement and runs that
input's filter only on the rows its probes reach.  Every case here is
checked for structural identity — same rows, order, value objects,
interned conditions, domains and global — against the interpreted
lifted operators, under both forced build sides.
"""

from __future__ import annotations

import random
import threading
from fractions import Fraction

import pytest

from harness import assert_structurally_identical

from repro import (
    CTable,
    Engine,
    TOP,
    TableError,
    Var,
    col_eq,
    col_eq_const,
    col_ne,
    col_ne_const,
    conj,
    disj,
    eq,
    ne,
    proj,
    prod,
    rel,
    sel,
)
from repro.ctalgebra.plan import collect_stats, execute_plan
from repro.ctalgebra.translate import plan_for_query
from repro.errors import ProbabilityError
from repro.logic.counting import probability_enumerate, probability_shannon
from repro.logic.evaluation import evaluate, evaluation_cache_stats
from repro.logic.syntax import neg
from repro.physical import FilterOp, HashJoinOp, ScanOp, execute_physical, lower
from repro.physical.batch import Batch
from repro.prob.pctable import PCTable
from repro.prob.wmc import compile_probability

X, Y, Z = Var("x"), Var("y"), Var("z")
NAN = float("nan")
OTHER_NAN = float("nan")


def oracle(query, tables, simplify=False):
    """The interpreted lifted operators, through a cache-free engine."""
    engine = Engine(
        executor="interpreted",
        simplify_conditions=simplify,
        plan_cache_size=0,
        result_cache_size=0,
    )
    return engine.session(**tables).query(query).collect()


def assert_identical(expected, answered, context=""):
    assert_structurally_identical(expected, answered, context)
    for want, got in zip(expected.rows, answered.rows):
        # The very term objects: 1, True and 1.0 are ==, but not the same.
        assert all(a is b for a, b in zip(want.values, got.values)), context


def check(query, tables, simplify=False):
    """Both forced build sides of the lowered plan agree with the oracle;
    returns the lowered tree of the last run."""
    expected = oracle(query, tables, simplify)
    plan = plan_for_query(query, tables, optimize=True)
    assert_identical(
        expected, execute_plan(plan, tables, simplify_conditions=simplify)
    )
    for side in ("left", "right"):
        lowered = lower(plan, collect_stats(tables))
        for op in lowered.walk():
            if isinstance(op, HashJoinOp):
                op.build_side = side
        answered = execute_physical(lowered, tables, simplify_conditions=simplify)
        assert_identical(expected, answered, f"build={side} {query!r}")
    return lowered


def keyed_filters(lowered):
    return [
        op for op in lowered.walk()
        if isinstance(op, FilterOp) and op.key_columns
    ]


def value_table():
    """Duplicate keys, symbolic keys mid-table, and 1/True/1.0."""
    return CTable(
        [
            ((1, "a"), TOP),
            ((X, "a"), ne(X, 2)),
            ((2, "b"), eq(Y, 1)),
            ((1, Y), TOP),
            ((True, "a"), eq(X, 1)),
            ((1.0, "c"), TOP),
            ((3, "a"), ne(Y, 3)),
            ((1, "a"), ne(Z, 1)),
            ((Z, Z), eq(Z, 2)),
        ],
        arity=2,
    )


class TestEqualityFilters:
    def test_one_constant_equality(self):
        tables = {"V": value_table()}
        lowered = check(sel(rel("V", 2), col_eq_const(0, 1)), tables)
        (keyed,) = keyed_filters(lowered)
        assert keyed.key_columns == (0,) and keyed.key == (1,)
        assert "key[0]" in keyed.label()

    def test_two_constant_equalities(self):
        tables = {"V": value_table()}
        query = sel(rel("V", 2), conj(col_eq_const(0, 1), col_eq_const(1, "a")))
        lowered = check(query, tables)
        (keyed,) = keyed_filters(lowered)
        assert keyed.key_columns == (0, 1)

    def test_equality_on_a_column_holding_variables(self):
        tables = {"V": value_table()}
        check(sel(rel("V", 2), col_eq_const(1, "a")), tables)
        check(proj(sel(rel("V", 2), col_eq_const(1, "a")), [0]), tables)
        # Mixed with inequalities and a column-column equality.
        query = sel(
            rel("V", 2),
            conj(col_eq_const(0, 1), col_ne_const(1, "c"), col_eq(0, 1)),
        )
        check(query, tables)

    def test_contradictory_constants(self):
        tables = {"V": value_table()}
        query = sel(rel("V", 2), conj(col_eq_const(0, 1), col_eq_const(0, 3)))
        check(query, tables, simplify=False)

    @pytest.mark.parametrize("constant", [1, True, 1.0])
    def test_numeric_constants_share_a_bucket(self, constant):
        tables = {"V": value_table()}
        check(sel(rel("V", 2), col_eq_const(0, constant)), tables)

    def test_nan_matches_only_itself(self):
        table = CTable(
            [
                ((NAN, 1), TOP),
                ((OTHER_NAN, 2), TOP),
                ((X, 3), ne(X, 0)),
                ((NAN, 4), eq(Y, 1)),
            ],
            arity=2,
        )
        tables = {"V": table}
        for constant in (NAN, OTHER_NAN):
            check(sel(rel("V", 2), col_eq_const(0, constant)), tables)
        answered = check(sel(rel("V", 2), col_eq_const(0, NAN)), tables)
        assert keyed_filters(answered)

    def test_empty_table(self):
        tables = {"V": CTable([], arity=2)}
        check(sel(rel("V", 2), col_eq_const(0, 1)), tables)

    def test_simplified_conditions(self):
        table = CTable(
            [
                ((X, 1), eq(X, 2)),  # x = 2 ∧ x = 3 simplifies to false
                ((3, 2), TOP),
                ((X, 3), disj(eq(Y, 1), ne(Y, 1))),
            ],
            arity=2,
            global_condition=disj(eq(Z, 1), ne(Z, 1)),
        )
        tables = {"V": table}
        check(sel(rel("V", 2), col_eq_const(0, 3)), tables, simplify=True)


def join_tables(domains=None):
    left = CTable(
        [
            ((1, "p"), TOP),
            ((X, "q"), ne(X, 1)),  # symbolic key, mid-table
            ((2, "r"), eq(Y, 2)),
            ((1, "s"), eq(X, 3)),  # duplicate key
            ((True, "t"), TOP),
            ((Y, "u"), TOP),  # symbolic key
            ((3, "v"), TOP),
        ],
        arity=2,
        domains=domains,
    )
    right = CTable(
        [
            ((1, 10), TOP),
            ((2, 20), eq(X, 2)),
            ((X, 30), ne(X, 3)),  # symbolic key, mid-table
            ((1.0, 40), eq(Y, 1)),
            ((1, 50), TOP),  # duplicate key
            ((Y, 60), ne(Y, 1)),
            ((4, 70), TOP),
        ],
        arity=2,
        domains=domains,
    )
    return {"L": left, "R": right}


JOIN = sel(prod(rel("L", 2), rel("R", 2)), col_eq(0, 2))


class TestArrangedJoins:
    def test_bare_scans(self):
        lowered = check(JOIN, join_tables())
        (join,) = [op for op in lowered.walk() if isinstance(op, HashJoinOp)]
        assert join.label().endswith("arranged")
        check(proj(JOIN, [1, 3]), join_tables())
        check(proj(JOIN, [0]), join_tables())

    def test_filtered_scans(self):
        # Pushed-down filters make both inputs Filter-over-Scan.
        query = sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq(0, 2), col_ne_const(1, "u"), col_ne_const(3, 40)),
        )
        lowered = check(query, join_tables())
        (join,) = [op for op in lowered.walk() if isinstance(op, HashJoinOp)]
        assert isinstance(join.left, FilterOp) and isinstance(join.right, FilterOp)
        check(proj(query, [1, 0]), join_tables())

    def test_keyed_filter_on_probe_side_and_residual(self):
        query = sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq(0, 2), col_eq_const(1, "s"), col_ne(0, 3)),
        )
        check(query, join_tables())
        query = sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq(0, 2), col_eq_const(3, 30)),
        )
        check(query, join_tables())

    def test_self_join(self):
        query = sel(prod(rel("L", 2), rel("L", 2)), col_eq(0, 2))
        check(proj(query, [1, 3]), join_tables())

    def test_constants_and_nans_as_join_keys(self):
        left = CTable(
            [((1, 0), TOP), ((NAN, 1), TOP), ((OTHER_NAN, 2), TOP),
             ((True, 3), eq(X, 1)), ((X, 4), TOP)],
            arity=2,
        )
        right = CTable(
            [((1.0, 5), TOP), ((NAN, 6), TOP), ((OTHER_NAN, 7), eq(Y, 1)),
             ((NAN, 8), TOP), ((Y, 9), ne(Y, 1))],
            arity=2,
        )
        check(JOIN, {"L": left, "R": right})

    def test_empty_tables(self):
        tables = join_tables()
        for name in ("L", "R"):
            emptied = dict(tables, **{name: CTable([], arity=2)})
            check(JOIN, emptied)
            check(proj(sel(prod(rel("L", 2), rel("R", 2)),
                           conj(col_eq(0, 2), col_ne_const(3, 40))), [1]),
                  emptied)

    def test_simplified_conditions(self):
        tables = join_tables()
        right = CTable(
            list(tables["R"].rows) + [((X, 80), eq(X, 2))],
            arity=2,
            global_condition=disj(eq(Z, 1), ne(Z, 1)),
        )
        tables["R"] = right
        # The filter's x = 3 meets ne(x, 3) and eq(x, 2): false only
        # once simplified, so the lazily filtered side must drop them.
        query = sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq(0, 2), col_eq_const(2, 3)),
        )
        check(query, tables, simplify=True)
        query = sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq(0, 2), col_ne_const(3, 40)),
        )
        check(proj(query, [1, 3]), tables, simplify=True)

    def test_filtered_side_is_simplified_before_the_join(self):
        # simplify is not compositional: simplify(a ∧ simplify(b)) is
        # false here while simplify(a ∧ b) is not, so the lazily
        # filtered side must simplify its rows and global as FilterOp
        # does before the join conjoins them.
        a = conj(neg(disj(ne(X, Y), ne(X, 2))), eq(X, 2))
        b = neg(conj(eq(X, Y), eq(X, 2)))
        tables = {
            "L": CTable([((1, "p"), a), ((2, "q"), TOP)], arity=2,
                        global_condition=a),
            "R": CTable([((1, 10), b), ((2, 20), TOP), ((X, 30), b)],
                        arity=2, global_condition=b),
        }
        query = sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq(0, 2), col_ne_const(3, 99)),
        )
        lowered = check(query, tables, simplify=True)
        (join,) = [op for op in lowered.walk() if isinstance(op, HashJoinOp)]
        assert isinstance(join.right, FilterOp)

    def test_finite_domains(self):
        domains = {"x": (1, 2, 3), "y": (1, 2), "z": (1,)}
        query = sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq(0, 2), col_ne_const(3, 40)),
        )
        check(query, join_tables(domains))

    def test_mixed_finite_infinite_join_still_raises(self):
        tables = join_tables()
        tables["L"] = join_tables({"x": (1, 2, 3), "y": (1, 2)})["L"]
        query = sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq(0, 2), col_ne_const(3, 40)),
        )
        with pytest.raises(TableError):
            oracle(query, tables)
        plan = plan_for_query(query, tables, optimize=True)
        for side in ("left", "right"):
            lowered = lower(plan, collect_stats(tables))
            for op in lowered.walk():
                if isinstance(op, HashJoinOp):
                    op.build_side = side
            with pytest.raises(TableError):
                execute_physical(lowered, tables)

    def test_mixed_domains_without_variables_is_allowed(self):
        tables = join_tables({"x": (1, 2, 3), "y": (1, 2)})
        tables["R"] = CTable([((1, 10), TOP), ((3, 30), TOP)], arity=2)
        check(sel(prod(rel("L", 2), rel("R", 2)),
                  conj(col_eq(0, 2), col_ne_const(3, 10))), tables)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_randomized_joins(self, seed):
        rng = random.Random(seed)
        terms = [X, Y, 1, 2, 3, True, 1.0]

        def table(rows):
            return CTable(
                [
                    (
                        tuple(rng.choice(terms) for _ in range(2)),
                        rng.choice([TOP, eq(X, 1), ne(Y, 2), eq(Z, 3)]),
                    )
                    for _ in range(rows)
                ],
                arity=2,
            )

        for _ in range(12):
            tables = {"L": table(rng.randint(0, 9)), "R": table(rng.randint(0, 9))}
            predicate = conj(
                col_eq(rng.randrange(2), 2 + rng.randrange(2)),
                rng.choice([TOP, col_ne_const(3, 1), col_eq_const(1, 2),
                            col_ne(0, 3)]),
            )
            query = sel(prod(rel("L", 2), rel("R", 2)), predicate)
            check(proj(query, rng.sample(range(4), 2)), tables)
            check(query, tables, simplify=True)


class TestLifetime:
    def test_cached_per_table_version(self):
        table = value_table()
        batch = Batch.of_table(table)
        assert Batch.of_table(table) is batch
        assert batch.arrangement((0,)) is batch.arrangement((0,))
        # An equal but distinct version gets its own batch.
        assert Batch.of_table(CTable(table.rows, arity=2)) is not batch

    def test_rerun_maintenance_sees_every_version(self):
        engine = Engine(maintenance="rerun")
        tables = join_tables()
        session = engine.session(**tables)
        query = proj(sel(prod(rel("L", 2), rel("R", 2)),
                         conj(col_eq(0, 2), col_ne_const(3, 40))), [1, 3])

        def assert_current():
            current = {name: session.table(name) for name in ("L", "R")}
            assert_identical(oracle(query, current), session.query(query).collect())

        assert_current()
        session.insert("R", [((1, 90), eq(X, 1)), ((X, 91), TOP)])
        assert_current()
        session.delete("R", [((1, 10), TOP)])
        assert_current()
        session.update("L", [(((1, "p"), TOP), ((4, "w"), TOP))])
        assert_current()
        session.insert("L", [((4, "x"), TOP)])
        assert_current()
        session.register("R", CTable([((4, 1), TOP), ((Y, 2), TOP)], arity=2))
        assert_current()
        session.register("L", tables["L"])
        assert_current()

    def test_two_threads_first_queries_agree(self):
        tables = join_tables()
        engine = Engine(plan_cache_size=0, result_cache_size=0)
        session = engine.session(**tables)
        queries = [
            proj(JOIN, [1, 3]),
            sel(rel("L", 2), col_eq_const(0, 1)),
            proj(sel(prod(rel("L", 2), rel("R", 2)),
                     conj(col_eq(0, 2), col_ne_const(3, 40))), [1, 0]),
        ]
        barrier = threading.Barrier(2)
        answers = {0: [], 1: []}

        def worker(index):
            barrier.wait()
            for query in queries:
                answers[index].append(session.query(query).collect())

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for query, first, second in zip(queries, answers[0], answers[1]):
            assert_identical(first, second)
            assert_identical(oracle(query, tables), first)


class TestTracing:
    QUERY = proj(
        sel(prod(rel("L", 2), rel("R", 2)), conj(col_eq(0, 2), col_ne_const(3, 40))),
        [1, 3],
    )

    def test_every_operator_has_one_record(self):
        engine = Engine(trace=True)
        tables = join_tables()
        session = engine.session(**tables)
        prepared = session.prepare(self.QUERY)
        answered = prepared.execute()
        assert_identical(oracle(self.QUERY, tables), answered)
        execute = [
            child for child in engine.last_trace()["children"]
            if child["name"] == "execute"
        ][0]
        records = execute["attrs"]["operators"]
        shape = session.query(self.QUERY).explain(physical=True).splitlines()
        assert len(records) == len(shape)
        partial = [record for record in records if record["partial"]]
        assert partial, records
        for record in partial:
            assert record["rows_out"] <= record["rows_in"] <= 7

    def test_explain_analyze_reports_examined_rows_without_drift(self):
        session = Engine().session(**join_tables())
        text = session.prepare(self.QUERY).explain(analyze=True)
        arranged = [line for line in text.splitlines() if "examined (arranged)" in line]
        assert arranged, text
        assert all("[drift" not in line for line in arranged)
        assert "HashJoin" in text and "arranged" in text


class TestEvaluationCounters:
    def test_threaded_totals_are_exact(self):
        formula = conj(eq(X, 1), eq(Y, 2))  # one memoized node per call
        before = evaluation_cache_stats()
        rounds, workers = 400, 4
        barrier = threading.Barrier(workers)

        def work(offset):
            barrier.wait()
            for index in range(rounds):
                evaluate(formula, {"x": (index + offset) % 3, "y": 2})

        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = evaluation_cache_stats()
        if not after["enabled"]:
            pytest.skip("evaluation memo disabled")
        looked_up = (after["hits"] + after["misses"]) - (
            before["hits"] + before["misses"]
        )
        assert looked_up == rounds * workers


class TestDistributionValidation:
    HALF = Fraction(1, 2)

    def invalid(self):
        return {"x": {1: self.HALF, 2: self.HALF}, "y": {1: self.HALF}}

    @pytest.mark.parametrize(
        "strategy",
        [
            probability_shannon,
            probability_enumerate,
            lambda f, d: compile_probability(f, d).probability(),
        ],
    )
    def test_invalid_mentioned_distribution_raises(self, strategy):
        with pytest.raises(ProbabilityError):
            strategy(conj(eq(X, 1), eq(Y, 1)), self.invalid())
        # An unmentioned variable's distribution is not looked at.
        assert strategy(eq(X, 1), self.invalid()) == self.HALF

    @pytest.mark.parametrize("strategy", ["shannon", "enumerate", "wmc"])
    def test_engine_condition_probability(self, strategy):
        engine = Engine()
        with pytest.raises(ProbabilityError):
            engine.condition_probability(
                conj(eq(X, 1), eq(Y, 1)), self.invalid(), strategy=strategy
            )
        assert engine.condition_probability(
            eq(X, 1), self.invalid(), strategy=strategy
        ) == self.HALF

    def test_pctable_validates_every_distribution(self):
        with pytest.raises(ProbabilityError):
            PCTable(CTable([((X,), TOP)], arity=1), self.invalid())


def test_scan_op_reads_the_cached_batch():
    table = value_table()
    from repro.physical import ExecContext

    assert ScanOp("V", 2).execute(ExecContext({"V": table})) is Batch.of_table(table)
