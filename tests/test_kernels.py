"""The compiled predicate kernel against ``instantiate_predicate``.

:class:`~repro.physical.kernels.PredicateKernel` folds constant
(in)equalities without building atoms, stops at the first ``false``
conjunct and skips ``conj`` when nothing survives.  Its contract is
identity: for every predicate and every term tuple it returns the very
interned object the generic substitution returns.  The random sweep
below mixes variables with constants that compare equal across types
(``1``, ``True``, ``1.0``), a NaN object compared with itself and two
distinct NaN objects, and predicates with duplicate conjuncts,
``ϕ ∧ ¬ϕ``, ``true``, disjunctions and nested negations.  The same
terms check :func:`~repro.physical.kernels.tuples_equal` against the
lifted ``−̄``/``∩̄`` tuple equality.
"""

from __future__ import annotations

import random

import pytest

from repro import CRow, CTable, Var, col_eq, col_eq_const, conj, disj, eq, ne
from repro.algebra.predicates import col, instantiate_predicate
from repro.ctalgebra.lifted import _rows_equal_condition, select_bar
from repro.ctalgebra.plan import JoinNode, Scan, SelectNode
from repro.errors import QueryError
from repro.ivm.view import MaterializedView
from repro.logic.atoms import Const, boolvar
from repro.logic.syntax import BOTTOM, TOP, And, Formula, neg
from repro.physical import ExecContext, FilterOp, ScanOp, lower
from repro.physical.kernels import (
    PredicateKernel,
    constants_equal,
    tuples_equal,
)

ARITY = 4
NAN = float("nan")
#: Constants whose equality is subtle: 1 == True == 1.0, the shared NaN
#: object equals itself, the other NaN object equals nothing.
CONSTANTS = (
    Const(1), Const(True), Const(1.0), Const(2), Const("a"), Const("b"),
    Const(NAN), Const(float("nan")),
)
VARIABLES = (Var("x"), Var("y"))


def _side(rng: random.Random) -> object:
    if rng.random() < 0.6:
        return col(rng.randrange(ARITY))
    return rng.choice(CONSTANTS)


def _atom(rng: random.Random) -> Formula:
    atom = eq(_side(rng), _side(rng))
    return neg(atom) if rng.random() < 0.5 else atom


def _predicate(rng: random.Random, depth: int = 0) -> Formula:
    """A random predicate; every top-level conjunct shape appears."""
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        return _atom(rng)
    if roll < 0.5:
        return disj(_predicate(rng, depth + 1), _predicate(rng, depth + 1))
    if roll < 0.6:
        return neg(conj(_predicate(rng, depth + 1), _atom(rng)))
    parts = [_predicate(rng, depth + 1) for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.3:
        parts.append(parts[0])  # duplicate conjunct
    if rng.random() < 0.2:
        parts.append(neg(parts[0]))  # ϕ ∧ ¬ϕ
    if rng.random() < 0.2:
        parts.append(TOP)
    return conj(*parts)


def _terms(rng: random.Random) -> tuple:
    return tuple(
        rng.choice(VARIABLES) if rng.random() < 0.3 else rng.choice(CONSTANTS)
        for _ in range(ARITY)
    )


class TestKernelIsOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_predicates_return_the_oracle_object(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            predicate = _predicate(rng)
            kernel = PredicateKernel(predicate, ARITY)
            rows = [_terms(rng) for _ in range(25)]
            for row in rows:
                expected = instantiate_predicate(predicate, row)
                assert kernel.instantiate(row) is expected, (predicate, row)
            # The batch form: FilterOp over the same rows is select_bar.
            table = CTable([(row, TOP) for row in rows], arity=ARITY)
            filtered = FilterOp(ScanOp("V", ARITY), predicate).execute(
                ExecContext({"V": table})
            )
            oracle = select_bar(table, predicate)
            assert list(filtered.rows()) == [r.values for r in oracle.rows]
            assert all(
                got is want.condition
                for got, want in zip(filtered.conditions, oracle.rows)
            )

    def test_filter_range_over_split_ranges_matches_full(self):
        rng = random.Random(99)
        rows = [_terms(rng) for _ in range(40)]
        table = CTable([(row, TOP) for row in rows], arity=ARITY)
        batch = ExecContext({"V": table}).scan_batch("V", ARITY)
        op = FilterOp(ScanOp("V", ARITY), ne(col(0), Const("a")))
        full = op.filter_range(batch, range(len(batch)))
        first = op.filter_range(batch, range(0, 17))
        second = op.filter_range(batch, range(17, len(batch)))
        assert full[0] == first[0] + second[0]
        assert full[1] == first[1] + second[1]

    def test_raw_conjunctions_with_duplicates_true_and_contradiction(self):
        # Raw ``And`` nodes keep what ``conj`` would normalize away.
        atom = ne(col(0), Const("a"))
        predicates = [
            And((atom, atom)),  # interned-ok: duplicate conjuncts
            And((TOP, atom)),  # interned-ok: a true conjunct
            And((atom, neg(atom))),  # interned-ok: ϕ ∧ ¬ϕ
            And((And((atom, col_eq(0, 1))), atom)),  # interned-ok: nesting
            TOP,
            BOTTOM,
        ]
        rows = [
            (Const("a"), Const("a")), (Const("b"), Const("a")),
            (Var("x"), Var("x")), (Var("x"), Const("b")),
        ]
        for predicate in predicates:
            kernel = PredicateKernel(predicate, 2)
            for row in rows:
                expected = instantiate_predicate(predicate, row)
                assert kernel.instantiate(row) is expected, (predicate, row)

    def test_constant_equality_follows_eq(self):
        other_nan = Const(float("nan"))
        pairs = [
            (Const(1), Const(True)), (Const(1), Const(1.0)),
            (Const(NAN), Const(NAN)), (Const(NAN), other_nan),
            (Const(1), Const(2)), (Const("a"), Const("a")),
        ]
        for left, right in pairs:
            assert constants_equal(left, right) == (eq(left, right) is TOP)
            for predicate in (col_eq(0, 1), ne(col(0), col(1))):
                kernel = PredicateKernel(predicate, 2)
                assert kernel.instantiate((left, right)) is (
                    instantiate_predicate(predicate, (left, right))
                )

    def test_false_conjunct_stops_before_later_ones(self):
        # The second conjunct would build a fresh atom; a first conjunct
        # folding to false must return before reaching it.
        predicate = conj(col_eq_const(0, "a"), eq(col(1), Const("fresh")))
        kernel = PredicateKernel(predicate, 2)
        assert kernel.instantiate((Const("b"), Var("never_seen"))) is BOTTOM

    def test_boolean_variables_are_rejected_like_the_oracle(self):
        predicate = conj(col_eq_const(0, 1), boolvar("p"))
        with pytest.raises(QueryError):
            instantiate_predicate(predicate, (Const(1),))
        with pytest.raises(QueryError):
            PredicateKernel(predicate, 1)


class TestTuplesEqual:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_tuples_return_the_oracle_object(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            left, right = _terms(rng), _terms(rng)
            expected = _rows_equal_condition(
                CRow(left, TOP), CRow(right, TOP)
            )
            assert tuples_equal(left, right) is expected, (left, right)


class TestOutOfRangeColumns:
    def test_kernel_construction_rejects(self):
        with pytest.raises(QueryError):
            PredicateKernel(col_eq_const(3, 1), 3)

    def test_lower_rejects_select_and_join(self):
        with pytest.raises(QueryError):
            lower(SelectNode(Scan("V", 2), col_eq_const(2, 1)))
        with pytest.raises(QueryError):
            lower(JoinNode(Scan("V", 2), Scan("W", 2), col_eq(0, 4)))

    @pytest.mark.parametrize(
        "plan",
        [
            SelectNode(Scan("V", 2), col_eq_const(2, 1)),
            JoinNode(Scan("V", 2), Scan("V", 2), col_eq(1, 4)),
        ],
        ids=["select", "join"],
    )
    def test_view_state_build_rejects(self, plan):
        table = CTable([((1, 2), TOP)], arity=2)
        view = MaterializedView(plan, simplify_conditions=False)
        with pytest.raises(QueryError):
            view.refresh({"V": (table, (0,))})
