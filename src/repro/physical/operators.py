"""Vectorized physical operators over columnar batches.

Each operator pulls the batches of its children on demand and processes
their rows column-wise.  The runtime contract — checked by the
executor-equivalence tests — is *structural identity* with the
interpreted lifted operators of :mod:`repro.ctalgebra.lifted`: the same
rows, composed of the same interned condition objects, in the same
order.  That keeps the interpreted path usable as an oracle and lets the
engine flip executors without observable changes.

Where the speed comes from:

- :class:`FilterOp` and :class:`HashJoinOp` compile their predicates
  once, at construction, into a
  :class:`~repro.physical.kernels.PredicateKernel` — the same kernel
  the IVM select and join states run.  On constant rows the kernel
  folds each (in)equality conjunct to ``true`` or ``false`` without
  building an atom and stops at the first ``false``; a ``true`` result
  keeps the row's interned condition object untouched (the
  ``select_bar`` fast exit, vectorized);
- :class:`HashJoinOp` generalizes the fused ``join_bar`` to any equijoin
  keys the planner found, with the *build side chosen by the
  cardinality estimates*; on hash-matched pairs the kernel folds the
  equijoin conjuncts to ``true`` on their constants;
- :class:`ProjectOp` deduplicates projected rows through one hash pass,
  disjoining the conditions of now-identical rows (the paper's ``π̄``);
- :class:`DifferenceOp`/:class:`IntersectOp` reuse the constant-tuple
  hash-bucket scheme of the lifted operators, fold a candidate pair to
  ``false`` as soon as two constants in one column disagree, and
  memoize the whole membership condition per distinct left value-tuple.

Each operator's work is split three ways: ``compute`` consumes
already-materialized input batches (``execute`` only adds the
pull-based recursion over children), the build-once state (hash-join
partitions, membership indexes) is constructed by separate helpers, and
the per-row loops are *range kernels* that accept an arbitrary row
range, sealed into a batch by a separate ``seal`` step.  The batch path
runs the kernels over ``range(n)``; keeping them separable lets another
caller — delta propagation, say — share the exact kernels and so
produce structurally identical outputs.
"""

from __future__ import annotations

from itertools import chain, islice
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.instance import Instance
    from repro.ctalgebra.plan import PlanNode
    from repro.obs.trace import TraceCollector

from repro.errors import ArityError, QueryError, nearest_name
from repro.logic.atoms import Const, Term, eq
from repro.logic.syntax import BOTTOM, TOP, Formula, conj, disj, neg
from repro.tables.ctable import CTable
from repro.physical.batch import Batch, merge_metadata
from repro.physical.kernels import PredicateKernel, tuples_equal

#: (left row, right row, composed condition) emitted by join/product loops.
_Pair = Tuple[int, int, Formula]

#: Hash-partitioned build side: (buckets, symbolic row ids, keyed flags).
_BuildIndex = Tuple[Dict[tuple, List[int]], List[int], List[bool]]


class ExecContext:
    """Per-execution state: table bindings plus shared memo tables."""

    __slots__ = (
        "tables",
        "simplify_conditions",
        "collector",
        "_scan_batches",
        "_simplify_memo",
    )

    def __init__(
        self,
        tables: Mapping[str, CTable],
        simplify_conditions: bool = False,
        collector: Optional["TraceCollector"] = None,
    ) -> None:
        self.tables = tables
        self.simplify_conditions = simplify_conditions
        #: Per-operator actuals sink (EXPLAIN ANALYZE / tracing); None —
        #: the overwhelmingly common case — keeps execution untouched.
        self.collector = collector
        self._scan_batches: Dict[str, Batch] = {}
        self._simplify_memo: Dict[Formula, Formula] = {}

    def scan_batch(self, name: str, rel_arity: int) -> Batch:
        """The columnar batch of a bound table (built once per execution,
        so self-joins transpose the table a single time)."""
        batch = self._scan_batches.get(name)
        if batch is None:
            table = self.tables.get(name)
            if table is None:
                hint = nearest_name(name, sorted(self.tables))
                raise QueryError(
                    f"no c-table bound for name {name!r}; bound names are "
                    f"{sorted(self.tables)}{hint}"
                )
            batch = Batch.from_ctable(table)
            self._scan_batches[name] = batch
        if batch.arity != rel_arity:
            raise QueryError(
                f"c-table {name!r} has arity {batch.arity}, "
                f"query expects {rel_arity}"
            )
        return batch

    def simplified(self, condition: Formula) -> Formula:
        """Memoized condition simplification (interned nodes hash O(1))."""
        cached = self._simplify_memo.get(condition)
        if cached is None:
            from repro.logic.simplify import simplify

            cached = simplify(condition)
            self._simplify_memo[condition] = cached
        return cached


def _finish(
    ctx: ExecContext,
    columns: Sequence[Sequence[Term]],
    conditions: Sequence[Formula],
    arity: int,
    domains: Optional[Dict[str, tuple]],
    global_condition: Formula,
) -> Batch:
    """Seal an operator's output, mirroring ``execute_plan``'s optional
    per-operator ``simplified()`` pass (leaf scans are exempt there too)."""
    if ctx.simplify_conditions:
        keep: List[int] = []
        simplified: List[Formula] = []
        for index, condition in enumerate(conditions):
            folded = ctx.simplified(condition)
            if folded is not BOTTOM:
                keep.append(index)
                simplified.append(folded)
        if len(keep) != len(conditions):
            columns = [
                tuple(column[index] for index in keep) for column in columns
            ]
        conditions = simplified
        global_condition = ctx.simplified(global_condition)
    return Batch(
        tuple(tuple(column) for column in columns),
        tuple(conditions),
        arity=arity,
        domains=domains,
        global_condition=global_condition,
    )


class PhysicalOp:
    """Base class of physical operators (a small pull-based tree)."""

    __slots__ = ("est_rows",)

    def __init__(self) -> None:
        #: Planner cardinality estimate, stamped by ``lower()`` when
        #: statistics are available; rendered by ``explain_physical``.
        self.est_rows: Optional[float] = None

    @property
    def arity(self) -> int:
        raise NotImplementedError

    def children(self) -> Tuple["PhysicalOp", ...]:
        return ()

    def execute(self, ctx: ExecContext) -> Batch:
        """Pull the children and process them — the serial path."""
        inputs = tuple(child.execute(ctx) for child in self.children())
        collector = ctx.collector
        if collector is None:
            return self.compute(ctx, inputs)
        started = perf_counter()
        output = self.compute(ctx, inputs)
        collector.record(self, inputs, output, perf_counter() - started)
        return output

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        """Process already-materialized input batches."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def walk(self) -> Iterator["PhysicalOp"]:
        yield self
        for child in self.children():
            yield from child.walk()


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------

class ScanOp(PhysicalOp):
    """Columnar scan of a bound input c-table."""

    __slots__ = ("name", "rel_arity")

    def __init__(self, name: str, rel_arity: int) -> None:
        super().__init__()
        self.name = name
        self.rel_arity = rel_arity

    @property
    def arity(self) -> int:
        return self.rel_arity

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        return ctx.scan_batch(self.name, self.rel_arity)

    def label(self) -> str:
        return f"Scan({self.name})"


class ConstScanOp(PhysicalOp):
    """A constant relation embedded as a variable-free batch."""

    __slots__ = ("instance",)

    def __init__(self, instance: "Instance") -> None:
        super().__init__()
        self.instance = instance

    @property
    def arity(self) -> int:
        return self.instance.arity

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        from repro.ctalgebra.plan import const_table

        return Batch.from_ctable(const_table(self.instance))

    def label(self) -> str:
        return f"ConstScan({list(self.instance.rows)!r})"


class EmptyOp(PhysicalOp):
    """A pruned region: no rows, but the sources' domains and globals."""

    __slots__ = ("empty_arity", "sources")

    def __init__(
        self, empty_arity: int, sources: "Tuple[PlanNode, ...]"
    ) -> None:
        super().__init__()
        self.empty_arity = empty_arity
        self.sources = sources

    @property
    def arity(self) -> int:
        return self.empty_arity

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        from repro.ctalgebra.plan import EmptyNode, empty_table

        node = EmptyNode(self.empty_arity, self.sources)
        return Batch.from_ctable(empty_table(node, ctx.tables))

    def label(self) -> str:
        return f"Empty[{self.empty_arity}]"


# ----------------------------------------------------------------------
# Filter
# ----------------------------------------------------------------------

class FilterOp(PhysicalOp):
    """Vectorized ``σ̄``: one compiled predicate kernel run per row.

    The predicate is compiled once, at construction, into a
    :class:`~repro.physical.kernels.PredicateKernel`; execution takes
    one pass over the batch.  A row whose constants fold the predicate
    to ``true`` keeps its original interned condition object — no
    conjunction is allocated at all (the ``select_bar`` fast exit,
    vectorized); a ``false`` fold drops the row before it is ever
    materialized.
    """

    __slots__ = ("child", "predicate", "kernel")

    def __init__(self, child: PhysicalOp, predicate: Formula) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate
        self.kernel = PredicateKernel(predicate, child.arity)

    @property
    def arity(self) -> int:
        return self.child.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        (child,) = inputs
        keep, kept_conditions, unchanged = self.filter_range(
            child, range(len(child.conditions))
        )
        return self.seal(ctx, child, keep, kept_conditions, unchanged)

    def filter_range(
        self, child: Batch, rows: range
    ) -> Tuple[List[int], List[Formula], bool]:
        """The filter kernel over a row range of *child*.

        Returns the kept row indexes, their composed conditions, and
        whether every visited row survived with its original interned
        condition object.  Row tuples are zipped out of the columns one
        at a time; a list of all of them would outlive young garbage
        collections and bring on more full ones.
        """
        instantiate = self.kernel.instantiate
        conditions = child.conditions
        keep: List[int] = []
        kept_conditions: List[Formula] = []
        unchanged = True
        tuples = islice(child.rows(), rows.start, rows.stop, rows.step)
        for row, values in zip(rows, tuples):
            residual = instantiate(values)
            if residual is TOP:
                keep.append(row)
                kept_conditions.append(conditions[row])
                continue
            if residual is BOTTOM:
                unchanged = False
                continue
            condition = conj(conditions[row], residual)
            if condition is BOTTOM:
                unchanged = False
                continue
            keep.append(row)
            kept_conditions.append(condition)
            if condition is not conditions[row]:
                unchanged = False
        return keep, kept_conditions, unchanged

    def seal(
        self,
        ctx: ExecContext,
        child: Batch,
        keep: Sequence[int],
        kept_conditions: Sequence[Formula],
        unchanged: bool,
    ) -> Batch:
        """Materialize the kernel results (the ``select_bar`` fast exit:
        a fully-unchanged batch is returned as the child object)."""
        conditions = child.conditions
        if unchanged and len(keep) == len(conditions):
            if not ctx.simplify_conditions:
                return child
            columns: Sequence[Sequence[Term]] = child.columns
        elif len(keep) == len(conditions):
            columns = child.columns
        else:
            columns = [
                tuple(column[row] for row in keep) for column in child.columns
            ]
        return _finish(
            ctx, columns, list(kept_conditions), self.arity,
            child.domains, child.global_condition,
        )

    def label(self) -> str:
        return f"Filter[{self.predicate!r}]"


# ----------------------------------------------------------------------
# Project
# ----------------------------------------------------------------------

class ProjectOp(PhysicalOp):
    """Vectorized ``π̄`` with condition-dedup.

    One hash pass groups rows whose projected value-tuples became
    identical and disjoins their conditions in row order — exactly
    ``project_bar``'s merge, without building intermediate rows.
    """

    __slots__ = ("child", "columns")

    def __init__(self, child: PhysicalOp, columns: Tuple[int, ...]) -> None:
        super().__init__()
        self.child = child
        self.columns = tuple(columns)

    @property
    def arity(self) -> int:
        return len(self.columns)

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        (child,) = inputs
        order, grouped = self.group_range(
            child, range(len(child.conditions))
        )
        return self.seal(ctx, child, order, grouped)

    def group_range(
        self, child: Batch, rows: Iterable[int]
    ) -> Tuple[List[Tuple[Term, ...]], Dict[Tuple[Term, ...], List[Formula]]]:
        """Group a row range by projected value-tuple, in row order."""
        projected = [child.columns[index] for index in self.columns]
        grouped: Dict[Tuple[Term, ...], List[Formula]] = {}
        order: List[Tuple[Term, ...]] = []
        conditions = child.conditions
        for row in rows:
            key = tuple(column[row] for column in projected)
            bucket = grouped.get(key)
            if bucket is None:
                grouped[key] = [conditions[row]]
                order.append(key)
            else:
                bucket.append(conditions[row])
        return order, grouped

    def seal(
        self,
        ctx: ExecContext,
        child: Batch,
        order: Sequence[Tuple[Term, ...]],
        grouped: Mapping[Tuple[Term, ...], List[Formula]],
    ) -> Batch:
        merged = [disj(*grouped[key]) for key in order]
        columns = (
            list(zip(*order))
            if order
            else [() for _ in range(self.arity)]
        )
        return _finish(
            ctx, columns, merged, self.arity,
            child.domains, child.global_condition,
        )

    def label(self) -> str:
        return f"Project[{','.join(str(c) for c in self.columns)}]"


# ----------------------------------------------------------------------
# Joins and products
# ----------------------------------------------------------------------

def _constant_key(
    columns: Sequence[Sequence[Term]], key_columns: Sequence[int], row: int
) -> Optional[tuple]:
    """The row's constant values at *key_columns*, or None if any is a Var."""
    key = []
    for index in key_columns:
        term = columns[index][row]
        if not isinstance(term, Const):
            return None
        key.append(term.value)
    return tuple(key)


def _pair_condition(
    kernel: PredicateKernel, left: Batch, right: Batch
) -> Callable[[int, int], Formula]:
    """``(i, j) ↦ conj(l.condition, r.condition, c(t₁t₂))`` for two batches.

    The kernel runs over the concatenation of the two rows' value
    tuples; on hash-matched pairs it folds the equijoin conjuncts to
    ``true`` on their constants, so only the residual can survive.
    """
    left_rows, right_rows = list(left.rows()), list(right.rows())
    left_conditions, right_conditions = left.conditions, right.conditions
    instantiate = kernel.instantiate

    def pair_condition(i: int, j: int) -> Formula:
        instantiated = instantiate(left_rows[i] + right_rows[j])
        if instantiated is BOTTOM:
            return BOTTOM
        return conj(left_conditions[i], right_conditions[j], instantiated)

    return pair_condition


def _gather_pairs(
    left: Batch,
    right: Batch,
    pairs: Sequence[Tuple[int, int, Formula]],
) -> Tuple[List[Sequence[Term]], List[Formula]]:
    """Columns + conditions of the surviving (i, j, condition) pairs."""
    left_index = [i for i, _, _ in pairs]
    right_index = [j for _, j, _ in pairs]
    columns: List[Sequence[Term]] = [
        tuple(column[i] for i in left_index) for column in left.columns
    ]
    columns.extend(
        tuple(column[j] for j in right_index) for column in right.columns
    )
    return columns, [condition for _, _, condition in pairs]


class HashJoinOp(PhysicalOp):
    """``σ̄_c(T₁ ×̄ T₂)`` fused, hash-partitioned on arbitrary equijoin keys.

    Rows whose key columns are all constants are bucketed; a pair whose
    constants disagree could only produce a ``false`` condition, so it is
    never built.  Rows with a variable in a key column stay symbolic and
    pair with every opposite row (Lemma 1 quantifies over one valuation).

    ``build_side`` is chosen by ``lower()`` from the cardinality
    estimates.  Building on the left streams the (usually larger) right
    side through the hash table; the emitted pairs are then re-ranked to
    the probe-left order so the output stays structurally identical to
    ``join_bar``'s for downstream condition-dedup.
    """

    __slots__ = (
        "left", "right", "predicate", "left_keys", "right_keys",
        "build_side", "kernel",
    )

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        predicate: Formula,
        left_keys: Tuple[int, ...],
        right_keys: Tuple[int, ...],
        build_side: str = "right",
    ) -> None:
        super().__init__()
        if build_side not in ("left", "right"):
            raise QueryError(f"unknown build side {build_side!r}")
        self.left = left
        self.right = right
        self.predicate = predicate
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.build_side = build_side
        self.kernel = PredicateKernel(predicate, left.arity + right.arity)

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        left, right = inputs
        pair_condition = _pair_condition(self.kernel, left, right)
        if self.build_side == "right":
            build = self.build(right, self.right_keys)
            pairs = self.probe_left(
                left, right, pair_condition, build, range(len(left))
            )
        else:
            build = self.build(left, self.left_keys)
            ranked = self.probe_right(
                left, right, pair_condition, build, range(len(right))
            )
            pairs = self.restore_order(ranked)
        return self.seal(ctx, left, right, pairs)

    @staticmethod
    def build(batch: Batch, keys: Tuple[int, ...]) -> _BuildIndex:
        """Hash-partition the build side once: (buckets, symbolic, keyed).

        ``keyed[row]`` is False exactly for the symbolic rows — the
        probe-right rank pass needs it per probed row, so it is derived
        here once rather than per probe range.  The structures belong to
        one ``compute`` call and are read-only while it probes them.
        """
        buckets: Dict[tuple, List[int]] = {}
        symbolic: List[int] = []
        keyed = [True] * len(batch)
        for row in range(len(batch)):
            key = _constant_key(batch.columns, keys, row)
            if key is None:
                symbolic.append(row)
                keyed[row] = False
            else:
                buckets.setdefault(key, []).append(row)
        return buckets, symbolic, keyed

    def probe_left(
        self,
        left: Batch,
        right: Batch,
        pair_condition: Callable[[int, int], Formula],
        build: _BuildIndex,
        rows: Iterable[int],
    ) -> List[_Pair]:
        """Probe left rows in order against a right build (join_bar's loop).

        Emitted pairs are left-major, so concatenating the outputs of
        consecutive row ranges reproduces the full-range output exactly.
        """
        buckets, symbolic, _ = build
        all_right = range(len(right))
        pairs = []
        for i in rows:
            key = _constant_key(left.columns, self.left_keys, i)
            if key is None:
                for j in all_right:
                    condition = pair_condition(i, j)
                    if condition is not BOTTOM:
                        pairs.append((i, j, condition))
                continue
            # Bucket matches first, then the symbolic rows (join_bar's
            # candidate order).
            for j in chain(buckets.get(key, ()), symbolic):
                condition = pair_condition(i, j)
                if condition is not BOTTOM:
                    pairs.append((i, j, condition))
        return pairs

    def probe_right(
        self,
        left: Batch,
        right: Batch,
        pair_condition: Callable[[int, int], Formula],
        build: _BuildIndex,
        rows: Iterable[int],
    ) -> List[Tuple[int, int, int, Formula]]:
        """Build on the left, probe right rows; emit *ranked* pairs.

        A pair survives iff the left key is symbolic, the right key is
        symbolic, or both constants agree — the same set either way.  The
        probe-left output ranks pair (i, j) by ``(i, flag, j)`` where
        *flag* puts a symbolic right row after a keyed left row's bucket
        matches; :meth:`restore_order` sorts by that (unique) rank, so
        ranked pairs collected from disjoint right-row ranges merge into
        the exact probe-left row order regardless of range boundaries.
        """
        buckets, symbolic, left_keyed = build
        all_left = range(len(left))
        ranked = []
        for j in rows:
            key = _constant_key(right.columns, self.right_keys, j)
            if key is None:
                for i in all_left:
                    condition = pair_condition(i, j)
                    if condition is BOTTOM:
                        continue
                    flag = 1 if left_keyed[i] else 0
                    ranked.append((i, flag, j, condition))
                continue
            for i in chain(buckets.get(key, ()), symbolic):
                condition = pair_condition(i, j)
                if condition is not BOTTOM:
                    ranked.append((i, 0, j, condition))
        return ranked

    @staticmethod
    def restore_order(ranked: list) -> list:
        """Sort ranked pairs back into the deterministic probe-left order."""
        ranked.sort(key=lambda pair: pair[:3])
        return [(i, j, condition) for i, _, j, condition in ranked]

    def seal(
        self,
        ctx: ExecContext,
        left: Batch,
        right: Batch,
        pairs: Sequence[_Pair],
    ) -> Batch:
        columns, conditions = _gather_pairs(left, right, pairs)
        domains, global_condition = merge_metadata(left, right)
        return _finish(
            ctx, columns, conditions, self.arity, domains, global_condition
        )

    def label(self) -> str:
        return f"HashJoin[{self.predicate!r}] build={self.build_side}"


class ProductOp(PhysicalOp):
    """``×̄``: every pair, with a pairwise condition-conjunction memo."""

    __slots__ = ("left", "right")

    def __init__(self, left: PhysicalOp, right: PhysicalOp) -> None:
        super().__init__()
        self.left = left
        self.right = right

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        left, right = inputs
        memo: Dict[Tuple[Formula, Formula], Formula] = {}
        pairs = self.pairs_range(left, right, memo, range(len(left)))
        return self.seal(ctx, left, right, pairs)

    @staticmethod
    def pairs_range(
        left: Batch,
        right: Batch,
        memo: Dict[Tuple[Formula, Formula], Formula],
        rows: Iterable[int],
    ) -> list:
        """Pair a range of left rows with every right row, left-major.

        *memo* caches ``conj`` per (left, right) condition pair for one
        ``compute`` call; conditions are interned, so the keys hash by
        identity.
        """
        pairs = []
        left_conditions = left.conditions
        right_conditions = right.conditions
        for i in rows:
            left_condition = left_conditions[i]
            for j, right_condition in enumerate(right_conditions):
                key = (left_condition, right_condition)
                condition = memo.get(key)
                if condition is None:
                    condition = conj(left_condition, right_condition)
                    memo[key] = condition
                if condition is not BOTTOM:
                    pairs.append((i, j, condition))
        return pairs

    def seal(
        self,
        ctx: ExecContext,
        left: Batch,
        right: Batch,
        pairs: Sequence[_Pair],
    ) -> Batch:
        columns, conditions = _gather_pairs(left, right, pairs)
        domains, global_condition = merge_metadata(left, right)
        return _finish(
            ctx, columns, conditions, self.arity, domains, global_condition
        )

    def label(self) -> str:
        return "Product"


# ----------------------------------------------------------------------
# Union / difference / intersection
# ----------------------------------------------------------------------

def _check_same_arity(left: PhysicalOp, right: PhysicalOp) -> None:
    if left.arity != right.arity:
        raise ArityError(
            f"arity mismatch: {left.arity} vs {right.arity}"
        )


class UnionOp(PhysicalOp):
    """``∪̄``: columnar concatenation."""

    __slots__ = ("left", "right")

    def __init__(self, left: PhysicalOp, right: PhysicalOp) -> None:
        super().__init__()
        _check_same_arity(left, right)
        self.left = left
        self.right = right

    @property
    def arity(self) -> int:
        return self.left.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        left, right = inputs
        columns = [
            left_column + right_column
            for left_column, right_column in zip(left.columns, right.columns)
        ]
        conditions = list(left.conditions + right.conditions)
        domains, global_condition = merge_metadata(left, right)
        return _finish(
            ctx, columns, conditions, self.arity, domains, global_condition
        )

    def label(self) -> str:
        return "Union"


class _MembershipIndex:
    """The hash-bucket pairing of ``−̄``/``∩̄`` over a right batch.

    All-constant right rows are bucketed by value tuple; rows with a
    variable entry stay symbolic and pair with every left row.  The
    relevant right rows for a left row come back *in original right
    order*, so the composed membership conditions are structurally
    identical to the lifted operators'.  The whole membership condition
    is memoized per distinct left value-tuple — duplicate-valued left
    rows (common after projections) pay for it once.
    """

    __slots__ = ("right", "_rows", "_buckets", "_symbolic", "_memo")

    def __init__(self, right: Batch) -> None:
        self.right = right
        self._rows = list(right.rows())
        self._buckets: Dict[tuple, List[int]] = {}
        self._symbolic: List[int] = []
        for j in range(len(right)):
            key = _constant_key(right.columns, range(right.arity), j)
            if key is None:
                self._symbolic.append(j)
            else:
                self._buckets.setdefault(key, []).append(j)
        self._memo: Dict[tuple, Formula] = {}

    def _candidates(self, values: tuple) -> Sequence[int]:
        if any(not isinstance(term, Const) for term in values):
            return range(len(self.right))
        key = tuple(term.value for term in values)
        matched = self._buckets.get(key)
        if matched is None:
            return self._symbolic
        if self._symbolic:
            return sorted(matched + self._symbolic)
        return matched

    def membership(self, values: tuple, negated: bool) -> Formula:
        """``⋀ ¬(ϕ_{t₂} ∧ t₁=t₂)`` or ``⋁ (ϕ_{t₂} ∧ t₁=t₂)`` for *values*.

        A ``false`` equality drops its right row: ``¬false`` is a
        ``true`` conjunct and ``false`` a ``false`` disjunct, both of
        which ``conj``/``disj`` would discard anyway.
        """
        key = (values, negated)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        right_conditions = self.right.conditions
        right_rows = self._rows
        parts: List[Formula] = []
        for j in self._candidates(values):
            equal = tuples_equal(values, right_rows[j])
            if equal is not BOTTOM:
                parts.append(conj(right_conditions[j], equal))
        if negated:
            result = conj(*(neg(part) for part in parts))
        else:
            result = disj(*parts)
        self._memo[key] = result
        return result


class _SetDifferenceBase(PhysicalOp):
    """Common machinery of ``−̄`` and ``∩̄``."""

    __slots__ = ("left", "right")

    _negated: bool

    def __init__(self, left: PhysicalOp, right: PhysicalOp) -> None:
        super().__init__()
        _check_same_arity(left, right)
        self.left = left
        self.right = right

    @property
    def arity(self) -> int:
        return self.left.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        left, right = inputs
        index = _MembershipIndex(right)
        keep, conditions = self.membership_range(
            left, index, range(len(left.conditions))
        )
        return self.seal(ctx, left, right, keep, conditions)

    def membership_range(
        self, left: Batch, index: "_MembershipIndex", rows: Iterable[int]
    ) -> Tuple[List[int], List[Formula]]:
        """Compose membership conditions for a range of left rows.

        *index* is built by the same ``compute`` call; its buckets are
        read-only after construction and its membership memo fills as
        distinct left value-tuples arrive.
        """
        keep: List[int] = []
        conditions: List[Formula] = []
        left_columns = left.columns
        left_conditions = left.conditions
        negated = self._negated
        for i in rows:
            values = tuple(column[i] for column in left_columns)
            condition = conj(
                left_conditions[i], index.membership(values, negated)
            )
            if condition is not BOTTOM:
                keep.append(i)
                conditions.append(condition)
        return keep, conditions

    def seal(
        self,
        ctx: ExecContext,
        left: Batch,
        right: Batch,
        keep: Sequence[int],
        conditions: Sequence[Formula],
    ) -> Batch:
        if len(keep) == len(left.conditions):
            columns: Sequence[Sequence[Term]] = left.columns
        else:
            columns = [
                tuple(column[i] for i in keep) for column in left.columns
            ]
        domains, global_condition = merge_metadata(left, right)
        return _finish(
            ctx, columns, list(conditions), self.arity, domains,
            global_condition,
        )


class DifferenceOp(_SetDifferenceBase):
    """``−̄``: keep ``t₁`` unless some ``t₂`` is present and equal."""

    __slots__ = ()
    _negated = True

    def label(self) -> str:
        return "Difference"


class IntersectOp(_SetDifferenceBase):
    """``∩̄``: keep ``t₁`` when some ``t₂`` is present and equal."""

    __slots__ = ()
    _negated = False

    def label(self) -> str:
        return "Intersect"
