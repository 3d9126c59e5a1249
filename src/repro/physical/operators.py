"""Vectorized physical operators over columnar batches.

Each operator pulls the batches of its children on demand and processes
their rows column-wise.  The runtime contract — checked by the
executor-equivalence tests — is *structural identity* with the
interpreted lifted operators of :mod:`repro.ctalgebra.lifted`: the same
rows, composed of the same interned condition objects, in the same
order.  That keeps the interpreted path usable as an oracle and lets the
engine flip executors without observable changes.

Where the speed comes from:

- scans are cached: a table version's columnar batch and every
  :class:`~repro.physical.batch.Arrangement` on it (row ids bucketed by
  a constant key, beside the rows with a variable in a key column) are
  built once and shared by every later query;
- :class:`FilterOp` and :class:`HashJoinOp` compile their predicates
  once, at construction, into a
  :class:`~repro.physical.kernels.PredicateKernel` — the same kernel
  the IVM select and join states run.  On constant rows the kernel
  folds each (in)equality conjunct to ``true`` or ``false`` without
  building an atom and stops at the first ``false``; a ``true`` result
  keeps the row's interned condition object untouched (the
  ``select_bar`` fast exit, vectorized).  A filter directly over a scan
  runs it only on the rows its ``column = constant`` conjuncts can
  match, read from the scan's arrangement;
- :class:`HashJoinOp` generalizes the fused ``join_bar`` to any equijoin
  keys the planner found.  It indexes the input ``lower()`` picks from
  the cardinality estimates; a scan-rooted one is read through its
  cached arrangement, filtered only where the probes reach;
- :class:`ProjectOp` deduplicates projected rows through one hash pass,
  disjoining the conditions of now-identical rows (the paper's ``π̄``);
- :class:`DifferenceOp`/:class:`IntersectOp` bucket the right operand's
  constant tuples in an arrangement, fold a candidate pair to ``false``
  as soon as two constants in one column disagree, and memoize the
  whole membership condition per distinct left value-tuple.

``compute`` consumes already-materialized input batches; ``execute``
adds the pull-based recursion over children (and, for a hash join over
a scan-rooted input, reads that input through its arrangement instead).
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
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.instance import Instance
    from repro.ctalgebra.plan import PlanNode
    from repro.obs.trace import TraceCollector

from repro.errors import ArityError, QueryError, nearest_name
from repro.logic.atoms import Const, Term
from repro.logic.syntax import BOTTOM, TOP, Formula, conj, disj, neg
from repro.tables.ctable import CTable
from repro.algebra.predicates import constant_equalities
from repro.physical.batch import Arrangement, Batch, constant_key, merge_metadata
from repro.physical.kernels import PredicateKernel, tuples_equal

#: (left row, right row, composed condition) emitted by join/product loops.
_Pair = Tuple[int, int, Formula]


class ExecContext:
    """Per-execution state: table bindings plus shared memo tables."""

    __slots__ = (
        "tables",
        "simplify_conditions",
        "collector",
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
        self._simplify_memo: Dict[Formula, Formula] = {}

    def scan_batch(self, name: str, rel_arity: int) -> Batch:
        """The columnar batch of a bound table, cached on the table
        version (:meth:`~repro.physical.batch.Batch.of_table`)."""
        table = self.tables.get(name)
        if table is None:
            hint = nearest_name(name, sorted(self.tables))
            raise QueryError(
                f"no c-table bound for name {name!r}; bound names are "
                f"{sorted(self.tables)}{hint}"
            )
        if table.arity != rel_arity:
            raise QueryError(
                f"c-table {name!r} has arity {table.arity}, "
                f"query expects {rel_arity}"
            )
        return Batch.of_table(table)

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
        return self.run(ctx, tuple(child.execute(ctx) for child in self.children()))

    def run(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        """``compute``, timed into the collector when one is attached."""
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

    Directly over a :class:`ScanOp`, a predicate with top-level
    ``column = constant`` conjuncts (``key_columns``/``key``) runs its
    kernel only on the key's bucket of the scan's cached
    :class:`~repro.physical.batch.Arrangement`, merged in row order with
    the rows holding a variable in a key column: every other row has a
    key conjunct that folds to ``false``.
    """

    __slots__ = ("child", "predicate", "kernel", "key_columns", "key")

    def __init__(self, child: PhysicalOp, predicate: Formula) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate
        self.kernel = PredicateKernel(predicate, child.arity)
        self.key_columns, self.key = (
            constant_equalities(predicate)
            if isinstance(child, ScanOp)
            else ((), ())
        )

    @property
    def arity(self) -> int:
        return self.child.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        (child,) = inputs
        rows: Sequence[int] = range(len(child.conditions))
        if self.key_columns:
            rows = child.arrangement(self.key_columns).matching(self.key)
        keep, kept_conditions, unchanged = self.filter_range(child, rows)
        return self.seal(ctx, child, keep, kept_conditions, unchanged)

    def compose(self, condition: Formula, values: Sequence[Term]) -> Formula:
        """One row's ``σ̄`` condition: *condition* itself when the
        predicate folds to ``true`` on *values*, ``false`` when it folds
        to ``false``, else their conjunction."""
        residual = self.kernel.instantiate(values)
        if residual is TOP:
            return condition
        if residual is BOTTOM:
            return BOTTOM
        return conj(condition, residual)

    def filter_range(
        self, child: Batch, rows: Sequence[int]
    ) -> Tuple[List[int], List[Formula], bool]:
        """The filter kernel over ascending row ids of *child*.

        Returns the kept row indexes, their composed conditions, and
        whether every visited row survived with its original interned
        condition object.  A range zips its row tuples out of the
        columns one at a time (a list of all of them would outlive
        young garbage collections and bring on more full ones); other
        row ids index the row tuples a scan batch already holds.
        """
        instantiate = self.kernel.instantiate
        conditions = child.conditions
        if isinstance(rows, range):
            tuples: Iterable[Sequence[Term]] = islice(
                child.rows(), rows.start, rows.stop, rows.step
            )
        else:
            every = child.row_tuples()
            tuples = (every[row] for row in rows)
        keep: List[int] = []
        kept_conditions: List[Formula] = []
        unchanged = True
        for row, values in zip(rows, tuples):
            # compose(), inlined: this is the hot loop.
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
        key = ",".join(str(column) for column in self.key_columns)
        return f"Filter[{self.predicate!r}]" + (f" key[{key}]" if key else "")


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
        projected = [child.columns[index] for index in self.columns]
        grouped: Dict[Tuple[Term, ...], List[Formula]] = {}
        order: List[Tuple[Term, ...]] = []
        conditions = child.conditions
        for row in range(len(conditions)):
            key = tuple(column[row] for column in projected)
            bucket = grouped.get(key)
            if bucket is None:
                grouped[key] = [conditions[row]]
                order.append(key)
            else:
                bucket.append(conditions[row])
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

def _gather_pairs(
    left_columns: Sequence[Sequence[Term]],
    right_columns: Sequence[Sequence[Term]],
    pairs: Sequence[Tuple[int, int, Formula]],
) -> Tuple[List[Sequence[Term]], List[Formula]]:
    """Columns + conditions of the surviving (i, j, condition) pairs."""
    left_index = [i for i, _, _ in pairs]
    right_index = [j for _, j, _ in pairs]
    columns: List[Sequence[Term]] = [
        tuple(column[i] for i in left_index) for column in left_columns
    ]
    columns.extend(
        tuple(column[j] for j in right_index) for column in right_columns
    )
    return columns, [condition for _, _, condition in pairs]


def scan_rooted(op: PhysicalOp) -> bool:
    """True for a :class:`ScanOp` or a :class:`FilterOp` directly over
    one: an input a hash join can read through its table's cached
    arrangement."""
    if isinstance(op, FilterOp):
        op = op.child
    return isinstance(op, ScanOp)


class _Indexed(NamedTuple):
    """A hash join's indexed input as its probes read it.

    ``conditions[row]`` is the input's condition of row *row* — ``false``
    when the input drops it — or None until ``fetch(row)`` computes and
    stores it; *header* carries the input's domains and global.
    """

    arrangement: Arrangement
    rows: Sequence[Tuple[Term, ...]]
    columns: Sequence[Sequence[Term]]
    conditions: Sequence[Optional[Formula]]
    fetch: Callable[[int], Formula]
    header: Batch


def _arranged_input(
    ctx: ExecContext, op: PhysicalOp, base: Batch, keys: Tuple[int, ...]
) -> _Indexed:
    """A scan-rooted join input read through *base*'s arrangement.

    A filter's condition for a row is computed when a probe first
    reaches the row, then memoized; it is dropped and simplified as
    :meth:`FilterOp.seal` would.  A bare scan's conditions are its rows'.
    """
    conditions = base.conditions
    tuples = base.row_tuples()
    memo: List[Optional[Formula]] = [None] * len(conditions)
    compose = op.compose if isinstance(op, FilterOp) else None
    simplify = compose is not None and ctx.simplify_conditions

    def fetch(row: int) -> Formula:
        condition = conditions[row]
        if compose is not None:
            condition = compose(condition, tuples[row])
            if simplify and condition is not BOTTOM:
                condition = ctx.simplified(condition)
        memo[row] = condition
        return condition

    global_condition = base.global_condition
    if simplify:
        global_condition = ctx.simplified(global_condition)
    # Metadata only: merge_metadata reads no rows of a side whose domain
    # kind (finite or infinite) equals the other side's.
    header = Batch(
        (), (), arity=base.arity, domains=base.domains,
        global_condition=global_condition,
    )
    return _Indexed(
        base.arrangement(keys), tuples, base.columns, memo, fetch, header
    )


class HashJoinOp(PhysicalOp):
    """``σ̄_c(T₁ ×̄ T₂)`` fused, hash-partitioned on arbitrary equijoin keys.

    The *indexed* input (``build_side``) is bucketed by the constant
    values of its key columns in an
    :class:`~repro.physical.batch.Arrangement`; a pair whose constants
    disagree could only produce a ``false`` condition, so it is never
    built.  Rows with a variable in a key column stay symbolic and pair
    with every opposite row (Lemma 1 quantifies over one valuation).

    ``lower()`` indexes the larger estimated input when it is
    scan-rooted, else the smaller.  A scan-rooted indexed input is never
    materialized: the join probes the arrangement cached on its table
    version, and a filter on it runs only on the rows the probes reach.
    Any other indexed input is materialized and arranged per execution.
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

    def indexed(self) -> PhysicalOp:
        """The input the join buckets (``build_side``)."""
        return self.left if self.build_side == "left" else self.right

    def execute(self, ctx: ExecContext) -> Batch:
        indexed_op = self.indexed()
        scan = indexed_op.child if isinstance(indexed_op, FilterOp) else indexed_op
        if not isinstance(scan, ScanOp):
            return super().execute(ctx)
        index_left = self.build_side == "left"
        if index_left:
            base = ctx.scan_batch(scan.name, scan.rel_arity)
            probe = self.right.execute(ctx)
        else:
            probe = self.left.execute(ctx)
            base = ctx.scan_batch(scan.name, scan.rel_arity)
        if (base.domains is None) != (probe.domains is None):
            # A finite/infinite mix is rejected only when the infinite
            # side has variables: materialize the input to tell.
            indexed = indexed_op.execute(ctx)
            return self.run(ctx, (indexed, probe) if index_left else (probe, indexed))
        started = perf_counter()
        keys = self.left_keys if index_left else self.right_keys
        side = _arranged_input(ctx, indexed_op, base, keys)
        output = self.join(ctx, probe, side)
        collector = ctx.collector
        if collector is not None:
            collector.record(self, (probe,), output, perf_counter() - started)
            reached = [c for c in side.conditions if c is not None]
            kept = sum(1 for condition in reached if condition is not BOTTOM)
            collector.record_partial(indexed_op, len(reached), kept)
            if scan is not indexed_op:
                collector.record(scan, (), base, 0.0)
        return output

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        left, right = inputs
        if self.build_side == "left":
            probe, built, keys = right, left, self.left_keys
        else:
            probe, built, keys = left, right, self.right_keys
        side = _Indexed(
            built.arrangement(keys), built.row_tuples(), built.columns,
            built.conditions, built.conditions.__getitem__, built,
        )
        return self.join(ctx, probe, side)

    def join(self, ctx: ExecContext, probe: Batch, side: _Indexed) -> Batch:
        """Probe *side* with every *probe* row and seal the pairs."""
        pairs = self.probe(probe, side)
        if self.build_side == "right":
            columns, conditions = _gather_pairs(probe.columns, side.columns, pairs)
            domains, global_condition = merge_metadata(probe, side.header)
        else:
            columns, conditions = _gather_pairs(side.columns, probe.columns, pairs)
            domains, global_condition = merge_metadata(side.header, probe)
        return _finish(
            ctx, columns, conditions, self.arity, domains, global_condition
        )

    def probe(self, probe: Batch, side: _Indexed) -> List[_Pair]:
        """Pair each probe row with its candidates — every indexed row
        for a symbolic probe key, else the key's bucket, then the
        symbolic rows — in ``join_bar``'s left-major order.

        Indexing the right input, that is the probe order itself.
        Indexing the left one, pair (i, j) is ranked ``(i, flag, j)``,
        where *flag* puts a symbolic right row after a keyed left row's
        bucket matches; sorting by that unique rank restores the order.
        """
        buckets = side.arrangement.buckets
        symbolic = side.arrangement.symbolic
        keyed = side.arrangement.keyed
        conditions, fetch, indexed_rows = side.conditions, side.fetch, side.rows
        instantiate = self.kernel.instantiate
        index_right = self.build_side == "right"
        keys = self.left_keys if index_right else self.right_keys
        key_columns = [probe.columns[index] for index in keys]
        probe_conditions = probe.conditions
        every = range(len(conditions))
        ranked = []
        for p, values in enumerate(probe.rows()):
            key = constant_key(key_columns, p)
            candidates: Iterable[int] = (
                every if key is None else chain(buckets.get(key, ()), symbolic)
            )
            probe_condition = probe_conditions[p]
            for b in candidates:
                condition = conditions[b]
                if condition is None:
                    condition = fetch(b)
                if condition is BOTTOM:
                    continue
                if index_right:
                    instantiated = instantiate(values + indexed_rows[b])
                    if instantiated is not BOTTOM:
                        condition = conj(probe_condition, condition, instantiated)
                        if condition is not BOTTOM:
                            ranked.append((p, 0, b, condition))
                else:
                    instantiated = instantiate(indexed_rows[b] + values)
                    if instantiated is not BOTTOM:
                        condition = conj(condition, probe_condition, instantiated)
                        if condition is not BOTTOM:
                            flag = 1 if key is None and keyed[b] else 0
                            ranked.append((b, flag, p, condition))
        if not index_right:
            ranked.sort(key=lambda pair: pair[:3])
        return [(i, j, condition) for i, _, j, condition in ranked]

    def label(self) -> str:
        arranged = " arranged" if scan_rooted(self.indexed()) else ""
        return f"HashJoin[{self.predicate!r}] build={self.build_side}{arranged}"


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
        # conj per (left, right) condition pair, memoized: conditions
        # are interned, so the keys hash by identity.
        memo: Dict[Tuple[Formula, Formula], Formula] = {}
        pairs = []
        right_conditions = right.conditions
        for i, left_condition in enumerate(left.conditions):
            for j, right_condition in enumerate(right_conditions):
                key = (left_condition, right_condition)
                condition = memo.get(key)
                if condition is None:
                    condition = conj(left_condition, right_condition)
                    memo[key] = condition
                if condition is not BOTTOM:
                    pairs.append((i, j, condition))
        columns, conditions = _gather_pairs(left.columns, right.columns, pairs)
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

    All-constant right rows are bucketed by value tuple in the right
    batch's :class:`~repro.physical.batch.Arrangement` on every column
    (built once per table version when the right operand is a scan);
    rows with a variable entry stay symbolic and pair with every left
    row.  The
    relevant right rows for a left row come back *in original right
    order*, so the composed membership conditions are structurally
    identical to the lifted operators'.  The whole membership condition
    is memoized per distinct left value-tuple — duplicate-valued left
    rows (common after projections) pay for it once.
    """

    __slots__ = ("right", "_rows", "_arrangement", "_memo")

    def __init__(self, right: Batch) -> None:
        self.right = right
        self._rows = right.row_tuples()
        self._arrangement = right.arrangement(tuple(range(right.arity)))
        self._memo: Dict[tuple, Formula] = {}

    def _candidates(self, values: tuple) -> Sequence[int]:
        if any(not isinstance(term, Const) for term in values):
            return range(len(self.right))
        return self._arrangement.matching(tuple(term.value for term in values))

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
        keep: List[int] = []
        conditions: List[Formula] = []
        left_columns = left.columns
        left_conditions = left.conditions
        negated = self._negated
        for i in range(len(left_conditions)):
            values = tuple(column[i] for column in left_columns)
            condition = conj(
                left_conditions[i], index.membership(values, negated)
            )
            if condition is not BOTTOM:
                keep.append(i)
                conditions.append(condition)
        if len(keep) == len(left_conditions):
            columns: Sequence[Sequence[Term]] = left.columns
        else:
            columns = [
                tuple(column[i] for i in keep) for column in left.columns
            ]
        domains, global_condition = merge_metadata(left, right)
        return _finish(
            ctx, columns, conditions, self.arity, domains, global_condition
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
