"""Maintained materialized views: signed deltas through the lifted plan.

A :class:`MaterializedView` shadows one optimized logical plan with a
tree of *operator states* — one state per plan position, each holding
the rows that operator would output plus whatever auxiliary structure
its delta rule needs (hash buckets for joins, disjunction groups for
projections, a tuple index for difference/intersection).  A mutation of
a registered relation arrives as a :class:`~repro.ivm.delta.DeltaBatch`
and is propagated bottom-up: each state consumes its children's signed
row deltas, updates itself, and emits its own delta; subtrees no delta
reaches do no work at all.

Determinism contract (the whole point)
--------------------------------------

The maintained result is **structurally identical** to re-executing the
view's plan from scratch on the mutated tables — the same rows carrying
the *same interned condition objects*, in the same order, under the
same domains and global condition.  Order is reproduced positionally:
every state keys its rows by a tuple of integers whose ascending order
equals the row order a from-scratch run of that operator would produce:

- a scan keys rows by ``(row_id,)`` — registration-then-insert order is
  exactly how a rerun sees the relation;
- ``σ̄`` and ``−̄``/``∩̄`` preserve their child's keys (they filter or
  annotate rows in place);
- ``π̄`` keys each disjunction group by its smallest member key (first
  occurrence order) and rebuilds the group's disjunction in member-key
  order, matching ``project_bar``'s input-order grouping;
- ``×̄``/``⋈̄`` key a pair ``left ++ (g,) ++ right`` where the middle
  group bit reproduces ``join_bar``'s candidate order — for a left row
  with constant join keys, hash-bucket matches come before the symbolic
  right rows (``g=1``); every other pairing enumerates the right side
  in its own order (``g=0``);
- ``∪̄`` prefixes ``(0,)`` / ``(1,)`` so all left rows precede all
  right rows.

Conditions are reproduced by running the *identical* composition the
lifted operators run (the same ``conj``/``disj``/``neg``/``eq`` calls
in the same argument order), so hash-consing makes the results the very
same objects.  Select and join states instantiate their predicates
through the batch runtime's compiled
:class:`~repro.physical.kernels.PredicateKernel`, which returns the
object ``instantiate_predicate`` would.  With ``simplify_conditions``
on, each operator state simplifies its emitted rows exactly where
``execute_plan`` calls ``.simplified()`` — once per operator, never at
leaves.

Lemma 1 is what licenses all of this: each lifted operator commutes
with valuation application, so a signed delta pushed through ``σ̄``,
``π̄``, ``×̄``, ``⋈̄``, and ``∪̄`` composes conditions exactly as the
operator itself would.  ``−̄``/``∩̄`` are not distributive in the signed
algebra (a right-side change rewrites the *conditions* of surviving
left rows), so their states recompute affected left rows from the
maintained right-side index instead — still touching only rows a
changed tuple can reach.

Two plan shapes fall back to full re-execution (``supported`` False):
plans mixing finite-domain and infinite-domain scans (the domain-merge
rules depend on row content there), and scans of :class:`CTable`
subclasses whose metadata is derived from rows (boolean c-tables).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TableError
from repro.logic.syntax import BOTTOM, TOP, Formula, conj, disj, neg
from repro.logic.simplify import simplify
from repro.algebra.predicates import split_equijoin
from repro.tables.ctable import CRow, CTable
from repro.ctalgebra.lifted import (
    _constant_row_key,
    _join_key,
)
from repro.ctalgebra.plan import (
    ConstScan,
    DifferenceNode,
    EmptyNode,
    IntersectionNode,
    JoinNode,
    PlanNode,
    ProductNode,
    ProjectNode,
    Scan,
    SelectNode,
    UnionNode,
    const_table,
    empty_table,
    execute_plan,
)
from repro.ivm.delta import DeltaBatch
from repro.physical.kernels import PredicateKernel, tuples_equal

Key = Tuple[int, ...]

#: One registered relation as the view machinery sees it: the current
#: c-table plus the row ids aligned with its rows.
Binding = Tuple[CTable, Tuple[int, ...]]


class NodeDelta:
    """One operator's signed output change: deleted rows, then inserted."""

    __slots__ = ("deletes", "inserts")

    def __init__(self) -> None:
        self.deletes: List[Tuple[Key, CRow]] = []
        self.inserts: List[Tuple[Key, CRow]] = []

    def __bool__(self) -> bool:
        return bool(self.deletes) or bool(self.inserts)


def _merge_meta(
    left: "_State", right: "_State"
) -> Tuple[Optional[Dict[str, tuple]], Formula]:
    """Merged (domains, global) of two operand states.

    Mirrors :func:`repro.ctalgebra.lifted._merge_domains` minus the
    finite/infinite mixing check — plans where that check could fire
    are rejected wholesale by :func:`_plan_supported`, which keeps the
    merged metadata independent of row content and therefore static.
    """
    if left.domains is None and right.domains is None:
        merged: Optional[Dict[str, tuple]] = None
    else:
        merged = dict(left.domains or {})
        for name, values in (right.domains or {}).items():
            existing = merged.get(name)
            if existing is not None and tuple(existing) != tuple(values):
                raise TableError(
                    f"variable {name!r} has conflicting domains in the operands"
                )
            merged[name] = tuple(values)
    return merged, conj(left.global_condition, right.global_condition)


class _State:
    """Base operator state: the output rows, kept sorted by key."""

    __slots__ = (
        "arity", "domains", "global_condition", "simplify", "rows",
        "_order", "_ordered_rows",
    )

    def __init__(
        self,
        arity: int,
        domains: Optional[Dict[str, tuple]],
        global_condition: Formula,
        simplify_conditions: bool,
    ) -> None:
        self.arity = arity
        self.domains = domains
        self.global_condition = global_condition
        self.simplify = simplify_conditions
        self.rows: Dict[Key, CRow] = {}
        self._order: List[Key] = []
        # Row objects in the same order as ``_order``, so materializing
        # the state is one pass over a ready-made list instead of one
        # dict lookup per row.
        self._ordered_rows: List[CRow] = []

    # -- row bookkeeping ------------------------------------------------

    def _store(self, key: Key, row: CRow) -> None:
        self.rows[key] = row
        index = bisect_left(self._order, key)
        self._order.insert(index, key)
        self._ordered_rows.insert(index, row)

    def _discard(self, key: Key) -> CRow:
        row = self.rows.pop(key)
        index = bisect_left(self._order, key)
        del self._order[index]
        del self._ordered_rows[index]
        return row

    def _delete_if_present(self, key: Key, out: NodeDelta) -> None:
        if key in self.rows:
            out.deletes.append((key, self._discard(key)))

    def ordered_items(self) -> List[Tuple[Key, CRow]]:
        return list(zip(self._order, self._ordered_rows))

    def ordered_rows(self) -> List[CRow]:
        """The maintained rows in key order; callers must not mutate."""
        return self._ordered_rows

    def sorted_keys(self) -> Tuple[Key, ...]:
        return tuple(self._order)

    def children(self) -> Tuple["_State", ...]:
        return ()

    def apply(self, deltas: Sequence[NodeDelta]) -> NodeDelta:
        raise NotImplementedError

    # -- emission helper ------------------------------------------------

    def _seal(self, condition: Formula) -> Formula:
        """Post-operator condition treatment, mirroring ``.simplified()``.

        Returns ``BOTTOM`` (caller drops the row) exactly when a rerun's
        c-table constructor or simplification pass would drop it.
        """
        if self.simplify:
            return simplify(condition)
        return condition


class _ScanState(_State):
    """A relation leaf; consumes the relation's signed delta batches."""

    __slots__ = ("name",)

    def __init__(self, node: Scan, binding: Binding) -> None:
        table, row_ids = binding
        super().__init__(table.arity, table.domains, table.global_condition, False)
        self.name = node.name

    def apply_batch(self, batch: DeltaBatch) -> NodeDelta:
        out = NodeDelta()
        for row_id, _row in batch.deleted_rows():
            key = (row_id,)
            out.deletes.append((key, self._discard(key)))
        for row_id, row in batch.inserted_rows():
            key = (row_id,)
            self._store(key, row)
            out.inserts.append((key, row))
        return out


class _StaticState(_State):
    """A constant or pruned-empty leaf; never produces a delta."""

    __slots__ = ()

    def __init__(self, table: CTable) -> None:
        super().__init__(table.arity, table.domains, table.global_condition, False)
        for index, row in enumerate(table.rows):
            self._store((index,), row)

    def apply(self, deltas: Sequence[NodeDelta]) -> NodeDelta:
        return NodeDelta()


class _SelectState(_State):
    """``σ̄``: per-row predicate instantiation, keys pass through."""

    __slots__ = ("child", "kernel")

    def __init__(
        self, node: SelectNode, child: _State, simplify_conditions: bool
    ) -> None:
        global_condition = child.global_condition
        if simplify_conditions:
            global_condition = simplify(global_condition)
        super().__init__(
            node.arity, child.domains, global_condition, simplify_conditions
        )
        self.child = child
        self.kernel = PredicateKernel(node.predicate, child.arity)

    def children(self) -> Tuple[_State, ...]:
        return (self.child,)

    def apply(self, deltas: Sequence[NodeDelta]) -> NodeDelta:
        (delta,) = deltas
        out = NodeDelta()
        for key, _row in delta.deletes:
            self._delete_if_present(key, out)
        for key, row in delta.inserts:
            instantiated = self.kernel.instantiate(row.values)
            if instantiated is TOP:
                condition = row.condition
            elif instantiated is BOTTOM:
                continue
            else:
                condition = conj(row.condition, instantiated)
                if condition is BOTTOM:
                    continue
            sealed = self._seal(condition)
            if sealed is BOTTOM:
                continue
            kept = row if sealed is row.condition else CRow(row.values, sealed)
            self._store(key, kept)
            out.inserts.append((key, kept))
        return out


class _Group:
    """One ``π̄`` disjunction group: members sorted by child key."""

    __slots__ = ("member_keys", "member_conditions", "output")

    def __init__(self) -> None:
        self.member_keys: List[Key] = []
        self.member_conditions: List[Formula] = []
        self.output: Optional[Tuple[Key, CRow]] = None


class _ProjectState(_State):
    """``π̄``: disjunction groups keyed by first-occurrence member key."""

    __slots__ = ("child", "columns", "groups")

    def __init__(
        self, node: ProjectNode, child: _State, simplify_conditions: bool
    ) -> None:
        global_condition = child.global_condition
        if simplify_conditions:
            global_condition = simplify(global_condition)
        super().__init__(
            node.arity, child.domains, global_condition, simplify_conditions
        )
        self.child = child
        self.columns = node.columns
        self.groups: Dict[Tuple[object, ...], _Group] = {}

    def children(self) -> Tuple[_State, ...]:
        return (self.child,)

    def apply(self, deltas: Sequence[NodeDelta]) -> NodeDelta:
        (delta,) = deltas
        out = NodeDelta()
        touched: Dict[Tuple[object, ...], _Group] = {}
        for key, row in delta.deletes:
            projected = tuple(row.values[index] for index in self.columns)
            group = self.groups[projected]
            index = bisect_left(group.member_keys, key)
            del group.member_keys[index]
            del group.member_conditions[index]
            touched[projected] = group
        for key, row in delta.inserts:
            projected = tuple(row.values[index] for index in self.columns)
            group = self.groups.get(projected)
            if group is None:
                group = self.groups[projected] = _Group()
            index = bisect_left(group.member_keys, key)
            group.member_keys.insert(index, key)
            group.member_conditions.insert(index, row.condition)
            touched[projected] = group
        for projected, group in touched.items():
            old = group.output
            if not group.member_keys:
                del self.groups[projected]
                if old is not None:
                    self._discard(old[0])
                    out.deletes.append(old)
                    group.output = None
                continue
            key = group.member_keys[0]
            condition = self._seal(disj(*group.member_conditions))
            if condition is BOTTOM:
                new: Optional[Tuple[Key, CRow]] = None
            else:
                new = (key, CRow(projected, condition))
            if (
                old is not None
                and new is not None
                and old[0] == new[0]
                and old[1].condition is new[1].condition
            ):
                continue
            if old is not None:
                self._discard(old[0])
                out.deletes.append(old)
            if new is not None:
                self._store(new[0], new[1])
                out.inserts.append(new)
            group.output = new
        return out


class _JoinState(_State):
    """``⋈̄``/``×̄``: maintained hash build sides probed by the delta.

    The equijoin path mirrors ``join_bar``'s partitioning; with no
    cross-operand equality conjuncts (or for a plain product) every
    pairing is enumerated, mirroring ``select_bar(product_bar(..))``.
    Pair keys are ``left_key + (g,) + right_key``.
    """

    __slots__ = (
        "left", "right", "kernel", "left_columns",
        "right_columns", "equijoin", "left_buckets", "left_symbolic",
        "right_buckets", "right_symbolic", "by_left", "by_right",
    )

    def __init__(
        self,
        node: PlanNode,
        left: _State,
        right: _State,
        simplify_conditions: bool,
    ) -> None:
        domains, global_condition = _merge_meta(left, right)
        if simplify_conditions:
            global_condition = simplify(global_condition)
        super().__init__(
            left.arity + right.arity, domains, global_condition,
            simplify_conditions,
        )
        self.left = left
        self.right = right
        self.kernel: Optional[PredicateKernel] = None
        pairs: List[Tuple[int, int]] = []
        if isinstance(node, JoinNode):
            self.kernel = PredicateKernel(node.predicate, self.arity)
            pairs, _residual = split_equijoin(node.predicate, left.arity)
        self.equijoin = bool(pairs)
        self.left_columns = tuple(i for i, _ in pairs)
        self.right_columns = tuple(j for _, j in pairs)
        # Probe indexes (equijoin only): constant-keyed rows bucketed,
        # symbolic-keyed rows listed, both in ascending child-key order.
        self.left_buckets: Dict[tuple, List[Key]] = {}
        self.left_symbolic: List[Key] = []
        self.right_buckets: Dict[tuple, List[Key]] = {}
        self.right_symbolic: List[Key] = []
        # Output indexes: which pair keys involve a given child key.
        self.by_left: Dict[Key, List[Key]] = {}
        self.by_right: Dict[Key, List[Key]] = {}

    def children(self) -> Tuple[_State, ...]:
        return (self.left, self.right)

    # -- probe-index bookkeeping ---------------------------------------

    def _index_add(
        self,
        buckets: Dict[tuple, List[Key]],
        symbolic: List[Key],
        columns: Tuple[int, ...],
        key: Key,
        row: CRow,
    ) -> None:
        if not self.equijoin:
            return
        constant = _join_key(row, columns)
        if constant is None:
            insort(symbolic, key)
        else:
            bucket = buckets.get(constant)
            if bucket is None:
                buckets[constant] = [key]
            else:
                insort(bucket, key)

    def _index_remove(
        self,
        buckets: Dict[tuple, List[Key]],
        symbolic: List[Key],
        columns: Tuple[int, ...],
        key: Key,
        row: CRow,
    ) -> None:
        if not self.equijoin:
            return
        constant = _join_key(row, columns)
        if constant is None:
            del symbolic[bisect_left(symbolic, key)]
        else:
            bucket = buckets[constant]
            del bucket[bisect_left(bucket, key)]
            if not bucket:
                del buckets[constant]

    # -- pair construction ---------------------------------------------

    def _pair(
        self, lkey: Key, lrow: CRow, rkey: Key, rrow: CRow, group: int
    ) -> Optional[Tuple[Key, CRow]]:
        values = lrow.values + rrow.values
        instantiated = (
            TOP if self.kernel is None else self.kernel.instantiate(values)
        )
        if instantiated is BOTTOM:
            return None
        # conj flattening makes this join_bar's condition and, for
        # keyless pairs, select_bar(product_bar(..))'s.
        condition = conj(lrow.condition, rrow.condition, instantiated)
        if condition is BOTTOM:
            return None
        condition = self._seal(condition)
        if condition is BOTTOM:
            return None
        return lkey + (group,) + rkey, CRow(values, condition)

    def _emit_pair(
        self,
        lkey: Key,
        lrow: CRow,
        rkey: Key,
        rrow: CRow,
        group: int,
        out: NodeDelta,
    ) -> None:
        pair = self._pair(lkey, lrow, rkey, rrow, group)
        if pair is None:
            return
        key, row = pair
        self._store(key, row)
        self.by_left.setdefault(lkey, []).append(key)
        self.by_right.setdefault(rkey, []).append(key)
        out.inserts.append((key, row))

    def _drop_pairs(
        self,
        keys: List[Key],
        other_index: Dict[Key, List[Key]],
        other_offset: bool,
        out: NodeDelta,
    ) -> None:
        """Remove the listed pair keys, unindexing them from the far side."""
        llen = _key_length(self.left)
        for key in sorted(keys):
            row = self._discard(key)
            other_key = key[: llen] if other_offset else key[llen + 1:]
            siblings = other_index[other_key]
            siblings.remove(key)
            if not siblings:
                del other_index[other_key]
            out.deletes.append((key, row))

    # -- the delta rule -------------------------------------------------

    def apply(self, deltas: Sequence[NodeDelta]) -> NodeDelta:
        ldelta, rdelta = deltas
        out = NodeDelta()
        # 1. Deleted left rows take every pair they participate in.
        for lkey, lrow in ldelta.deletes:
            self._index_remove(
                self.left_buckets, self.left_symbolic,
                self.left_columns, lkey, lrow,
            )
            self._drop_pairs(
                self.by_left.pop(lkey, []), self.by_right, False, out
            )
        # 2. Deleted right rows take their remaining pairs.
        for rkey, rrow in rdelta.deletes:
            self._index_remove(
                self.right_buckets, self.right_symbolic,
                self.right_columns, rkey, rrow,
            )
            self._drop_pairs(
                self.by_right.pop(rkey, []), self.by_left, True, out
            )
        # 3. Inserted right rows probe the surviving old left side (the
        #    probe indexes have not absorbed this round's left inserts
        #    yet, so δL+ × δR+ is produced exactly once — by step 4).
        linserted = {lkey for lkey, _ in ldelta.inserts}
        for rkey, rrow in rdelta.inserts:
            self._index_add(
                self.right_buckets, self.right_symbolic,
                self.right_columns, rkey, rrow,
            )
            for lkey, lrow, group in self._left_candidates(rrow, linserted):
                self._emit_pair(lkey, lrow, rkey, rrow, group, out)
        # 4. Inserted left rows probe the fully updated right side.
        for lkey, lrow in ldelta.inserts:
            self._index_add(
                self.left_buckets, self.left_symbolic,
                self.left_columns, lkey, lrow,
            )
            for rkey, rrow, group in self._right_candidates(lrow):
                self._emit_pair(lkey, lrow, rkey, rrow, group, out)
        out.deletes.sort(key=lambda item: item[0])
        out.inserts.sort(key=lambda item: item[0])
        return out

    def _right_candidates(
        self, lrow: CRow
    ) -> List[Tuple[Key, CRow, int]]:
        """Right rows an inserted left row pairs with, mirroring
        ``join_bar``'s candidate selection and order."""
        rows = self.right.rows
        if not self.equijoin:
            return [
                (rkey, rows[rkey], 0) for rkey in self.right.sorted_keys()
            ]
        constant = _join_key(lrow, self.left_columns)
        if constant is None:
            return [
                (rkey, rows[rkey], 0) for rkey in self.right.sorted_keys()
            ]
        matched = self.right_buckets.get(constant, [])
        return [(rkey, rows[rkey], 0) for rkey in matched] + [
            (rkey, rows[rkey], 1) for rkey in self.right_symbolic
        ]

    def _left_candidates(
        self, rrow: CRow, exclude: set
    ) -> List[Tuple[Key, CRow, int]]:
        """Left rows an inserted right row pairs with (minus this
        round's left inserts, which step 4 handles)."""
        rows = self.left.rows
        if not self.equijoin:
            return [
                (lkey, rows[lkey], 0)
                for lkey in self.left.sorted_keys()
                if lkey not in exclude
            ]
        right_constant = _join_key(rrow, self.right_columns)
        if right_constant is None:
            # A symbolic right row pairs with every left row; the group
            # bit is 1 exactly for constant-keyed left rows (for which
            # the symbolic right rows sort after the bucket matches).
            symbolic = set(self.left_symbolic)
            return [
                (lkey, rows[lkey], 0 if lkey in symbolic else 1)
                for lkey in self.left.sorted_keys()
                if lkey not in exclude
            ]
        candidates = [
            (lkey, rows[lkey], 0)
            for lkey in self.left_buckets.get(right_constant, [])
        ] + [(lkey, rows[lkey], 0) for lkey in self.left_symbolic]
        return [item for item in candidates if item[0] not in exclude]


def _key_length(state: _State) -> int:
    """The (uniform) key width of a state's rows."""
    if isinstance(state, _ScanState) or isinstance(state, _StaticState):
        return 1
    if isinstance(state, _JoinState):
        return _key_length(state.left) + 1 + _key_length(state.right)
    if isinstance(state, _UnionState):
        return 1 + max(
            _key_length(state.left_child), _key_length(state.right_child)
        )
    if isinstance(state, (_SelectState, _ProjectState)):
        return _key_length(state.child)
    if isinstance(state, _SetOpState):
        return _key_length(state.left)
    raise TypeError(f"unknown state {type(state).__name__}")


class _UnionState(_State):
    """``∪̄``: left rows before right rows, keys prefixed by side."""

    __slots__ = ("left_child", "right_child", "pad")

    def __init__(
        self,
        node: UnionNode,
        left: _State,
        right: _State,
        simplify_conditions: bool,
    ) -> None:
        domains, global_condition = _merge_meta(left, right)
        if simplify_conditions:
            global_condition = simplify(global_condition)
        super().__init__(
            node.arity, domains, global_condition, simplify_conditions
        )
        self.left_child = left
        self.right_child = right
        # Child key widths may differ; pad to the wider side so the
        # side-prefixed keys stay a total order of uniform tuples.
        self.pad = max(_key_length(left), _key_length(right))

    def children(self) -> Tuple[_State, ...]:
        return (self.left_child, self.right_child)

    def _key(self, side: int, key: Key) -> Key:
        return (side,) + key + (0,) * (self.pad - len(key))

    def apply(self, deltas: Sequence[NodeDelta]) -> NodeDelta:
        out = NodeDelta()
        for side, delta in enumerate(deltas):
            for key, _row in delta.deletes:
                self._delete_if_present(self._key(side, key), out)
            for key, row in delta.inserts:
                sealed = self._seal(row.condition)
                if sealed is BOTTOM:
                    continue
                kept = row if sealed is row.condition else CRow(row.values, sealed)
                full = self._key(side, key)
                self._store(full, kept)
                out.inserts.append((full, kept))
        return out


class _SetOpState(_State):
    """``−̄``/``∩̄``: recompute affected left rows from a right index.

    The signed algebra does not close here — inserting or deleting a
    right row rewrites the negated-equality (or disjoined-equality)
    conditions of left rows — so the state maintains the same
    constant-tuple index ``_matching_right_rows`` builds and recomputes
    exactly the left rows whose candidate set changed.
    """

    __slots__ = ("left", "right", "difference", "buckets", "symbolic")

    def __init__(
        self,
        node: PlanNode,
        left: _State,
        right: _State,
        simplify_conditions: bool,
    ) -> None:
        domains, global_condition = _merge_meta(left, right)
        if simplify_conditions:
            global_condition = simplify(global_condition)
        super().__init__(
            left.arity, domains, global_condition, simplify_conditions
        )
        self.left = left
        self.right = right
        self.difference = isinstance(node, DifferenceNode)
        self.buckets: Dict[tuple, List[Key]] = {}
        self.symbolic: List[Key] = []

    def children(self) -> Tuple[_State, ...]:
        return (self.left, self.right)

    def _candidates(self, lrow: CRow) -> List[CRow]:
        """The right rows paired with *lrow*, in right-operand order —
        the same selection ``_matching_right_rows`` makes."""
        rows = self.right.rows
        constant = _constant_row_key(lrow)
        if constant is None:
            return [rows[key] for key in self.right.sorted_keys()]
        matched = self.buckets.get(constant)
        if matched is None:
            keys: Sequence[Key] = self.symbolic
        elif self.symbolic:
            keys = sorted(matched + self.symbolic)
        else:
            keys = matched
        return [rows[key] for key in keys]

    def _compose(self, lrow: CRow) -> Formula:
        # A false tuple equality contributes a true conjunct to −̄ and a
        # false disjunct to ∩̄, which conj/disj would drop anyway.
        parts = []
        for r in self._candidates(lrow):
            equal = tuples_equal(lrow.values, r.values)
            if equal is not BOTTOM:
                parts.append(conj(r.condition, equal))
        if self.difference:
            absent = conj(*(neg(part) for part in parts))
            return conj(lrow.condition, absent)
        return conj(lrow.condition, disj(*parts))

    def _refresh_left_row(self, lkey: Key, lrow: CRow, out: NodeDelta) -> None:
        condition = self._seal(self._compose(lrow))
        old = self.rows.get(lkey)
        new = None if condition is BOTTOM else CRow(lrow.values, condition)
        if old is None and new is None:
            return
        if old is not None and new is not None and old.condition is new.condition:
            return
        if old is not None:
            self._discard(lkey)
            out.deletes.append((lkey, old))
        if new is not None:
            self._store(lkey, new)
            out.inserts.append((lkey, new))

    def apply(self, deltas: Sequence[NodeDelta]) -> NodeDelta:
        ldelta, rdelta = deltas
        out = NodeDelta()
        # Update the right-side index and mark which left rows the
        # right delta can reach: a symbolic changed row reaches all of
        # them, a constant one reaches same-tuple and symbolic lefts.
        affected_all = False
        affected_tuples = set()
        for rkey, rrow in rdelta.deletes:
            constant = _constant_row_key(rrow)
            if constant is None:
                del self.symbolic[bisect_left(self.symbolic, rkey)]
                affected_all = True
            else:
                bucket = self.buckets[constant]
                del bucket[bisect_left(bucket, rkey)]
                if not bucket:
                    del self.buckets[constant]
                affected_tuples.add(constant)
        for rkey, rrow in rdelta.inserts:
            constant = _constant_row_key(rrow)
            if constant is None:
                insort(self.symbolic, rkey)
                affected_all = True
            else:
                bucket = self.buckets.get(constant)
                if bucket is None:
                    self.buckets[constant] = [rkey]
                else:
                    insort(bucket, rkey)
                affected_tuples.add(constant)
        for lkey, _lrow in ldelta.deletes:
            self._delete_if_present(lkey, out)
        linserted = {lkey for lkey, _ in ldelta.inserts}
        touch_right = affected_all or bool(affected_tuples)
        for lkey, lrow in self.left.ordered_items():
            if lkey in linserted:
                self._refresh_left_row(lkey, lrow, out)
                continue
            if not touch_right:
                continue
            if not affected_all:
                constant = _constant_row_key(lrow)
                if constant is not None and constant not in affected_tuples:
                    continue
            self._refresh_left_row(lkey, lrow, out)
        return out


class MaterializedView:
    """One standing query's maintained state tree plus pending deltas.

    The plan is frozen at construction (statistics drift never re-plans
    a standing view; a re-``register`` of a read relation marks the view
    dirty, and the session rebuilds it on a fresh plan).  ``refresh``
    applies pending delta batches one at a time — each batch is a valid
    signed delta on its own, so one-by-one and coalesced mutation
    sequences land in the identical state — and materializes the root.
    """

    __slots__ = (
        "plan", "simplify_conditions", "relations", "dirty", "supported",
        "pending", "root",
    )

    def __init__(self, plan: PlanNode, simplify_conditions: bool) -> None:
        self.plan = plan
        self.simplify_conditions = simplify_conditions
        self.relations = frozenset(
            node.name for node in plan.walk() if isinstance(node, Scan)
        ) | frozenset(
            source.name
            for node in plan.walk()
            if isinstance(node, EmptyNode)
            for source in node.sources
            if isinstance(source, Scan)
        )
        self.dirty = True
        self.supported = True
        self.pending: List[DeltaBatch] = []
        self.root: Optional[_State] = None

    # -- session-facing surface ----------------------------------------

    def invalidate(self) -> None:
        """Force a rebuild (a read relation was re-registered)."""
        self.dirty = True
        self.pending.clear()
        self.root = None

    def push(self, batch: DeltaBatch) -> None:
        """Queue a mutation's signed delta for the next refresh."""
        if self.dirty:
            return  # The rebuild reads the mutated tables directly.
        self.pending.append(batch)

    def refresh(self, bindings: Mapping[str, Binding]) -> Tuple[CTable, str]:
        """Bring the view up to date; returns ``(result, mode)``.

        *mode* is ``"build"`` (first refresh or after re-register),
        ``"delta"`` (pending batches propagated), ``"noop"`` (nothing
        pending), or ``"fallback"`` (unsupported plan shape — full
        re-execution of the frozen plan).

        Every call materializes a fresh :class:`CTable` wrapper (the
        ``CRow`` objects inside are shared with the state tree, so
        structural identity is preserved); the engine's ResultCache is
        the *only* memoization layer, keeping its LRU eviction contract
        observable.
        """
        if self.dirty:
            self.supported = self._plan_supported(bindings)
            if self.supported:
                self._build(bindings)
                self.dirty = False
                return self._materialize(), "build"
        if not self.supported:
            tables = {name: table for name, (table, _ids) in bindings.items()}
            self.dirty = False
            self.pending.clear()
            return execute_plan(
                self.plan, tables, simplify_conditions=self.simplify_conditions
            ), "fallback"
        if not self.pending:
            return self._materialize(), "noop"
        for batch in self.pending:
            self._propagate(batch)
        self.pending.clear()
        return self._materialize(), "delta"

    # -- internals ------------------------------------------------------

    def _plan_supported(self, bindings: Mapping[str, Binding]) -> bool:
        saw_finite = False
        saw_infinite = False
        for node in self.plan.walk():
            scans: Tuple[PlanNode, ...]
            if isinstance(node, Scan):
                scans = (node,)
            elif isinstance(node, EmptyNode):
                scans = tuple(
                    source for source in node.sources
                    if isinstance(source, Scan)
                )
            else:
                continue
            for scan in scans:
                table, _ids = bindings[scan.name]  # type: ignore[attr-defined]
                if type(table) is not CTable:
                    # Subclass metadata (e.g. a boolean c-table's
                    # domains) is derived from row content — not static.
                    return False
                if table.domains is None:
                    saw_infinite = True
                else:
                    saw_finite = True
        return not (saw_finite and saw_infinite)

    def _build(self, bindings: Mapping[str, Binding]) -> None:
        tables = {name: table for name, (table, _ids) in bindings.items()}
        self.root = self._make_state(self.plan, bindings, tables)
        # The initial content is fed through the very delta rules that
        # maintain it: one all-inserts batch per relation.  Operator
        # state is a pure function of the final leaf contents, so the
        # per-relation staging cannot be observed in the result.
        for name in sorted(self.relations):
            table, row_ids = bindings[name]
            batch = DeltaBatch.from_rows(
                name, table, (), tuple(zip(row_ids, table.rows))
            )
            self._propagate(batch)

    def _make_state(
        self,
        node: PlanNode,
        bindings: Mapping[str, Binding],
        tables: Mapping[str, CTable],
    ) -> _State:
        simplify_conditions = self.simplify_conditions
        if isinstance(node, Scan):
            return _ScanState(node, bindings[node.name])
        if isinstance(node, ConstScan):
            return _StaticState(const_table(node.instance))
        if isinstance(node, EmptyNode):
            return _StaticState(empty_table(node, tables))
        if isinstance(node, SelectNode):
            return _SelectState(
                node,
                self._make_state(node.child, bindings, tables),
                simplify_conditions,
            )
        if isinstance(node, ProjectNode):
            return _ProjectState(
                node,
                self._make_state(node.child, bindings, tables),
                simplify_conditions,
            )
        if isinstance(node, (JoinNode, ProductNode)):
            return _JoinState(
                node,
                self._make_state(node.left, bindings, tables),
                self._make_state(node.right, bindings, tables),
                simplify_conditions,
            )
        if isinstance(node, UnionNode):
            return _UnionState(
                node,
                self._make_state(node.left, bindings, tables),
                self._make_state(node.right, bindings, tables),
                simplify_conditions,
            )
        if isinstance(node, (DifferenceNode, IntersectionNode)):
            return _SetOpState(
                node,
                self._make_state(node.left, bindings, tables),
                self._make_state(node.right, bindings, tables),
                simplify_conditions,
            )
        raise TableError(f"cannot maintain plan node {node!r}")

    def _propagate(self, batch: DeltaBatch) -> None:
        def run(state: _State) -> NodeDelta:
            if isinstance(state, _ScanState):
                if state.name == batch.relation:
                    return state.apply_batch(batch)
                return NodeDelta()
            children = state.children()
            if not children:
                return NodeDelta()
            child_deltas = [run(child) for child in children]
            if not any(child_deltas):
                return NodeDelta()
            return state.apply(child_deltas)

        assert self.root is not None
        run(self.root)

    def _materialize(self) -> CTable:
        # State rows are prior c-table machinery output — already
        # normalized CRows of the root's arity, and never BOTTOM since
        # every state checks before ``_store`` — so the trusted
        # constructor applies without filtering.
        root = self.root
        assert root is not None
        return CTable.from_normalized_rows(
            root.ordered_rows(),
            root.arity,
            domains=root.domains,
            global_condition=root.global_condition,
        )
