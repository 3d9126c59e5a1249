"""Columnar batches: the unit of data flow in the physical runtime.

A :class:`Batch` is a c-table fragment laid out column-wise: ``arity``
tuple columns of terms plus one *condition column* of interned formula
objects (the interning layer of :mod:`repro.logic.syntax` makes the
formula object itself the id — comparing, hashing, and deduplicating
conditions are pointer operations).  Operators read the few columns they
need and process all rows of the batch in one pass, instead of
destructuring a :class:`~repro.tables.ctable.CRow` per tuple the way the
interpreted lifted operators do.

A batch also carries the representation-level metadata a c-table owns —
finite variable domains and the global condition — merged pairwise by
the binary operators exactly like
:func:`repro.ctalgebra.lifted._combine` does, so the final
:meth:`Batch.to_ctable` is structurally identical to what the
interpreted evaluation would have produced.

A table's scan batch is built once per immutable table version
(:meth:`Batch.of_table`), and so is each :class:`Arrangement` on it —
row ids bucketed by a constant key — which every later query shares
(after McSherry et al.'s *shared arrangements*, VLDB 2020).
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TableError
from repro.logic.atoms import Const, Term, Var
from repro.logic.syntax import Formula, TOP, conj
from repro.tables.ctable import CRow, CTable

#: Publishes the build-once memos (scan batches, arrangements); reads
#: are lock-free, and of two racing first builds the first one wins.
_MEMO_LOCK = threading.Lock()


def constant_key(
    key_columns: Sequence[Sequence[Term]], row: int
) -> Optional[tuple]:
    """The row's constant values in *key_columns*, or None if any is a Var."""
    key = []
    for column in key_columns:
        term = column[row]
        if not isinstance(term, Const):
            return None
        key.append(term.value)
    return tuple(key)


class Arrangement:
    """A batch's row ids bucketed by their constant key on some columns.

    ``buckets`` maps each all-constant key of *values* (so ``1``,
    ``True`` and ``1.0`` share a bucket, and a NaN object matches only
    itself, as in ``eq``) to its ascending rows; ``symbolic`` lists the
    rows with a variable in a key column, and ``keyed`` flags the rest.
    Read-only once built.
    """

    __slots__ = ("buckets", "symbolic", "keyed")

    def __init__(
        self, columns: Sequence[Sequence[Term]], keys: Sequence[int], size: int
    ) -> None:
        key_columns = [columns[index] for index in keys]
        self.buckets: Dict[tuple, List[int]] = {}
        self.symbolic: List[int] = []
        self.keyed = [True] * size
        for row in range(size):
            key = constant_key(key_columns, row)
            if key is None:
                self.symbolic.append(row)
                self.keyed[row] = False
            else:
                self.buckets.setdefault(key, []).append(row)

    def matching(self, key: tuple) -> Sequence[int]:
        """The rows that can equal *key*: its bucket merged, ascending,
        with the symbolic rows."""
        matched = self.buckets.get(key)
        if matched is None:
            return self.symbolic
        if self.symbolic:
            return sorted(matched + self.symbolic)  # two ascending runs
        return matched


class Batch:
    """A columnar c-table fragment plus the table-level metadata.

    The arity is stored explicitly rather than derived from the column
    count: an arity-0 batch (a boolean query, e.g. ``π̄_∅``) has no
    columns but still carries one empty value-tuple per condition.

    A batch is immutable after construction — columns, conditions, and
    metadata are never reassigned.  An operator's output lives for one
    execution (answers are cached as materialized c-tables); a scan
    batch (:meth:`of_table`) lives as long as its table version.  The
    lazy slots are deterministic memos: :meth:`variables` (read only
    when a finite-domain operand meets this one in
    :func:`merge_metadata`) and :meth:`arrangement`.
    """

    __slots__ = (
        "columns", "conditions", "batch_arity", "domains",
        "global_condition", "_vars", "_tuples", "_arrangements",
    )

    def __init__(
        self,
        columns: Tuple[Tuple[Term, ...], ...],
        conditions: Tuple[Formula, ...],
        arity: Optional[int] = None,
        domains: Optional[Dict[str, tuple]] = None,
        global_condition: Formula = TOP,
    ) -> None:
        if arity is None:
            if not columns:
                raise TableError("an empty batch needs an explicit arity")
            arity = len(columns)
        elif columns and arity != len(columns):
            raise TableError(
                f"declared arity {arity} does not match {len(columns)} columns"
            )
        self.columns = columns
        self.conditions = conditions
        self.batch_arity = arity
        self.domains = domains
        self.global_condition = global_condition
        self._vars: Optional[FrozenSet[str]] = None
        #: The row tuples, when the batch was built from a table's rows.
        self._tuples: Optional[Tuple[Tuple[Term, ...], ...]] = None
        self._arrangements: Dict[Tuple[int, ...], Arrangement] = {}  # guarded-by: _MEMO_LOCK [writes]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        return self.batch_arity

    def __len__(self) -> int:
        return len(self.conditions)

    def rows(self) -> Iterator[Tuple[Term, ...]]:
        """Yield the value tuples, row-wise (used at materialization)."""
        if self._tuples is not None:
            return iter(self._tuples)
        if self.columns:
            return iter(zip(*self.columns))
        # Zero-arity rows: one empty tuple per condition.
        return iter(() for _ in self.conditions)

    def row_tuples(self) -> Sequence[Tuple[Term, ...]]:
        """The value tuples, indexable (shared when built from a table)."""
        if self._tuples is not None:
            return self._tuples
        return list(self.rows())

    def arrangement(self, keys: Tuple[int, ...]) -> Arrangement:
        """The :class:`Arrangement` of this batch on *keys* (memoized)."""
        found = self._arrangements.get(keys)
        if found is None:
            built = Arrangement(self.columns, keys, len(self))
            with _MEMO_LOCK:
                found = self._arrangements.setdefault(keys, built)
        return found

    def variables(self) -> FrozenSet[str]:
        """Every variable in values, conditions, and the global (cached).

        Consulted only by the finite/infinite domain-merge check, which
        mirrors the one the lifted operators run on their materialized
        operands.
        """
        if self._vars is None:
            names = set(self.global_condition.variables())
            for condition in self.conditions:
                names |= condition.variables()
            for column in self.columns:
                for term in column:
                    if isinstance(term, Var):
                        names.add(term.name)
            self._vars = frozenset(names)
        return self._vars

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_ctable(cls, table: CTable) -> "Batch":
        """Columnar-ize *table* (one transpose; conditions stay interned)."""
        rows = table.rows
        tuples = tuple(row.values for row in rows)
        if rows:
            columns = tuple(zip(*tuples))
        else:
            columns = tuple(() for _ in range(table.arity))
        batch = cls(
            columns,
            tuple(row.condition for row in rows),
            arity=table.arity,
            domains=table.domains,
            global_condition=table.global_condition,
        )
        batch._tuples = tuples
        return batch

    @classmethod
    def of_table(cls, table: CTable) -> "Batch":
        """*table*'s scan batch, memoized on the immutable table version:
        a mutation or re-register makes a new table, so nothing is ever
        invalidated."""
        batch = table._scan_batch
        if batch is None:
            built = cls.from_ctable(table)
            with _MEMO_LOCK:
                batch = table._scan_batch
                if batch is None:
                    batch = table._scan_batch = built
        return batch

    @classmethod
    def from_rows(
        cls,
        rows: Tuple[CRow, ...],
        arity: int,
        domains: Optional[Dict[str, tuple]] = None,
        global_condition: Formula = TOP,
    ) -> "Batch":
        """Columnar-ize a bare row sequence under the given metadata.

        Used by the IVM layer (:mod:`repro.ivm.delta`) to carry the
        signed halves of a delta batch — fragments of a registered table
        rather than whole tables, so the metadata is supplied by the
        caller instead of read off a :class:`CTable`.
        """
        if rows:
            columns = tuple(zip(*(row.values for row in rows)))
        else:
            columns = tuple(() for _ in range(arity))
        return cls(
            columns,
            tuple(row.condition for row in rows),
            arity=arity,
            domains=domains,
            global_condition=global_condition,
        )

    def to_ctable(self) -> CTable:
        """Materialize the batch as a c-table.

        Rows whose condition folded to ``false`` never entered the batch,
        so the constructor's normalization pass finds nothing to drop.
        """
        rows = [
            CRow(values, condition)
            for values, condition in zip(self.rows(), self.conditions)
        ]
        return CTable(
            rows,
            arity=self.arity,
            domains=self.domains,
            global_condition=self.global_condition,
        )


def merge_metadata(left: Batch, right: Batch) -> Tuple[Optional[Dict[str, tuple]], Formula]:
    """Merged (domains, global condition) of two operand batches.

    Mirrors :func:`repro.ctalgebra.lifted._merge_domains` and the global
    conjunction of ``_combine``: shared variables must agree on their
    finite domains, and mixing a finite-domain operand with an
    infinite-domain one that actually has variables is rejected.
    """
    # Only a side facing a finite-domain operand needs its variables:
    # the full walk is skipped when both sides have infinite domains.
    if (
        left.domains is None
        and right.domains is not None
        and left.variables()
    ) or (
        right.domains is None
        and left.domains is not None
        and right.variables()
    ):
        raise TableError(
            "cannot combine an infinite-domain c-table with a finite-domain one"
        )
    if left.domains is None and right.domains is None:
        merged = None
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
