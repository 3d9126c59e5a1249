"""Lowering: optimized logical plans → physical operator trees.

``lower()`` walks a :class:`~repro.ctalgebra.plan.PlanNode` tree and
picks a physical operator per logical node, consulting the logical
plan's own cardinality/condition estimates when table statistics are
supplied:

- a :class:`~repro.ctalgebra.plan.JoinNode` whose predicate contains
  cross-operand column equalities becomes a
  :class:`~repro.physical.operators.HashJoinOp` that **indexes the
  larger estimated input when it is scan-rooted** (a scan, or a filter
  over one) — the join then probes the arrangement cached on that
  table version and never materializes the input — and **the smaller
  one otherwise**; without equijoin keys it lowers to the
  ``FilterOp``-over-``ProductOp`` pipeline (the nested-loop shape
  ``join_bar`` falls back to);
- a :class:`~repro.ctalgebra.plan.SelectNode` becomes a
  :class:`~repro.physical.operators.FilterOp` running the predicate's
  compiled kernel; directly over a scan, its ``column = constant``
  conjuncts make it probe the scan's arrangement for their key;
- the remaining operators map one-to-one.

``explain_physical`` shows both decisions (``key[…]`` on a filter,
``arranged`` on a join) and ``PlanVerifier.verify_physical`` re-checks
them.  Every choice preserves the structural-identity contract: whatever
side the lowering indexes, the materialized answer equals the
interpreted ``execute_plan`` result row-for-row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.ctalgebra.verify import PlanVerifier
    from repro.obs.trace import TraceCollector

from repro.errors import QueryError
from repro.tables.ctable import CTable
from repro.algebra.predicates import check_predicate, split_equijoin
from repro.ctalgebra.plan import (
    ConstScan,
    DifferenceNode,
    EmptyNode,
    Estimate,
    IntersectionNode,
    JoinNode,
    PlanNode,
    ProductNode,
    ProjectNode,
    Scan,
    SelectNode,
    TableStats,
    UnionNode,
    estimate,
)
from repro.physical.operators import (
    ConstScanOp,
    DifferenceOp,
    EmptyOp,
    ExecContext,
    FilterOp,
    HashJoinOp,
    IntersectOp,
    PhysicalOp,
    ProductOp,
    ProjectOp,
    ScanOp,
    UnionOp,
    scan_rooted,
)


def lower(
    plan: PlanNode,
    stats: Optional[Mapping[str, TableStats]] = None,
    _memo: Optional[Dict[PlanNode, Estimate]] = None,
    verifier: Optional["PlanVerifier"] = None,
) -> PhysicalOp:
    """Choose physical operators for *plan* (estimates-guided when given).

    With a *verifier* (``ExecutionConfig.verify_plans``) the lowered
    tree is checked for the lowering invariants — finite estimates,
    indexed sides consistent with them, filter keys consistent with
    their predicates — before it is returned.
    """
    if _memo is None:
        _memo = {}

    def found(node: PlanNode) -> Optional[Estimate]:
        if stats is None:
            return None
        return estimate(node, stats, _memo)

    def recurse(node: PlanNode) -> PhysicalOp:
        if isinstance(node, Scan):
            op: PhysicalOp = ScanOp(node.name, node.rel_arity)
        elif isinstance(node, ConstScan):
            op = ConstScanOp(node.instance)
        elif isinstance(node, EmptyNode):
            op = EmptyOp(node.empty_arity, node.sources)
        elif isinstance(node, ProjectNode):
            bad = [
                c for c in node.columns if c < 0 or c >= node.child.arity
            ]
            if bad:
                from repro.errors import ArityError

                raise ArityError(
                    f"projection columns {bad} out of range for arity "
                    f"{node.child.arity}"
                )
            op = ProjectOp(recurse(node.child), node.columns)
        elif isinstance(node, SelectNode):
            check_predicate(node.predicate, node.child.arity)
            op = FilterOp(recurse(node.child), node.predicate)
        elif isinstance(node, JoinNode):
            check_predicate(node.predicate, node.arity)
            pairs, _residual = split_equijoin(
                node.predicate, node.left.arity
            )
            left_op = recurse(node.left)
            right_op = recurse(node.right)
            if not pairs:
                # join_bar's fallback: the blind nested loop, expressed
                # as the same Filter-over-Product pipeline (conj
                # flattening makes the conditions structurally equal).
                product_op = ProductOp(left_op, right_op)
                if (
                    left_op.est_rows is not None
                    and right_op.est_rows is not None
                ):
                    # The synthetic product has no plan node of its own;
                    # give it the obvious estimate so explain can see
                    # through it.
                    product_op.est_rows = left_op.est_rows * right_op.est_rows
                op = FilterOp(product_op, node.predicate)
            else:
                build_side = "right"
                left_estimate = found(node.left)
                right_estimate = found(node.right)
                if left_estimate is not None and right_estimate is not None:
                    left_rows, right_rows = left_estimate.rows, right_estimate.rows
                    larger = "left" if left_rows > right_rows else "right"
                    if scan_rooted(left_op if larger == "left" else right_op):
                        build_side = larger
                    elif left_rows < right_rows:
                        build_side = "left"
                op = HashJoinOp(
                    left_op,
                    right_op,
                    node.predicate,
                    tuple(i for i, _ in pairs),
                    tuple(j for _, j in pairs),
                    build_side=build_side,
                )
        elif isinstance(node, ProductNode):
            op = ProductOp(recurse(node.left), recurse(node.right))
        elif isinstance(node, UnionNode):
            op = UnionOp(recurse(node.left), recurse(node.right))
        elif isinstance(node, DifferenceNode):
            op = DifferenceOp(recurse(node.left), recurse(node.right))
        elif isinstance(node, IntersectionNode):
            op = IntersectOp(recurse(node.left), recurse(node.right))
        else:
            raise QueryError(f"unknown plan node {node!r}")
        node_estimate = found(node)
        if node_estimate is not None:
            op.est_rows = node_estimate.rows
        return op

    root = recurse(plan)
    if verifier is not None:
        verifier.verify_physical(root, rule="lower")
    return root


def execute_physical(
    physical: PhysicalOp,
    tables: Mapping[str, CTable],
    simplify_conditions: bool = False,
    collector: Optional["TraceCollector"] = None,
) -> CTable:
    """Run a lowered operator tree against bound tables.

    *collector* (EXPLAIN ANALYZE / tracing) receives per-operator
    actuals; None leaves the execution path untouched.
    """
    context = ExecContext(
        tables, simplify_conditions=simplify_conditions, collector=collector
    )
    return physical.execute(context).to_ctable()


def execute_plan_vectorized(
    plan: PlanNode,
    tables: Mapping[str, CTable],
    simplify_conditions: bool = False,
    stats: Optional[Mapping[str, TableStats]] = None,
    verifier: Optional["PlanVerifier"] = None,
) -> CTable:
    """Lower *plan* and execute it — the one-shot convenience entry."""
    return execute_physical(
        lower(plan, stats, verifier=verifier),
        tables,
        simplify_conditions=simplify_conditions,
    )


def explain_physical(physical: PhysicalOp) -> str:
    """Render a physical tree: labels and cardinality estimates."""
    lines = []

    def annotate(op: PhysicalOp) -> str:
        label = op.label()
        if op.est_rows is not None:
            label += f"  rows≈{op.est_rows:.1f}"
        return label

    def render(op: PhysicalOp, prefix: str, child_prefix: str) -> None:
        lines.append(prefix + annotate(op))
        children = op.children()
        for index, child in enumerate(children):
            last = index == len(children) - 1
            connector = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            render(child, child_prefix + connector, child_prefix + extension)

    render(physical, "", "")
    return "\n".join(lines)
