"""The compiled predicate-instantiation kernel shared by batch and IVM.

Theorem 4's lifted selection conjoins ``c(t)``, the predicate with the
tuple's terms substituted for its columns, to each tuple's condition.
On constant tuples ``c(t)`` folds to ``true`` or ``false``, so no
formula needs to be built.  :class:`PredicateKernel` compiles a
predicate once into its top-level conjuncts and evaluates them in order:

- an (in)equality between two constants folds by :func:`constants_equal`
  (``eq``'s own rule) without building an atom;
- the first ``false`` conjunct returns ``false`` at once;
- when no conjunct is left the kernel returns ``true`` without ``conj``;
- any other conjunct (``Or``, nested ``Not``) is evaluated by the same
  rules, short-circuiting each connective on its absorbing element.

Surviving atoms go through the same smart constructors, in the same
order, as in ``substitute``; ``conj`` flattens, drops ``true`` and
deduplicates the same flat sequence, so the result is the very interned
object :func:`~repro.algebra.predicates.instantiate_predicate` returns
(``tests/test_kernels.py``).  The interpreted lifted operators keep
calling ``instantiate_predicate``: the oracle stays independent.
:func:`tuples_equal` applies the same constant folding to the
tuple-equality conditions of ``−̄`` and ``∩̄``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.algebra.predicates import column_index, is_column_var, predicate_columns
from repro.logic.atoms import Const, Eq, Term, eq
from repro.logic.syntax import BOTTOM, TOP, And, Formula, Not, Or, conj, disj, neg

#: A compiled sub-formula: ``(kind, body)``.  An atom's body is
#: ``(negated, left column, left term, right column, right term)``, a
#: column of -1 meaning the side is the fixed term; ``and``/``or`` hold
#: their compiled children, ``not`` its child, ``const`` the formula.
_Node = Tuple[int, Any]
#: A top-level conjunct: an atom's body plus None, or a placeholder
#: atom plus the conjunct's compiled node.
_Step = Tuple[bool, int, Optional[Term], int, Optional[Term], Optional[_Node]]
_ATOM, _AND, _OR, _NOT, _CONST = range(5)


def constants_equal(left: Const, right: Const) -> bool:
    """``eq``'s rule for two constants: identity, then ``==``.

    So ``1``, ``True`` and ``1.0`` are equal, and a NaN object equals
    itself but no other NaN.
    """
    left_value = left.value
    right_value = right.value
    return left_value is right_value or bool(left_value == right_value)


def tuples_equal(left: Sequence[Term], right: Sequence[Term]) -> Formula:
    """``t₁ = t₂``, column by column, as ``conj`` over ``eq`` builds it.

    Two unequal constants in one column fold the whole equality to
    ``false`` before any atom is built; equal constants are skipped.
    This is the pairing condition of ``−̄``/``∩̄`` in both the batch
    runtime and the IVM set-operation state.
    """
    atoms: List[Formula] = []
    for left_term, right_term in zip(left, right):
        if left_term.__class__ is Const and right_term.__class__ is Const:
            if not constants_equal(left_term, right_term):  # type: ignore[arg-type]
                return BOTTOM
            continue
        atoms.append(eq(left_term, right_term))
    return conj(*atoms)


def _side(term: Term) -> Tuple[int, Optional[Term]]:
    return (column_index(term), None) if is_column_var(term) else (-1, term)


def _compile(part: Formula) -> _Node:
    negated = isinstance(part, Not) and isinstance(part.child, Eq)
    atom = part.child if negated else part  # type: ignore[attr-defined]
    if isinstance(atom, Eq):
        return (_ATOM, (negated, *_side(atom.left), *_side(atom.right)))
    if isinstance(part, (And, Or)):
        kind = _AND if isinstance(part, And) else _OR
        return (kind, tuple(_compile(child) for child in part.children))
    if isinstance(part, Not):
        return (_NOT, _compile(part.child))
    return (_CONST, part)  # true or false: predicate_columns vetted atoms


def _evaluate(node: _Node, values: Sequence[Term]) -> Formula:
    """``substitute`` over a compiled sub-formula, folding constants.

    Each connective short-circuits on its absorbing element and skips
    its neutral one, then calls the same smart constructor on the same
    surviving children that ``substitute`` does.
    """
    kind, body = node
    if kind == _ATOM:
        negated, li, left, ri, right = body
        if li >= 0:
            left = values[li]
        if ri >= 0:
            right = values[ri]
        if left.__class__ is Const and right.__class__ is Const:
            return BOTTOM if constants_equal(left, right) is negated else TOP
        formula = eq(left, right)
        return neg(formula) if negated else formula
    if kind == _NOT:
        return neg(_evaluate(body, values))
    if kind == _CONST:
        return body  # type: ignore[no-any-return]
    absorbing, neutral, build = (
        (BOTTOM, TOP, conj) if kind == _AND else (TOP, BOTTOM, disj)
    )
    parts: List[Formula] = []
    for child in body:
        formula = _evaluate(child, values)
        if formula is absorbing:
            return absorbing
        if formula is not neutral:
            parts.append(formula)
    return build(*parts) if parts else neutral


class PredicateKernel:
    """A selection or join predicate compiled for repeated instantiation.

    Construction rejects a column at or beyond *arity*, and any
    non-equality atom, with :class:`QueryError`.  The kernel is
    immutable, so a cached lowered tree may run it from any thread.
    """

    __slots__ = ("_steps",)

    def __init__(self, predicate: Formula, arity: int) -> None:
        out_of_range = sorted(
            index for index in predicate_columns(predicate) if index >= arity
        )
        if out_of_range:
            raise QueryError(
                f"predicate references columns {out_of_range} but the "
                f"input arity is {arity}"
            )
        parts = (
            predicate.children if isinstance(predicate, And) else (predicate,)
        )
        # Top-level atoms are unpacked for the inlined hot path; other
        # conjuncts keep their compiled node for _evaluate.
        self._steps: Tuple[_Step, ...] = tuple(
            (*node[1], None) if node[0] == _ATOM
            else (False, -1, None, -1, None, node)
            for node in map(_compile, parts)
        )

    def instantiate(self, values: Sequence[Term]) -> Formula:
        """``c(values)`` for one value tuple.

        Batch operators pass the rows of a batch transposed once
        (:meth:`~repro.physical.batch.Batch.rows`), pair operators the
        concatenation of two rows, IVM states their rows' values.
        """
        parts: List[Formula] = []
        for negated, li, left, ri, right, node in self._steps:
            if node is None:
                # _evaluate's atom case, inlined: this is the hot path.
                if li >= 0:
                    left = values[li]
                if ri >= 0:
                    right = values[ri]
                if left.__class__ is Const and right.__class__ is Const:
                    lv = left.value  # type: ignore[union-attr]
                    rv = right.value  # type: ignore[union-attr]
                    if lv is rv or lv == rv:
                        if negated:
                            return BOTTOM
                    elif not negated:
                        return BOTTOM
                    continue
                formula = eq(left, right)
                if negated:
                    formula = neg(formula)
            else:
                formula = _evaluate(node, values)
            if formula is BOTTOM:
                return BOTTOM
            if formula is not TOP:
                parts.append(formula)
        if not parts:
            return TOP
        if len(parts) == 1:
            return parts[0]  # conj of one interned formula is itself
        return conj(*parts)
