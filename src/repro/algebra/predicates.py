"""Selection predicates over positional columns.

A selection predicate is a boolean combination of equalities between
columns and constants, e.g. the paper's ``σ_{2=3, 4≠'2'}`` in Example 4.
Rather than invent a parallel formula language, predicates reuse the
condition ASTs from :mod:`repro.logic`: column ``i`` (0-based) is encoded
as the reserved variable ``@i``.  The payoff is that the c-table algebra
obtains symbolic selection for free — instantiating a predicate with a
tuple of terms (:func:`instantiate_predicate`) is a plain substitution
and yields a c-table condition.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence, Set, Tuple

from repro.errors import QueryError
from repro.logic.atoms import Const, Eq, Term, Var, eq, ne
from repro.logic.evaluation import evaluate, substitute
from repro.logic.syntax import (
    And,
    Bottom,
    Formula,
    Not,
    Or,
    Top,
    conj,
    is_atom,
    walk,
)

_COLUMN_PREFIX = "@"


def col(index: int) -> Var:
    """Return the term denoting column *index* (0-based)."""
    if index < 0:
        raise QueryError(f"column index must be non-negative, got {index}")
    return Var(f"{_COLUMN_PREFIX}{index}")


def is_column_var(term: Term) -> bool:
    """Return True when *term* is a column variable produced by :func:`col`."""
    return isinstance(term, Var) and term.name.startswith(_COLUMN_PREFIX)


def column_index(term: Term) -> int:
    """Return the column index encoded by a column variable."""
    if not is_column_var(term):
        raise QueryError(f"not a column variable: {term!r}")
    return int(term.name[len(_COLUMN_PREFIX):])


def col_eq(left: int, right: int) -> Formula:
    """Predicate: column *left* equals column *right*."""
    return eq(col(left), col(right))


def col_eq_const(index: int, value: Hashable) -> Formula:
    """Predicate: column *index* equals the constant *value*."""
    return eq(col(index), Const(value))


def col_ne(left: int, right: int) -> Formula:
    """Predicate: column *left* differs from column *right*."""
    return ne(col(left), col(right))


def col_ne_const(index: int, value: Hashable) -> Formula:
    """Predicate: column *index* differs from the constant *value*."""
    return ne(col(index), Const(value))


def predicate_columns(predicate: Formula) -> Set[int]:
    """Return the set of column indexes the predicate mentions."""
    columns: Set[int] = set()
    for node in walk(predicate):
        if isinstance(node, Eq):
            for term in (node.left, node.right):
                if is_column_var(term):
                    columns.add(column_index(term))
        elif is_atom(node):
            raise QueryError(
                f"selection predicates allow only equality atoms, got {node!r}"
            )
    return columns


def check_predicate(predicate: Formula, arity: int) -> None:
    """Validate that *predicate* only references columns below *arity*."""
    out_of_range = {
        index for index in predicate_columns(predicate) if index >= arity
    }
    if out_of_range:
        raise QueryError(
            f"predicate references columns {sorted(out_of_range)} but the "
            f"input arity is {arity}"
        )
    for node in walk(predicate):
        if isinstance(node, Eq):
            for term in (node.left, node.right):
                if isinstance(term, Var) and not is_column_var(term):
                    raise QueryError(
                        f"predicate contains a non-column variable {term!r}"
                    )


def predicate_is_positive(predicate: Formula) -> bool:
    """True when the predicate uses no negation (the S⁺ fragment).

    The paper's S⁺P / S⁺PJ completion results use selections built from
    equalities combined with ∧/∨ only.
    """
    return not any(
        isinstance(node, (Not, Bottom)) for node in walk(predicate)
    )


def split_equijoin(
    predicate: Formula, left_arity: int
) -> "Tuple[Tuple[Tuple[int, int], ...], Formula]":
    """Split a predicate over a product into equijoin pairs + residual.

    For a selection directly above a product whose left operand has
    *left_arity* columns, return ``(pairs, residual)`` where *pairs* are
    ``(left_column, right_column)`` index pairs (the right index local to
    the right operand) taken from the predicate's top-level conjuncts of
    the form ``column_i = column_j`` with ``i`` on the left side and
    ``j`` on the right, and *residual* is the conjunction of everything
    else.  ``conj(pairs as equalities, residual)`` is the original
    predicate, so evaluating pairs by hash partitioning and the residual
    per surviving row is equivalent to the blind nested loop.
    """
    conjuncts = (
        predicate.children if isinstance(predicate, And) else (predicate,)
    )
    pairs = []
    residual = []
    for part in conjuncts:
        if (
            isinstance(part, Eq)
            and is_column_var(part.left)
            and is_column_var(part.right)
        ):
            low, high = sorted(
                (column_index(part.left), column_index(part.right))
            )
            if low < left_arity <= high:
                pairs.append((low, high - left_arity))
                continue
        residual.append(part)
    return tuple(pairs), conj(*residual)


def constant_equalities(
    predicate: Formula,
) -> "Tuple[Tuple[int, ...], Tuple[Hashable, ...]]":
    """The predicate's top-level ``column = constant`` conjuncts.

    Returns the constrained columns, ascending, and the constant value
    each must equal.  A column equated to two constants keeps the first:
    any other row is still dropped, because that conjunct is part of the
    predicate too.  Both are empty when there is no such conjunct.
    """
    conjuncts = (
        predicate.children if isinstance(predicate, And) else (predicate,)
    )
    found: Dict[int, Hashable] = {}
    for part in conjuncts:
        if isinstance(part, Eq):
            for column, other in ((part.left, part.right), (part.right, part.left)):
                if is_column_var(column) and isinstance(other, Const):
                    found.setdefault(column_index(column), other.value)
    columns = tuple(sorted(found))
    return columns, tuple(found[index] for index in columns)


def eval_predicate(predicate: Formula, row: Sequence[Hashable]) -> bool:
    """Evaluate *predicate* on a concrete tuple."""
    valuation = {col(index).name: value for index, value in enumerate(row)}
    return evaluate(predicate, valuation)


def instantiate_predicate(
    predicate: Formula, terms: Sequence[Term]
) -> Formula:
    """Substitute the tuple's *terms* for the predicate's columns.

    When the terms are all constants the result folds to ``true`` or
    ``false``; when they contain c-table variables the result is exactly
    the condition ``c(t)`` of Theorem 4's lifted selection.
    """
    mapping = {col(index).name: term for index, term in enumerate(terms)}
    missing = {
        index
        for index in predicate_columns(predicate)
        if col(index).name not in mapping
    }
    if missing:
        raise QueryError(
            f"tuple of arity {len(terms)} cannot instantiate predicate "
            f"columns {sorted(missing)}"
        )
    return substitute(predicate, mapping)


def shift_predicate(predicate: Formula, offset: int) -> Formula:
    """Return the predicate with every column index shifted by *offset*.

    Useful when rewriting selections over products.
    """
    if isinstance(predicate, (Top, Bottom)):
        return predicate
    if isinstance(predicate, Eq):
        def shift(term: Term) -> Term:
            if is_column_var(term):
                return col(column_index(term) + offset)
            return term

        return eq(shift(predicate.left), shift(predicate.right))
    if isinstance(predicate, Not):
        from repro.logic.syntax import neg

        return neg(shift_predicate(predicate.child, offset))
    if isinstance(predicate, And):
        from repro.logic.syntax import conj

        return conj(*(shift_predicate(child, offset) for child in predicate.children))
    if isinstance(predicate, Or):
        from repro.logic.syntax import disj

        return disj(*(shift_predicate(child, offset) for child in predicate.children))
    raise QueryError(f"cannot shift predicate node {predicate!r}")
