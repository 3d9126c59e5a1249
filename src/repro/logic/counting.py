"""Probability of a condition under independent distributed variables.

pc-tables (Definition 13 of the paper) attach to every variable ``x`` a
finite probability space ``dom(x)``; variables are independent.  The
probability that a condition holds is then a weighted count over the
product space.  Four evaluation strategies are provided, benchmarked
against each other in E18:

- :func:`probability_enumerate` — fold over *all* valuations (exact,
  exponential, the baseline),
- :func:`probability_shannon` — recursive Shannon expansion with
  memoization on the simplified residual formula: expand one variable at
  a time, weight each branch, and share work across branches whose
  residuals coincide (this generalizes BDD evaluation to multi-valued
  variables — in knowledge-compilation terms it builds a free decision
  diagram on the fly),
- ``strategy="wmc"`` — compile the condition once into a decision-DNNF
  circuit (:mod:`repro.logic.compile`: the same residual-keyed
  expansion, plus decomposable ANDs over variable-disjoint conjuncts
  and a first-occurrence branch order) and weighted-model-count it
  (:mod:`repro.prob.wmc`); cost scales with condition and circuit size,
  never ``2^variables``,
- :meth:`repro.logic.bdd.Bdd.probability` — for purely boolean
  conditions, compile to an OBDD first.

:func:`probability` dispatches between them, compiled-first past the
variable budget (mirroring how ``ctables_equivalent`` in
:mod:`repro.worlds.compare` dispatches symbolic-first); the rule lives
in :func:`resolve_strategy` alone.  All strategies return identical
exact :class:`fractions.Fraction` values.

Every strategy validates only the distributions of the condition's own
variables (:func:`check_condition_distributions`): those must exist and
be probability distributions, while an unmentioned variable's
distribution integrates out to a factor of 1 and is not looked at.
Whole maps are validated where they are built — a
:class:`~repro.prob.pctable.PCTable` checks all of its distributions at
construction.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ProbabilityError
from repro.logic.evaluation import evaluate, partial_evaluate
from repro.logic.syntax import BOTTOM, TOP, Formula

# A distribution maps each outcome value to its probability.
Distribution = Mapping[Hashable, Fraction]
Distributions = Mapping[str, Distribution]

#: The probability strategies :func:`probability` dispatches between.
PROB_STRATEGIES = ("auto", "enumerate", "shannon", "wmc")

#: Up to this many condition variables, ``strategy="auto"`` keeps the
#: memoized Shannon expansion (cheap, no compilation overhead); above it
#: the d-DNNF + WMC route takes over — the twin of
#: ``SYMBOLIC_VARIABLE_BUDGET`` in :mod:`repro.worlds.compare`, which
#: budgets enumeration for Mod-equivalence the same way.
PROB_VARIABLE_BUDGET = 8


def default_prob_strategy() -> str:
    """Return the process-wide strategy from ``REPRO_PROB_STRATEGY``.

    An empty or unset variable means ``"auto"``; anything else must name
    one of :data:`PROB_STRATEGIES`.
    """
    value = os.environ.get("REPRO_PROB_STRATEGY", "").strip().lower()
    if not value:
        return "auto"
    if value not in PROB_STRATEGIES:
        raise ProbabilityError(
            f"REPRO_PROB_STRATEGY={value!r} is not one of {PROB_STRATEGIES}"
        )
    return value


def check_distribution(name: str, distribution: Distribution) -> None:
    """Validate that *distribution* is a probability distribution."""
    if not distribution:
        raise ProbabilityError(f"variable {name!r} has an empty distribution")
    total = Fraction(0)
    for value, weight in distribution.items():
        weight = Fraction(weight)
        if weight < 0:
            raise ProbabilityError(
                f"negative probability {weight} for {name!r}={value!r}"
            )
        total += weight
    if total != 1:
        raise ProbabilityError(
            f"probabilities for {name!r} sum to {total}, expected 1"
        )


def check_distributions(distributions: Distributions) -> None:
    """Validate every distribution in the map."""
    for name, distribution in distributions.items():
        check_distribution(name, distribution)


def check_condition_distributions(
    formula: Formula, distributions: Distributions
) -> None:
    """Require and validate the distributions of *formula*'s variables."""
    _require_coverage(formula, distributions)
    for name in sorted(formula.variables()):
        check_distribution(name, distributions[name])


def probability_enumerate(
    formula: Formula, distributions: Distributions
) -> Fraction:
    """Exact probability by full enumeration of the product space of the
    condition's variables."""
    check_condition_distributions(formula, distributions)
    names = sorted(formula.variables())

    def recurse(position: int, valuation: Dict[str, Hashable]) -> Fraction:
        if position == len(names):
            return Fraction(1) if evaluate(formula, valuation) else Fraction(0)
        name = names[position]
        total = Fraction(0)
        for value, weight in distributions[name].items():
            valuation[name] = value
            total += Fraction(weight) * recurse(position + 1, valuation)
        del valuation[name]
        return total

    return recurse(0, {})


def probability(
    formula: Formula,
    distributions: Distributions,
    *,
    strategy: Optional[str] = None,
) -> Fraction:
    """Exact probability of *formula* under independent *distributions*.

    *strategy* picks the evaluation route (one of
    :data:`PROB_STRATEGIES`); ``None`` defers to ``REPRO_PROB_STRATEGY``
    (default ``"auto"``).  ``"auto"`` dispatches compiled-first: the
    memoized Shannon expansion within :data:`PROB_VARIABLE_BUDGET`
    condition variables, the d-DNNF + weighted-model-counting route
    beyond it.  Every strategy returns the same exact
    :class:`fractions.Fraction`.
    """
    resolved = resolve_strategy(strategy, formula)
    if resolved == "enumerate":
        return probability_enumerate(formula, distributions)
    if resolved == "wmc":
        # Imported lazily: repro.prob sits above repro.logic in the
        # package layering, and only this strategy needs it.
        from repro.prob.wmc import wmc_probability

        return wmc_probability(formula, distributions)
    return probability_shannon(formula, distributions)


def resolve_strategy(strategy: Optional[str], formula: Formula) -> str:
    """Return the concrete route (``"enumerate"``, ``"shannon"`` or
    ``"wmc"``) that *strategy* selects for *formula*.

    ``None`` defers to ``REPRO_PROB_STRATEGY``; ``"auto"`` applies the
    :data:`PROB_VARIABLE_BUDGET` rule; an unknown name raises
    :class:`ProbabilityError`.  This is the one place the budget rule
    lives: :meth:`repro.engine.Engine.condition_probability` resolves
    through it too.
    """
    if strategy is None:
        strategy = default_prob_strategy()
    strategy = strategy.lower()
    if strategy not in PROB_STRATEGIES:
        raise ProbabilityError(
            f"unknown probability strategy {strategy!r}; "
            f"expected one of {PROB_STRATEGIES}"
        )
    if strategy == "auto":
        if len(formula.variables()) <= PROB_VARIABLE_BUDGET:
            return "shannon"
        return "wmc"
    return strategy


def probability_shannon(
    formula: Formula, distributions: Distributions
) -> Fraction:
    """Exact probability by memoized Shannon expansion.

    Variables are expanded in sorted-name order restricted to the
    variables the residual formula still mentions; branches whose partial
    evaluation folds to a constant stop immediately, and residuals are
    cached so isomorphic sub-problems are solved once.
    """
    check_condition_distributions(formula, distributions)
    cache: Dict[Tuple[Formula, Tuple[str, ...]], Fraction] = {}

    def recurse(current: Formula, remaining: Tuple[str, ...]) -> Fraction:
        if current is TOP:
            return Fraction(1)
        if current is BOTTOM:
            return Fraction(0)
        live = tuple(name for name in remaining if name in current.variables())
        if not live:
            # No distributed variable remains but the formula did not fold:
            # it must be ground-decidable.
            folded = partial_evaluate(current, {})
            if folded is TOP:
                return Fraction(1)
            if folded is BOTTOM:
                return Fraction(0)
            raise ProbabilityError(
                f"formula retains free variables without distributions: "
                f"{sorted(current.variables())}"
            )
        key = (current, live)
        cached = cache.get(key)
        if cached is not None:
            return cached
        pivot, rest = live[0], live[1:]
        total = Fraction(0)
        for value, weight in distributions[pivot].items():
            weight = Fraction(weight)
            if weight == 0:
                continue
            branch = partial_evaluate(current, {pivot: value})
            total += weight * recurse(branch, rest)
        cache[key] = total
        return total

    return recurse(
        partial_evaluate(formula, {}), tuple(sorted(formula.variables()))
    )


def _require_coverage(formula: Formula, distributions: Distributions) -> None:
    missing = formula.variables() - set(distributions)
    if missing:
        raise ProbabilityError(
            f"no distributions for variables: {sorted(missing)}"
        )


def uniform(values: Sequence[Hashable]) -> Dict[Hashable, Fraction]:
    """Return the uniform distribution over *values*."""
    if not values:
        raise ProbabilityError("cannot build a uniform distribution over nothing")
    share = Fraction(1, len(values))
    return {value: share for value in values}


def bernoulli(weight: Union[int, float, str, Fraction]) -> Dict[bool, Fraction]:
    """Return a boolean distribution with P[True] = *weight*."""
    weight = Fraction(weight)
    if not 0 <= weight <= 1:
        raise ProbabilityError(f"Bernoulli weight {weight} outside [0, 1]")
    return {True: weight, False: 1 - weight}
