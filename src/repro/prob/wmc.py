"""Weighted model counting over compiled d-DNNF circuits.

This is the scalable half of the paper's probability story: Theorem 9
reads the probability of an answer tuple off its (membership) condition,
and that read is a weighted model count over the independent variable
distributions of Definition 13.  :mod:`repro.logic.compile` turns the
condition into a decision-DNNF circuit once; this module weighs every
outcome of every variable from ``dom(x)`` and evaluates the circuit in a
single pass of exact :class:`fractions.Fraction` arithmetic.

Weights
-------

A decision on variable ``x`` weighs its branch for outcome ``v`` by
``p(x=v)``; a decomposable AND multiplies its children.  There is no
literal encoding to weigh: the circuit branches on the pc-table
variables themselves.  The weights of a variable's outcomes sum to 1, so
the smoothing gap factor of a variable a branch never mentions is 1.

Zero-probability outcomes are dropped from every support before
compilation — a condition true only on measure-zero outcomes is simply
false, and dropping them keeps the decision nodes small.

The compiled artifact (:class:`CompiledCondition`) memoizes its count,
so the engine's circuit cache (:class:`repro.engine.cache.CircuitCache`)
turns a prepared probability loop into pure cache hits: compile once,
count once, then answer from memory.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Optional, Tuple

from repro.errors import ProbabilityError
from repro.logic.compile import CompiledCircuit, compile_condition
from repro.logic.counting import Distributions, check_condition_distributions
from repro.logic.syntax import Formula


def condition_supports(
    formula: Formula, distributions: Distributions
) -> Dict[str, Tuple[Hashable, ...]]:
    """Return the positive-probability supports of the condition's variables.

    Restricted to the variables *formula* mentions (unmentioned
    distributions integrate out to a factor of 1), with outcomes in a
    deterministic repr-sorted order, zero-weight outcomes removed.
    Raises :class:`ProbabilityError` when a condition variable has no
    distribution.
    """
    missing = formula.variables() - set(distributions)
    if missing:
        raise ProbabilityError(
            f"no distributions for variables: {sorted(missing)}"
        )
    supports: Dict[str, Tuple[Hashable, ...]] = {}
    for name in sorted(formula.variables()):
        distribution = distributions[name]
        supports[name] = tuple(
            sorted(
                (
                    value
                    for value, weight in distribution.items()
                    if Fraction(weight) != 0
                ),
                key=repr,
            )
        )
    return supports


class CompiledCondition:
    """A condition compiled to d-DNNF with its outcome weights attached.

    The probability is computed lazily and memoized: the engine's
    circuit cache stores these objects, so a cache hit answers a
    prepared probability query without re-compiling *or* re-counting.
    (The memoization race under concurrent readers is benign — every
    thread computes the same exact ``Fraction``.)
    """

    __slots__ = ("formula", "compiled", "_weights", "_probability")

    def __init__(
        self,
        formula: Formula,
        compiled: CompiledCircuit,
        weights: Dict[str, Dict[Hashable, Fraction]],
    ) -> None:
        self.formula = formula
        self.compiled = compiled
        self._weights = weights
        self._probability: Optional[Fraction] = None

    def circuit_size(self) -> int:
        """Return the node count of the compiled circuit."""
        return self.compiled.circuit.size()

    def probability(self) -> Fraction:
        """Return the exact probability of the condition (memoized)."""
        result = self._probability
        if result is None:
            result = self.compiled.circuit.weighted_count(self._weights)
            self._probability = result
        return result


def compile_probability(
    formula: Formula, distributions: Distributions
) -> CompiledCondition:
    """Compile *formula* under *distributions* into a weighted circuit."""
    check_condition_distributions(formula, distributions)
    supports = condition_supports(formula, distributions)
    weights = {
        name: {value: Fraction(distributions[name][value]) for value in support}
        for name, support in supports.items()
    }
    return CompiledCondition(formula, compile_condition(formula, supports), weights)


def wmc_probability(formula: Formula, distributions: Distributions) -> Fraction:
    """Exact condition probability by d-DNNF compilation + weighted counting.

    The scalable strategy behind ``probability(..., strategy="wmc")`` in
    :mod:`repro.logic.counting`: cost scales with condition size and
    circuit size, never with ``2^variables``.
    """
    return compile_probability(formula, distributions).probability()
