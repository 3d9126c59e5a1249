"""Differential tests for the knowledge-compilation subsystem.

The contract under test: every probability route in the repository —
valuation enumeration (the Definition-13 oracle), memoized Shannon
expansion, OBDD weighted evaluation, and the compiled
decision-DNNF + weighted-model-counting route of :mod:`repro.logic.compile` /
:mod:`repro.prob.wmc` — returns the *same exact*
:class:`~fractions.Fraction` on every condition, and the symbolic
routes keep agreeing far beyond the scale enumeration can reach.

Five layers:

- ``TestDifferentialSmall`` — enumerate ≡ Shannon ≡ WMC on a seeded
  corpus of random multi-valued conditions and pc-tables (the scale
  where the exponential oracle still runs);
- ``TestModelCounts`` — on pure-boolean conditions, the d-DNNF's
  unweighted ``model_count()`` equals :meth:`repro.logic.bdd.Bdd.count_models`
  over the full variable order, and the BDD probability route agrees
  with WMC on boolean pc-tables;
- ``TestWideDifferential`` — Shannon ≡ WMC on 30+-variable conditions
  (product spaces past ``2^30``: no enumeration cross-check exists, the
  two symbolic counters keep each other honest);
- ``TestMultiValuedSemantics`` / ``TestCircuitInvariants`` — the
  multi-valued reading (``Var = Var``, outcome partitions, zero-weight
  outcomes) and the structural contract of the circuit itself: AND
  children have disjoint scopes, decision children carry distinct
  positive-support outcomes of a pivot none of them mentions, and the
  first-occurrence branch order keeps ring circuits linear whatever the
  variable names;
- ``TestStrategyDispatch`` / ``TestEngineCircuitCache`` — the
  ``strategy=`` plumbing, the ``REPRO_PROB_STRATEGY`` override, and the
  engine's compiled-circuit cache (hits, invalidation on re-register).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from harness import (
    DEFAULT_PROBABILITY,
    WIDE_PROBABILITY,
    random_distributions,
    random_pctable,
    random_prob_condition,
    random_wide_condition,
)
from repro.engine import Engine, ExecutionConfig
from repro.errors import ProbabilityError
from repro.logic.atoms import Var, boolvar, eq, ne
from repro.logic.bdd import Bdd
from repro.logic.compile import (
    DAnd,
    DDecision,
    children_of,
    compile_condition,
    compile_formula,
)
from repro.logic.counting import (
    PROB_STRATEGIES,
    PROB_VARIABLE_BUDGET,
    default_prob_strategy,
    probability,
    probability_enumerate,
    probability_shannon,
)
from repro.logic.evaluation import evaluate
from repro.logic.syntax import BOTTOM, TOP, conj, disj, neg
from repro.prob import (
    BooleanPCTable,
    PCTable,
    compile_probability,
    tuple_probability_bdd,
    tuple_probability_lineage,
    tuple_probability_naive,
    tuple_probability_wmc,
    wmc_probability,
)
from repro.prob.wmc import condition_supports
from repro.algebra import col_eq_const, rel, sel

X = Var("x")
Y = Var("y")


def random_boolean_formula(rng: random.Random, names, depth: int = 3):
    """A random propositional formula over BoolVar atoms."""
    if depth == 0 or rng.random() < 0.3:
        atom = boolvar(rng.choice(names))
        return neg(atom) if rng.random() < 0.3 else atom
    roll = rng.random()
    if roll < 0.4:
        return conj(
            random_boolean_formula(rng, names, depth - 1),
            random_boolean_formula(rng, names, depth - 1),
        )
    if roll < 0.8:
        return disj(
            random_boolean_formula(rng, names, depth - 1),
            random_boolean_formula(rng, names, depth - 1),
        )
    return neg(random_boolean_formula(rng, names, depth - 1))


class TestDifferentialSmall:
    """enumerate ≡ Shannon ≡ WMC where the exponential oracle still runs."""

    def test_random_conditions_all_strategies_agree(self):
        rng = random.Random(20260808)
        for trial in range(80):
            distributions = random_distributions(rng)
            condition = random_prob_condition(rng, distributions, depth=3)
            enumerated = probability_enumerate(condition, distributions)
            shannon = probability_shannon(condition, distributions)
            wmc = wmc_probability(condition, distributions)
            assert enumerated == shannon == wmc, (
                f"trial={trial} condition={condition!r}: "
                f"enumerate={enumerated} shannon={shannon} wmc={wmc}"
            )

    def test_random_pctables_all_strategies_agree(self):
        rng = random.Random(97)
        for trial in range(25):
            pctable = random_pctable(rng)
            probes = [(0, 0), (1, 2), (rng.randrange(3), rng.randrange(3))]
            for row in probes:
                routes = {
                    strategy: pctable.tuple_probability(row, strategy=strategy)
                    for strategy in ("enumerate", "shannon", "wmc", "auto")
                }
                assert len(set(routes.values())) == 1, (
                    f"trial={trial} row={row}: {routes}"
                )

    def test_query_routes_agree_on_boolean_pctable(self):
        """naive (world image) ≡ lineage ≡ BDD ≡ WMC through a query."""
        rng = random.Random(11)
        query = sel(rel("V", 2), col_eq_const(0, 1))
        for trial in range(10):
            names = ("b0", "b1", "b2")
            rows = []
            for value in ((1, 2), (1, 3), (2, 2)):
                rows.append(
                    (value, random_boolean_formula(rng, names, depth=2))
                )
            weights = {
                name: Fraction(rng.randint(1, 4), 5) for name in names
            }
            pctable = BooleanPCTable(
                rows,
                {
                    name: {True: weight, False: 1 - weight}
                    for name, weight in weights.items()
                },
                arity=2,
            )
            for row in ((1, 2), (1, 3), (2, 2)):
                naive = tuple_probability_naive(query, pctable, row)
                lineage = tuple_probability_lineage(query, pctable, row)
                bdd = tuple_probability_bdd(query, pctable, row)
                wmc = tuple_probability_wmc(query, pctable, row)
                assert naive == lineage == bdd == wmc, (
                    f"trial={trial} row={row}: "
                    f"naive={naive} lineage={lineage} bdd={bdd} wmc={wmc}"
                )


class TestModelCounts:
    """d-DNNF counting against the OBDD package, unweighted and weighted."""

    def test_ddnnf_model_counts_match_bdd(self):
        rng = random.Random(4242)
        names = ["a", "b", "c", "d", "e"]
        for trial in range(60):
            formula = random_boolean_formula(rng, names, depth=4)
            compiled = compile_formula(formula)
            manager = Bdd(names)
            node = manager.from_formula(formula)
            # compile_formula allocates CNF variables only for the atoms
            # that occur; pad the BDD count down to that variable set.
            occurring = len(formula.variables())
            bdd_count = manager.count_models(node) // (
                2 ** (len(names) - occurring)
            )
            assert compiled.circuit.model_count() == bdd_count, (
                f"trial={trial} formula={formula!r}"
            )

    def test_constants(self):
        assert compile_formula(TOP).circuit.model_count() == 1
        assert compile_formula(BOTTOM).circuit.model_count() == 0
        assert wmc_probability(TOP, {}) == 1
        assert wmc_probability(BOTTOM, {}) == 0


class TestWideDifferential:
    """Shannon ≡ WMC past any enumerable scale (30+ variables)."""

    @pytest.mark.parametrize("width", [30, 32])
    def test_wide_ring_conditions(self, width):
        # One pinned seed per width: memoized Shannon expansion is the
        # cross-check here and its cost is instance-dependent (seconds
        # to tens of seconds); seed 103 keeps both instances under ~3s
        # while WMC takes ~30ms cold on either (2-core host, CPython
        # 3.11.7).
        rng = random.Random(103)
        distributions = random_distributions(rng, WIDE_PROBABILITY)
        condition = random_wide_condition(rng, distributions, width)
        assert len(condition.variables()) == width
        shannon = probability_shannon(condition, distributions)
        wmc = wmc_probability(condition, distributions)
        assert shannon == wmc, f"width={width}"

    def test_sixty_boolean_variables(self):
        """2^60 ≈ 1.15e18 worlds: the ISSUE's headline scale, exactly."""
        flags = [boolvar(f"p{index:03d}") for index in range(60)]
        ring = disj(
            *(
                conj(flags[index], flags[(index + 1) % 60])
                for index in range(60)
            )
        )
        distributions = {
            f"p{index:03d}": {True: Fraction(1, 3), False: Fraction(2, 3)}
            for index in range(60)
        }
        compiled = compile_probability(ring, distributions)
        answer = compiled.probability()
        assert 0 < answer < 1
        assert answer.denominator == 3**60
        # The unweighted count of the same circuit must match the known
        # closed form for "some adjacent pair both true" on a 60-cycle:
        # 2^n minus the number of independent sets of the cycle C_n,
        # which is the Lucas number L(60).
        lucas = [2, 1]
        while len(lucas) <= 60:
            lucas.append(lucas[-1] + lucas[-2])
        count = compile_formula(ring).circuit.model_count()
        assert count == 2**60 - lucas[60]


class TestMultiValuedSemantics:
    """The multi-valued reading of conditions on the compiled route."""

    def test_variable_variable_equality(self):
        distributions = {
            "x": {1: Fraction(1, 2), 2: Fraction(1, 2)},
            "y": {2: Fraction(1, 3), 3: Fraction(2, 3)},
        }
        # Supports intersect only at 2: P[x=2] * P[y=2].
        assert wmc_probability(eq(X, Y), distributions) == Fraction(1, 6)

    def test_uniform_three_valued(self):
        distributions = {"x": {value: Fraction(1, 3) for value in (1, 2, 3)}}
        assert wmc_probability(eq(X, 2), distributions) == Fraction(1, 3)
        assert wmc_probability(ne(X, 2), distributions) == Fraction(2, 3)

    def test_exactly_one_constraint_enforced(self):
        """One-hot indicators cannot double-fire: P[x=1 ∧ x=2] = 0 and
        the three indicator events partition the space."""
        distributions = {
            "x": {1: Fraction(1, 6), 2: Fraction(2, 6), 3: Fraction(3, 6)}
        }
        assert wmc_probability(
            conj(eq(X, 1), eq(X, 2)), distributions
        ) == 0
        assert wmc_probability(
            disj(eq(X, 1), eq(X, 2), eq(X, 3)), distributions
        ) == 1

    def test_zero_weight_outcomes_are_dropped(self):
        distributions = {
            "x": {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(0)}
        }
        assert wmc_probability(eq(X, 3), distributions) == 0
        assert wmc_probability(ne(X, 3), distributions) == 1

    def test_missing_distribution_raises(self):
        with pytest.raises(ProbabilityError):
            wmc_probability(eq(X, 1), {})

    def test_compile_condition_circuit_is_inspectable(self):
        supports = {"x": (1, 2, 3)}
        compiled = compile_condition(eq(X, 1), supports)
        assert compiled.circuit.size() > 0
        assert compiled.supports["x"] == (1, 2, 3)


#: Distributions exercising every corner the compiled route must read
#: exactly as the Shannon oracle does: ``a`` is non-boolean but used as a
#: BoolVar (0 and "" are falsy), ``s`` has a singleton support, ``z``
#: carries a zero-weight outcome, and ``x``/``y``/``w`` share outcomes so
#: ``Var = Var`` atoms are satisfiable.
INVARIANT_DISTRIBUTIONS = {
    "a": {0: Fraction(1, 4), 2: Fraction(1, 4), "": Fraction(1, 4), "b": Fraction(1, 4)},
    "s": {7: Fraction(1)},
    "z": {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(0)},
    "x": {1: Fraction(1, 5), 2: Fraction(3, 5), 3: Fraction(1, 5)},
    "y": {2: Fraction(1, 3), 3: Fraction(2, 3)},
    "w": {1: Fraction(1, 2), 3: Fraction(1, 2)},
}


def random_invariant_condition(rng: random.Random, names, depth: int = 3):
    """A random multi-valued condition over *names*, all atom kinds mixed."""
    if depth == 0 or rng.random() < 0.25:
        name = rng.choice(names)
        roll = rng.random()
        if roll < 0.2:
            atom = boolvar(name)
        elif roll < 0.4:
            atom = eq(Var(name), Var(rng.choice(names)))
        else:
            atom = eq(Var(name), rng.choice(sorted(INVARIANT_DISTRIBUTIONS[name], key=repr)))
        return neg(atom) if rng.random() < 0.3 else atom
    roll = rng.random()
    if roll < 0.3:
        # Variable-disjoint halves: the decomposable-AND rule's input.
        cut = rng.randint(1, len(names) - 1) if len(names) > 1 else 1
        shuffled = rng.sample(names, len(names))
        left, right = shuffled[:cut], shuffled[cut:] or shuffled[:cut]
        return conj(
            random_invariant_condition(rng, left, depth - 1),
            random_invariant_condition(rng, right, depth - 1),
        )
    children = [
        random_invariant_condition(rng, names, depth - 1)
        for _ in range(rng.randint(2, 3))
    ]
    if roll < 0.55:
        return conj(*children)
    if roll < 0.85:
        return disj(*children)
    return neg(conj(*children))


def brute_force_model_count(condition, supports) -> int:
    """Valuations drawn from *supports* that satisfy *condition*."""
    names = sorted(supports)
    count = 0
    for values in itertools.product(*(supports[name] for name in names)):
        count += evaluate(condition, dict(zip(names, values)))
    return count


def ring(names):
    """The "some adjacent pair both true" ring over boolean *names*."""
    flags = [boolvar(name) for name in names]
    size = len(flags)
    return disj(
        *(conj(flags[index], flags[(index + 1) % size]) for index in range(size))
    )


class TestCircuitInvariants:
    """Structural d-DNNF contract and branch-order regression."""

    def test_seeded_conditions_keep_every_invariant(self):
        rng = random.Random(20261017)
        names = sorted(INVARIANT_DISTRIBUTIONS)
        kinds = set()
        for trial in range(150):
            condition = random_invariant_condition(rng, names)
            compiled = compile_probability(condition, INVARIANT_DISTRIBUTIONS)
            supports = condition_supports(condition, INVARIANT_DISTRIBUTIONS)
            wmc = compiled.probability()
            shannon = probability_shannon(condition, INVARIANT_DISTRIBUTIONS)
            enumerated = probability_enumerate(condition, INVARIANT_DISTRIBUTIONS)
            assert wmc == shannon == enumerated, f"trial={trial} {condition!r}"
            circuit = compiled.compiled.circuit
            assert circuit.model_count() == brute_force_model_count(
                condition, supports
            ), f"trial={trial} {condition!r}"
            for node in circuit.nodes():
                kinds.add(type(node))
                if isinstance(node, DAnd):
                    seen = set()
                    for child in node.children:
                        assert seen.isdisjoint(child.scope), f"trial={trial}"
                        seen |= child.scope
                    assert seen <= node.scope
                elif isinstance(node, DDecision):
                    outcomes = [value for value, _child in node.branches]
                    assert len(set(outcomes)) == len(outcomes)
                    assert set(outcomes) <= set(supports[node.variable])
                    assert all(
                        INVARIANT_DISTRIBUTIONS[node.variable][value] > 0
                        for value in outcomes
                    )
                    for child in children_of(node):
                        assert node.variable not in child.scope
                        assert child.scope <= node.scope
        assert {DAnd, DDecision} <= kinds

    def test_ring_size_ignores_variable_names(self):
        """Branching follows first occurrence, not names: shuffled names
        give the same linear circuit as aligned ones (a count, not a
        timing)."""
        size = 60
        aligned = [f"p{index:03d}" for index in range(size)]
        shuffled = list(aligned)
        random.Random(7).shuffle(shuffled)
        sizes = [
            compile_formula(ring(order)).circuit.size()
            for order in (aligned, shuffled)
        ]
        assert sizes[0] == sizes[1] <= 4 * size


class TestStrategyDispatch:
    """The ``strategy=`` plumbing and its environment override."""

    DIST = {"x": {1: Fraction(1, 4), 2: Fraction(3, 4)}}

    def test_every_strategy_accepted_and_equal(self):
        answers = {
            strategy: probability(eq(X, 1), self.DIST, strategy=strategy)
            for strategy in PROB_STRATEGIES
        }
        assert set(answers.values()) == {Fraction(1, 4)}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ProbabilityError, match="unknown probability"):
            probability(eq(X, 1), self.DIST, strategy="montecarlo")

    def test_auto_picks_shannon_within_budget(self):
        condition = eq(X, 1)
        assert len(condition.variables()) <= PROB_VARIABLE_BUDGET
        assert probability(condition, self.DIST) == Fraction(1, 4)

    def test_env_override_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROB_STRATEGY", "wmc")
        assert default_prob_strategy() == "wmc"
        assert probability(eq(X, 1), self.DIST) == Fraction(1, 4)
        monkeypatch.setenv("REPRO_PROB_STRATEGY", "")
        assert default_prob_strategy() == "auto"

    def test_env_override_validates(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROB_STRATEGY", "guess")
        with pytest.raises(ProbabilityError):
            probability(eq(X, 1), self.DIST)

    def test_config_knob_validates(self):
        with pytest.raises(ValueError, match="prob_strategy"):
            ExecutionConfig(prob_strategy="guess")
        assert ExecutionConfig(prob_strategy="wmc").prob_strategy == "wmc"


@pytest.fixture
def prob_session():
    engine = Engine(prob_strategy="wmc")
    pctable = PCTable(
        [((1, X), TOP), ((2, Y), eq(Y, 20))],
        {
            "x": {10: Fraction(1, 2), 11: Fraction(1, 2)},
            "y": {20: Fraction(1, 4), 21: Fraction(3, 4)},
        },
        arity=2,
    )
    return engine, engine.session(V=pctable), pctable


class TestEngineCircuitCache:
    """Compiled circuits are cached per engine and evicted on register."""

    QUERY = sel(rel("V", 2), col_eq_const(0, 2))

    def test_repeated_probability_hits_the_cache(self, prob_session):
        engine, session, _ = prob_session
        prepared = session.prepare(self.QUERY)
        before = engine.circuit_cache_stats()
        first = prepared.dataset().probability((2, 20))
        assert first == Fraction(1, 4)
        after_first = engine.circuit_cache_stats()
        assert after_first["misses"] == before["misses"] + 1
        for _ in range(5):
            assert prepared.dataset().probability((2, 20)) == first
        after = engine.circuit_cache_stats()
        assert after["hits"] >= before["hits"] + 5
        assert after["misses"] == after_first["misses"]

    def test_register_invalidates_circuits(self, prob_session):
        engine, session, pctable = prob_session
        prepared = session.prepare(self.QUERY)
        prepared.dataset().probability((2, 20))
        assert engine.circuit_cache_stats()["entries"] == 1
        session.register("V", pctable)
        assert engine.circuit_cache_stats()["entries"] == 0
        assert engine.circuit_cache_stats()["invalidations"] >= 1

    def test_strategy_override_agrees_with_cacheless_routes(
        self, prob_session
    ):
        _, session, _ = prob_session
        dataset = session.prepare(self.QUERY).dataset()
        answers = {
            strategy: dataset.probability((2, 20), strategy=strategy)
            for strategy in ("enumerate", "shannon", "wmc", "auto")
        }
        assert set(answers.values()) == {Fraction(1, 4)}

    def test_disabled_cache_still_correct(self):
        engine = Engine(prob_strategy="wmc", circuit_cache_size=0)
        pctable = PCTable(
            [((2, Y), eq(Y, 20))],
            {"y": {20: Fraction(1, 4), 21: Fraction(3, 4)}},
            arity=2,
        )
        session = engine.session(V=pctable)
        dataset = session.prepare(self.QUERY).dataset()
        assert dataset.probability((2, 20)) == Fraction(1, 4)
        assert engine.circuit_cache_stats()["entries"] == 0

    def test_condition_probability_direct(self):
        engine = Engine()
        distributions = {"x": {1: Fraction(1, 2), 2: Fraction(1, 2)}}
        answer = engine.condition_probability(
            eq(X, 1), distributions, strategy="wmc"
        )
        assert answer == Fraction(1, 2)
        with pytest.raises(ProbabilityError):
            engine.condition_probability(
                eq(X, 1), distributions, strategy="nope"
            )


class TestHarnessProfile:
    """The probability profile itself stays sound (sums, supports)."""

    def test_distributions_are_exact_and_normalized(self):
        rng = random.Random(5)
        for profile in (DEFAULT_PROBABILITY, WIDE_PROBABILITY):
            distributions = random_distributions(rng, profile)
            assert set(distributions) == set(profile.variables)
            for dist in distributions.values():
                assert sum(dist.values()) == 1
                assert all(
                    isinstance(weight, Fraction) for weight in dist.values()
                )
                # No bool outcomes: 1 == True would collide as dict keys.
                assert not any(
                    isinstance(value, bool) for value in dist
                )

    def test_conditions_stay_inside_the_pool(self):
        rng = random.Random(6)
        distributions = random_distributions(rng)
        for _ in range(20):
            condition = random_prob_condition(rng, distributions)
            assert condition.variables() <= set(distributions)
