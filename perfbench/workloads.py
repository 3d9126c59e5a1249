"""The benchmark's workloads: input generation, set-up, ops and oracles.

Every workload is a closed loop with one client.  An *op* is one
user-visible request, timed from the call until its answer returns.
Inputs derive only from ``(seed, op index)`` and the state the earlier
ops left behind, so a traced replay of the same seed sends exactly the
same requests.  Why each workload exists is in ``NOTES.md``.

A workload provides:

- ``generate(seed)`` — the input tables (not timed);
- ``setup(engine, data)`` — everything from engine construction to the
  first op being ready (timed as ``setup_s``);
- ``ops_per_second`` — the op rate on the reference host (a 2-core
  x86-64 virtual machine, CPython 3.11.7); a run of ``--seconds`` does
  ``seconds * ops_per_second`` ops, the same work on every commit;
- ``next_op(state, index)`` — the op's input, or ``None`` when the
  workload has no fresh input left (not timed);
- ``run_op(state, op)`` — the op itself (timed);
- ``record(state, answer)`` — the answer's fingerprint, which a traced
  replay must reproduce, and what the oracle needs of it (not timed),
  taken on every ``oracle_stride``-th op and on the last one;
- ``verify(data, ops, records)`` — the oracle, run after the timed loop
  on fresh engines, so it neither perturbs the ops nor their caches and
  peak memory; returns the indices of wrong answers and messages;
- ``cache_errors(engine, ops)`` — the cache state the workload declares;
- ``expected_calls`` — entry points (see ``layers.ENTRY_POINTS``) the
  workload must exercise.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import (
    CTable,
    Engine,
    ExecutionConfig,
    Instance,
    OrSet,
    OrSetRow,
    OrSetTable,
    PCTable,
    QRow,
    QTable,
    TOP,
    Var,
    conj,
    ctables_equivalent,
    eq,
    ne,
)
from repro.algebra import col_eq, col_eq_const, col_ne_const, diff, proj, prod, rel, sel
from repro.logic.atoms import boolvar
from repro.logic.counting import probability_enumerate, probability_shannon
from repro.prob.wmc import compile_probability
from repro.worlds.symbolic_answers import membership_condition

#: Lineages with at most this many variables are also checked against
#: possible-world enumeration.
ENUMERATION_ORACLE_VARIABLES = 12


def config_for(maintenance: str) -> ExecutionConfig:
    """The measured configuration, every field explicit.

    ``ExecutionConfig`` reads several defaults from ``REPRO_*``
    environment variables; spelling out each field keeps a CI-lane
    setting from changing what is measured.
    """
    return ExecutionConfig(
        optimize=True,
        simplify_conditions=False,
        executor="vectorized",
        num_workers=1,
        morsel_size=256,
        plan_cache_size=128,
        result_cache_size=64,
        max_candidates=100_000,
        verify_plans=False,
        verify_mode="syntactic",
        prob_strategy="auto",
        circuit_cache_size=256,
        trace=False,
        maintenance=maintenance,
    )


def digest(answer: Any) -> str:
    """A process-independent fingerprint of an op's answer.

    Equal digests mean structurally identical answers: the same rows in
    the same order with the same conditions (interning makes equal
    conditions one object).  Built from ``repr`` because formula hashes
    mix in class identities, which differ between processes; sets are
    sorted first.
    """
    if isinstance(answer, CTable):
        text = f"{answer.arity}|{answer.rows!r}|{answer.global_condition!r}"
    elif isinstance(answer, Instance):
        text = repr(sorted(repr(row) for row in answer.rows))
    else:
        text = repr(answer)
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def _rng(seed: int, *parts: object) -> random.Random:
    # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(":".join(str(part) for part in (seed,) + parts))


class Workload:
    name = ""
    maintenance = "rerun"
    ops_per_second: float
    oracle_stride = 1
    expected_calls: Tuple[str, ...] = ()

    def __init__(self, scale: str = "full") -> None:
        self.scale = scale

    def generate(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, engine: Engine, data: Dict[str, Any]) -> Dict[str, Any]:
        session = engine.session(**data["tables"])
        return {"engine": engine, "session": session, "seed": data["seed"]}

    def next_op(self, state: Dict[str, Any], index: int) -> Optional[Any]:
        raise NotImplementedError

    def run_op(self, state: Dict[str, Any], op: Any) -> Any:
        raise NotImplementedError

    def record(self, state: Dict[str, Any], answer: Any) -> Tuple[str, Any]:
        fingerprint = digest(answer)
        return fingerprint, fingerprint

    def verify(
        self, data: Dict[str, Any], ops: Sequence[Any], records: Dict[int, Any]
    ) -> Tuple[Set[int], List[str]]:
        raise NotImplementedError

    def cache_errors(self, engine: Engine, ops: int) -> List[str]:
        return []


# ----------------------------------------------------------------------
# adhoc-join: read-only, every query new
# ----------------------------------------------------------------------

_ADHOC_SIZES = {
    # L and R rows, S constant rows, S symbolic rows, or-set rows, ?-rows
    "full": (3000, 1500, 6, 400, 600),
    "tiny": (120, 60, 3, 20, 30),
}
#: Size of the reduced instance the Mod-equivalence oracle runs on.
_ADHOC_REDUCED = (30, 15, 2, 6, 8)
#: How many of the run's queries the reduced-instance oracle replays.
_ADHOC_REDUCED_QUERIES = 16

_A, _B, _C, _D = 40, 30, 25, 40  # constant pools per column family
#: One cycle of the op mix: 35% joins, 20% selections, 20% differences,
#: 15% projections, 10% over the or-set and ?-tables.
_ADHOC_SHAPES = (
    "join", "select", "join", "difference", "project",
    "join", "select", "orset", "join", "difference",
    "project", "join", "select", "join", "difference",
    "project", "join", "select", "maybe", "difference",
)


class AdhocJoin(Workload):
    """Each op parses and collects a query no earlier op has sent."""

    name = "adhoc-join"
    ops_per_second = 24.0
    # The interpreted oracle costs ~2.5 ops; it checks every third op.
    oracle_stride = 3
    expected_calls = (
        "parse_query",
        "ctable_of",
        "StatsAccumulator.from_ctable",
        "build_plan",
        "optimize_plan",
        "PlanVerifier.verify_query",
        "lower",
        "execute_physical",
        "Batch.to_ctable",
        "Session.register",
        "Dataset.collect",
    )

    @staticmethod
    def tables(seed: int, sizes: Tuple[int, int, int, int, int]) -> Dict[str, Any]:
        rows, s_rows, s_symbolic, orset_rows, q_rows = sizes
        rng = _rng(seed, "adhoc-data", *sizes)
        x = [Var(f"x{index}") for index in range(24)]
        left = []
        for index in range(rows):
            a, b, c = f"a{rng.randrange(_A)}", f"b{rng.randrange(_B)}", f"c{rng.randrange(_C)}"
            if index % 16 == 0:
                # The sparse symbolic stripe: an unknown in the output
                # column, constrained away from one constant.
                variable = x[index % 24]
                left.append(((variable, b, c), ne(variable, f"a{rng.randrange(_A)}")))
            elif index % 8 == 0:
                left.append(((a, b, c), ne(x[index % 24], f"b{rng.randrange(_B)}")))
            else:
                left.append(((a, b, c), TOP))
        right = []
        for index in range(rows):
            b, c, d = f"b{rng.randrange(_B)}", f"c{rng.randrange(_C)}", f"d{rng.randrange(_D)}"
            if index % 8 == 0:
                right.append(((b, c, d), eq(x[(index * 7) % 24], f"b{rng.randrange(_B)}")))
            else:
                right.append(((b, c, d), TOP))
        subtrahend = [
            ((f"c{rng.randrange(_C)}", f"a{rng.randrange(_A)}"), TOP)
            for _ in range(s_rows)
        ]
        for index in range(s_symbolic):
            variable = x[index]
            subtrahend.append(
                ((f"c{rng.randrange(_C)}", variable), ne(variable, f"a{rng.randrange(_A)}"))
            )
        orset = OrSetTable(
            [
                OrSetRow(
                    (
                        f"a{rng.randrange(_A)}",
                        OrSet(tuple(sorted({f"b{rng.randrange(_B)}" for _ in range(3)}))),
                    ),
                    rng.random() < 0.25,
                )
                for _ in range(orset_rows)
            ],
            arity=2,
        )
        maybe = QTable(
            [
                QRow((f"b{rng.randrange(_B)}", f"d{rng.randrange(_D)}"), rng.random() < 0.3)
                for _ in range(q_rows)
            ]
        )
        return {
            "L": CTable(left, arity=3),
            "R": CTable(right, arity=3),
            "S": CTable(subtrahend, arity=2),
            "O": orset,
            "Q": maybe,
        }

    def generate(self, seed: int) -> Dict[str, Any]:
        return {"seed": seed, "tables": self.tables(seed, _ADHOC_SIZES[self.scale])}

    def setup(self, engine: Engine, data: Dict[str, Any]) -> Dict[str, Any]:
        return {**super().setup(engine, data), "sent": set()}

    @staticmethod
    def _query_text(shape: str, rng: random.Random) -> str:
        # Two-constant predicates draw distinct constants in sorted order:
        # the parser canonicalizes conjunctions, so a swapped pair would
        # be the same query under another text.
        a, a2 = rng.randrange(_A), rng.randrange(_A)
        b, d = rng.randrange(_B), rng.randrange(_D)
        c1, c2 = sorted(rng.sample(range(_C), 2))
        if shape == "select":
            return f"pi[3,1](sigma[1='a{a}' & 2!='b{b}'](L))"
        if shape == "project":
            columns = rng.choice(("1,2", "2,3", "1,3"))
            return f"pi[{columns}](sigma[3!='c{c1}' & 3!='c{c2}' & 2!='b{b}'](L))"
        if shape == "join":
            columns = rng.choice(("1,6", "6,1", "1,4,6"))
            if rng.random() < 0.5:
                residual = f"1='a{a}' & 6!='d{d}'"
            else:
                residual = f"6='d{d}' & 1!='a{a}'"
            return f"pi[{columns}](sigma[2=4 & 3=5 & 1!=6 & {residual}](L x R))"
        if shape == "difference":
            return (
                f"pi[3,1](sigma[1='a{a}'](L))"
                f" - pi[1,2](sigma[1='c{c1}' & 2!='a{a2}'](S))"
            )
        if shape == "orset":
            return f"pi[1](sigma[2='b{b}' & 1!='a{a}'](O))"
        return f"pi[2](sigma[1='b{b}' & 2!='d{d}'](Q))"

    def next_op(self, state: Dict[str, Any], index: int) -> Optional[str]:
        # The shape mix is fixed, so every seed runs the same share of
        # each shape; the seed picks the constants.
        shape = _ADHOC_SHAPES[index % len(_ADHOC_SHAPES)]
        rng = _rng(state["seed"], "adhoc-op", index)
        for _ in range(1000):
            text = self._query_text(shape, rng)
            if text not in state["sent"]:
                state["sent"].add(text)
                return text
        return None

    def run_op(self, state: Dict[str, Any], op: str) -> CTable:
        return state["session"].query(op).collect()

    def verify(
        self, data: Dict[str, Any], ops: Sequence[str], records: Dict[int, Any]
    ) -> Tuple[Set[int], List[str]]:
        # The oracle is the interpreted executor: the paper-faithful
        # lifted operators of ctalgebra/lifted.py, without caches.
        interpreted = Engine(
            config_for("rerun").with_options(
                executor="interpreted", plan_cache_size=0, result_cache_size=0
            )
        ).session(**data["tables"])
        wrong = {
            index
            for index, answer in records.items()
            if digest(interpreted.query(ops[index]).collect()) != answer
        }
        errors = [f"differs from the interpreted executor: {ops[i]}" for i in sorted(wrong)]
        # Mod-equivalence on a reduced instance, where it is decidable
        # cheaply, for the first queries of the run.
        tables = self.tables(data["seed"], _ADHOC_REDUCED)
        vectorized = Engine(config_for("rerun")).session(**tables)
        interpreted = Engine(
            config_for("rerun").with_options(executor="interpreted")
        ).session(**tables)
        for index, text in enumerate(ops[:_ADHOC_REDUCED_QUERIES]):
            if not ctables_equivalent(
                vectorized.query(text).collect(), interpreted.query(text).collect()
            ):
                wrong.add(index)
                errors.append(f"reduced instance: Mod differs for {text}")
        return wrong, errors

    def cache_errors(self, engine: Engine, ops: int) -> List[str]:
        errors = []
        if engine.result_cache_stats()["hits"] != 0:
            errors.append("adhoc-join: result cache hit although every query is new")
        # Each op plans once; its second plan lookup (Dataset.collect
        # asks for the plan, then executes it) hits.
        if engine.plan_cache_stats()["misses"] != ops:
            errors.append("adhoc-join: an op found its plan in the cache")
        return errors


# ----------------------------------------------------------------------
# churn: mutations beside reads of standing views
# ----------------------------------------------------------------------

_CHURN_SIZES = {"full": 2400, "tiny": 160}


def _churn_views() -> Dict[str, Any]:
    left, right, other = rel("L", 2), rel("R", 2), rel("S", 2)
    return {
        # The E43 standing join.
        "join_lr": proj(sel(prod(left, right), col_eq(1, 2)), (0, 3)),
        "select_project_l": proj(sel(left, col_ne_const(1, 0)), (1, 0)),
        "difference_ls": diff(proj(left, (1,)), proj(other, (0,))),
        "join_rs": proj(sel(prod(right, other), col_eq(0, 2)), (1, 3)),
        "select_r": sel(right, col_eq_const(0, 7)),
    }


class Churn(Workload):
    """Each op applies one ~1% mutation batch, then reads every view
    twice: the first read refreshes it, the second (a fresh Dataset)
    is served from the result cache."""

    name = "churn"
    maintenance = "incremental"
    ops_per_second = 36.0
    # A rerun of all five views costs ~20 ops; the oracle checks every
    # 32nd op plus the last one.  IVM state is cumulative, so a wrong
    # delta stays visible at later checks.
    oracle_stride = 32
    expected_calls = (
        "StatsAccumulator.from_ctable",
        "StatsAccumulator.remove_rows",
        "StatsAccumulator.add_rows",
        "build_plan",
        "Session.register",
        "Session.insert",
        "Session.delete",
        "Session.update",
        "MaterializedView.refresh",
        "PreparedQuery.refresh",
        "Dataset.collect",
    )

    def generate(self, seed: int) -> Dict[str, Any]:
        rows = _CHURN_SIZES[self.scale]
        keys = rows // 8
        rng = _rng(seed, "churn-data", rows)
        flags = [Var(f"c{index}") for index in range(12)]
        left = CTable(
            [
                ((index, rng.randrange(keys)), eq(flags[index % 12], 1) if index % 4 == 0 else TOP)
                for index in range(rows)
            ],
            arity=2,
        )
        right = CTable(
            [((rng.randrange(keys), index), TOP) for index in range(rows)], arity=2
        )
        marks = [Var(f"s{index}") for index in range(6)]
        other = CTable(
            [
                ((rng.randrange(keys), index), ne(marks[index % 6], 0) if index % 10 == 0 else TOP)
                for index in range(keys)
            ],
            arity=2,
        )
        return {"seed": seed, "keys": keys, "rows": rows, "tables": {"L": left, "R": right, "S": other}}

    def setup(self, engine: Engine, data: Dict[str, Any]) -> Dict[str, Any]:
        state = super().setup(engine, data)
        views = {}
        for name, query in _churn_views().items():
            prepared = state["session"].prepare(query)
            prepared.refresh()  # builds the view from empty
            views[name] = prepared
        return {
            **state,
            "views": views,
            "keys": data["keys"],
            "changed": max(1, data["rows"] // 300),
            "next_id": data["rows"] * 10,
        }

    def next_op(self, state: Dict[str, Any], index: int) -> Dict[str, Any]:
        rng = _rng(state["seed"], "churn-op", index)
        name = "L" if index % 2 == 0 else "R"
        rows = state["session"].table(name).rows
        changed = state["changed"]
        picked = rng.sample(range(len(rows)), 2 * changed)
        deletes = [rows[position] for position in picked[:changed]]
        updates = []
        for position in picked[changed:]:
            old = rows[position]
            values = [term.value for term in old.values]
            values[1 if name == "L" else 0] = rng.randrange(state["keys"])
            updates.append((old, (tuple(values), old.condition)))
        inserts = []
        for _ in range(changed):
            fresh = state["next_id"]
            state["next_id"] += 1
            key = rng.randrange(state["keys"])
            if name == "L":
                condition = eq(Var(f"c{fresh % 12}"), 1) if fresh % 4 == 0 else TOP
                inserts.append(((fresh, key), condition))
            else:
                inserts.append(((key, fresh), TOP))
        return {"name": name, "deletes": deletes, "inserts": inserts, "updates": updates}

    def run_op(self, state: Dict[str, Any], op: Dict[str, Any]) -> Dict[str, CTable]:
        session = state["session"]
        session.delete(op["name"], op["deletes"])
        session.insert(op["name"], op["inserts"])
        session.update(op["name"], op["updates"])
        answers = {}
        for name, prepared in state["views"].items():
            prepared.refresh()
            answers[name] = prepared.dataset().collect()
        return answers

    def record(self, state: Dict[str, Any], answer: Dict[str, CTable]) -> Tuple[str, Any]:
        # Tables are immutable values, so keeping the current ones is a
        # snapshot of the state this answer was read from.
        session = state["session"]
        views = {name: digest(table) for name, table in answer.items()}
        tables = {name: session.table(name) for name in session.names()}
        return digest(views), (views, tables)

    def verify(
        self, data: Dict[str, Any], ops: Sequence[Dict[str, Any]], records: Dict[int, Any]
    ) -> Tuple[Set[int], List[str]]:
        # Re-execute every view from scratch on a rerun engine, over the
        # tables each recorded answer was read from.
        wrong: Set[int] = set()
        errors = []
        for index, (views, tables) in records.items():
            session = Engine(config_for("rerun")).session(**tables)
            for name, query in _churn_views().items():
                if digest(session.prepare(query).execute()) != views[name]:
                    wrong.add(index)
                    errors.append(f"op {index}: view {name} differs from a rerun")
        return wrong, errors

    def cache_errors(self, engine: Engine, ops: int) -> List[str]:
        if engine.result_cache_stats()["hits"] == 0:
            return ["churn: second reads were not served from the result cache"]
        return []


# ----------------------------------------------------------------------
# uncertain-answers: solver-heavy terminals over small pc-tables
# ----------------------------------------------------------------------

def _size_cycle() -> Tuple[int, ...]:
    """One cycle of lineage variable counts, on both sides of
    PROB_VARIABLE_BUDGET = 8: 40% at most 8, 40% 10-20, 20% 32-80.

    The mix is fixed, so every seed runs the same sizes; 64 and 80 come
    once a cycle, so the tail is not set by a handful of ops.
    """
    small = (3, 4, 5, 6, 7, 8) * 4
    mid = (10, 12, 14, 16, 18, 20) * 4
    big = (32, 40, 48, 32, 40, 48, 32, 40, 48, 40, 64, 80)
    cycle: List[int] = []
    for index in range(12):
        cycle += [small[2 * index], mid[2 * index], small[2 * index + 1], mid[2 * index + 1], big[index]]
    return tuple(cycle)


_UNCERTAIN_SIZES = {"full": _size_cycle(), "tiny": (3, 10, 4, 12, 6, 16)}
_UNCERTAIN_GROUPS = {"full": 1200, "tiny": 48}
_UNCERTAIN_POOL = 96  # shared boolean variables
_GROUPS_PER_TABLE = 50
_FAMILIES = ("ring", "chain", "grid", "clause")
_WEIGHTS = tuple(Fraction(n, d) for n, d in ((1, 5), (1, 4), (1, 3), (2, 5), (1, 2), (3, 5), (2, 3), (3, 4)))


def _lineage_terms(family: str, flags: Sequence[Any], rng: random.Random) -> List[Any]:
    size = len(flags)
    if family == "ring":
        return [conj(flags[i], flags[(i + 1) % size]) for i in range(size)]
    if family == "chain":
        return [conj(flags[i], flags[i + 1]) for i in range(size - 1)] or [flags[0]]
    if family == "grid":
        width = 2 if size < 12 else 3
        terms = []
        for i in range(size):
            if (i + 1) % width and i + 1 < size:
                terms.append(conj(flags[i], flags[i + 1]))
            if i + width < size:
                terms.append(conj(flags[i], flags[i + width]))
        return terms or [flags[0]]
    # Random monotone clauses over a sliding window (bounded width).
    # Negated literals would let the finite-domain validity check behind
    # certain() search exponentially many assignments.
    terms = []
    for i in range(size):
        window = [flags[j] for j in range(i, min(size, i + 5))]
        terms.append(conj(*rng.sample(window, min(len(window), rng.choice((2, 3))))))
    return terms


class UncertainAnswers(Workload):
    """Each op runs a query over small pc-tables and calls one terminal
    on a lineage no earlier op has seen."""

    name = "uncertain-answers"
    ops_per_second = 24.0
    # Shannon, WMC and (up to 12 variables) enumeration together cost
    # ~2 ops; the oracle checks every other op.
    oracle_stride = 2
    expected_calls = (
        "parse_query",
        "build_plan",
        "execute_physical",
        "Session.register",
        "Dataset.probability",
        "Dataset.certain",
        "Dataset.possible",
        "probability_shannon",
        "compile_condition",
        "compile_probability",
        "CompiledCondition.probability",
        "certain_from_answer",
        "possible_from_answer",
        "membership_condition",
        "is_satisfiable_over",
    )

    def generate(self, seed: int) -> Dict[str, Any]:
        rng = _rng(seed, "uncertain-data", self.scale)
        names = [f"u{index:02d}" for index in range(_UNCERTAIN_POOL)]
        distributions = {}
        for name in names:
            weight = rng.choice(_WEIGHTS)
            # False first: the finite-domain solvers try values in this order.
            distributions[name] = {False: 1 - weight, True: weight}
        flags = {name: boolvar(name) for name in names}
        sizes = _UNCERTAIN_SIZES[self.scale]
        groups = []
        for index in range(_UNCERTAIN_GROUPS[self.scale]):
            # Shifting the family each cycle pairs every size with every family.
            family = _FAMILIES[(index + index // len(sizes)) % len(_FAMILIES)]
            size = sizes[index % len(sizes)]
            # Name order is the order the solvers branch in, so structure
            # follows it and every family keeps a bounded width.
            chosen = [flags[name] for name in sorted(rng.sample(names, size))]
            rows = [((f"g{index}", "t0"), term) for term in _lineage_terms(family, chosen, rng)]
            for decoy in rng.sample(chosen, min(2, size)):
                rows.append(((f"g{index}", "t1"), decoy))
            groups.append((f"U{index // _GROUPS_PER_TABLE}", f"g{index}", family, size, rows))
        tables: Dict[str, List[Any]] = {}
        for table, _group, _family, _size, rows in groups:
            tables.setdefault(table, []).extend(rows)
        pctables = {}
        for table, rows in tables.items():
            used = {v for _values, condition in rows for v in condition.variables()}
            pctables[table] = PCTable(
                rows, {name: distributions[name] for name in sorted(used)}, arity=2
            )
        return {
            "seed": seed,
            "tables": pctables,
            "groups": [group[:4] for group in groups],
        }

    def setup(self, engine: Engine, data: Dict[str, Any]) -> Dict[str, Any]:
        return {**super().setup(engine, data), "groups": data["groups"]}

    def next_op(self, state: Dict[str, Any], index: int) -> Optional[Dict[str, Any]]:
        if index >= len(state["groups"]):
            return None  # every lineage is used once: the circuit cache stays cold
        table, group, family, size = state["groups"][index]
        # A period prime to the size cycle's 5, so each terminal meets
        # every size class.
        terminal = {5: "certain", 11: "possible"}.get(index % 12, "probability")
        return {
            "text": f"sigma[1='{group}'](U{table[1:]})",
            "terminal": terminal,
            "row": (group, "t0"),
            "family": family,
            "size": size,
        }

    def run_op(self, state: Dict[str, Any], op: Dict[str, Any]) -> Any:
        dataset = state["session"].query(op["text"])
        if op["terminal"] == "probability":
            return dataset.probability(op["row"])
        if op["terminal"] == "certain":
            return dataset.certain()
        return dataset.possible()

    def record(self, state: Dict[str, Any], answer: Any) -> Tuple[str, Any]:
        return digest(answer), answer

    def verify(
        self, data: Dict[str, Any], ops: Sequence[Dict[str, Any]], records: Dict[int, Any]
    ) -> Tuple[Set[int], List[str]]:
        session = Engine(config_for("rerun")).session(**data["tables"])
        distributions = session.distributions()
        wrong: Set[int] = set()
        errors: List[str] = []
        for index, answer in records.items():
            op = ops[index]
            answered = session.query(op["text"]).collect()
            chances = {}
            group = op["row"][0]
            rows = [op["row"]] if op["terminal"] == "probability" else [(group, "t0"), (group, "t1")]
            for row in rows:
                lineage = membership_condition(answered, row)
                scoped = {name: distributions[name] for name in lineage.variables()}
                shannon = probability_shannon(lineage, scoped)
                routes = [compile_probability(lineage, scoped).probability()]
                if len(scoped) <= ENUMERATION_ORACLE_VARIABLES:
                    routes.append(probability_enumerate(lineage, scoped))
                if any(route != shannon for route in routes):
                    errors.append(f"op {index}: Shannon, WMC and enumeration disagree on {row}")
                    wrong.add(index)
                chances[row] = shannon
            if op["terminal"] == "probability":
                expected: Any = chances[op["row"]]
                got: Any = answer
            else:
                # Every weight lies strictly between 0 and 1, so every world
                # has positive probability: certain <=> P = 1, possible <=> P > 0.
                keep = (lambda p: p == 1) if op["terminal"] == "certain" else (lambda p: p > 0)
                expected = {row for row, chance in chances.items() if keep(chance)}
                got = set(answer.rows)
            if got != expected:
                wrong.add(index)
                errors.append(f"op {index}: {op['terminal']} answered {got}, oracle {expected}")
        return wrong, errors

    def cache_errors(self, engine: Engine, ops: int) -> List[str]:
        if engine.circuit_cache_stats()["hits"] != 0:
            return ["uncertain-answers: circuit cache hit although no lineage repeats"]
        return []


WORKLOADS = {workload.name: workload for workload in (AdhocJoin, Churn, UncertainAnswers)}
