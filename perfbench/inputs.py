"""Seeded inputs for the benchmark and the exact oracle that checks them.

Everything here is independent of ``src/``: databases are drawn with NumPy
and written in the ``repro.relational.io`` JSON format, queries are kept as
plain tuples and rendered to the Datalog-ish text the wire API accepts, and
:func:`count_answers` is a small backtracking evaluator over the benchmark's
own :class:`Mirror` of the database.  The program under test only ever sees
the database file and the query texts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

Fact = Tuple[int, ...]


@dataclass(frozen=True)
class Query:
    """A conjunctive query with negated atoms and disequalities."""

    free: Tuple[str, ...]
    atoms: Tuple[Tuple[str, Tuple[str, ...]], ...]
    negated: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    disequalities: Tuple[Tuple[str, str], ...] = ()

    @property
    def variables(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = dict.fromkeys(self.free)
        for _, args in self.atoms + self.negated:
            seen.update(dict.fromkeys(args))
        for pair in self.disequalities:
            seen.update(dict.fromkeys(pair))
        return tuple(seen)

    @property
    def text(self) -> str:
        body = [f"{rel}({', '.join(args)})" for rel, args in self.atoms]
        body += [f"not {rel}({', '.join(args)})" for rel, args in self.negated]
        body += [f"{left} != {right}" for left, right in self.disequalities]
        return f"Ans({', '.join(self.free)}) :- {', '.join(body)}"


def q(free: str, atoms: str, negated: str = "", diseq: str = "") -> Query:
    """Shorthand: ``q("x", "E x y; E y z", "F x z", "x z")``."""

    def atom_list(spec: str):
        return tuple(
            (part.split()[0], tuple(part.split()[1:]))
            for part in spec.split(";")
            if part.strip()
        )

    pairs = tuple(
        tuple(part.split()) for part in diseq.split(";") if part.strip()
    )
    return Query(tuple(free.split()), atom_list(atoms), atom_list(negated), pairs)


# ------------------------------------------------------------------ databases
@dataclass
class Mirror:
    """The benchmark's own copy of a database of binary relations, indexed
    per argument position."""

    universe: List[int]
    relations: Dict[str, set]
    _index: Dict[str, List[Dict[int, set]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, facts in self.relations.items():
            self._index[name] = [dict() for _ in range(2)]
            for fact in facts:
                self._link(name, fact)

    def _link(self, name: str, fact: Fact) -> None:
        for position, value in enumerate(fact):
            self._index[name][position].setdefault(value, set()).add(fact)

    def add(self, name: str, fact: Fact) -> None:
        if fact not in self.relations[name]:
            self.relations[name].add(fact)
            self._link(name, fact)

    def remove(self, name: str, fact: Fact) -> None:
        if fact in self.relations[name]:
            self.relations[name].discard(fact)
            for position, value in enumerate(fact):
                self._index[name][position][value].discard(fact)

    def to_json(self) -> str:
        return json.dumps(
            {
                "universe": self.universe,
                "relations": {
                    name: sorted(list(fact) for fact in facts)
                    for name, facts in self.relations.items()
                },
                "arities": {name: 2 for name in self.relations},
            }
        )

    def copy(self) -> "Mirror":
        return Mirror(
            list(self.universe),
            {name: set(facts) for name, facts in self.relations.items()},
        )


def random_database(
    rng: np.random.Generator, vertices: int, edges: int, negated_facts: int
) -> Mirror:
    """``G(n, m)`` as a symmetric relation ``E`` plus ``negated_facts``
    distinct off-diagonal pairs in ``F``.  A fixed edge count (rather than
    ``G(n, p)``) keeps ``size()`` and the work per query the same on every
    seed."""
    pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    chosen = rng.choice(len(pairs), size=edges, replace=False)
    edge_facts = set()
    for index in chosen:
        u, v = pairs[int(index)]
        edge_facts.update({(u, v), (v, u)})
    off_diagonal = [(u, v) for u in range(vertices) for v in range(vertices) if u != v]
    picked = rng.choice(len(off_diagonal), size=negated_facts, replace=False)
    forbidden = {off_diagonal[int(index)] for index in picked}
    return Mirror(list(range(vertices)), {"E": edge_facts, "F": forbidden})


# --------------------------------------------------------------------- oracle
def count_answers(query: Query, db: Mirror) -> int:
    """``|Ans(query, db)|`` by brute-force backtracking: enumerate the free
    variables, then probe for one extension over the quantified ones."""
    free = list(query.free)
    quantified = [v for v in query.variables if v not in query.free]

    def candidates(var: str, assign: Dict[str, int]) -> Sequence[int]:
        best = None
        for rel, args in query.atoms:
            if var not in args:
                continue
            bound = [i for i, arg in enumerate(args) if arg in assign]
            if bound:
                i = bound[0]
                facts = db._index[rel][i].get(assign[args[i]], ())
            else:
                facts = db.relations[rel]
            values = set()
            for fact in facts:
                value = None
                for i, arg in enumerate(args):
                    if arg == var:
                        if value is not None and value != fact[i]:
                            break
                        value = fact[i]
                    elif arg in assign and assign[arg] != fact[i]:
                        break
                else:
                    values.add(value)
            best = values if best is None else best & values
        return db.universe if best is None else sorted(best)

    def consistent(assign: Dict[str, int]) -> bool:
        for rel, args in query.atoms:
            if all(a in assign for a in args):
                if tuple(assign[a] for a in args) not in db.relations[rel]:
                    return False
        for rel, args in query.negated:
            if all(a in assign for a in args):
                if tuple(assign[a] for a in args) in db.relations[rel]:
                    return False
        for left, right in query.disequalities:
            if left in assign and right in assign and assign[left] == assign[right]:
                return False
        return True

    def extends(position: int, assign: Dict[str, int]) -> bool:
        if position == len(quantified):
            return True
        var = quantified[position]
        for value in candidates(var, assign):
            assign[var] = value
            found = consistent(assign) and extends(position + 1, assign)
            del assign[var]
            if found:
                return True
        return False

    answers = 0

    def enumerate_free(position: int, assign: Dict[str, int]) -> None:
        nonlocal answers
        if position == len(free):
            answers += extends(0, assign)
            return
        var = free[position]
        for value in candidates(var, assign):
            assign[var] = value
            if consistent(assign):
                enumerate_free(position + 1, assign)
            del assign[var]

    enumerate_free(0, {})
    return answers


# ------------------------------------------------------------------ workloads
#: hot-reads: the planner is free; the small database makes it pick ``exact``.
HOT_QUERIES = (
    q("x", "E x y; E y z"),
    q("x z", "E x y; E y z"),
    q("x y", "E x z; E z y", diseq="x y"),
    q("x", "E x y; E y z", negated="F x z"),
    q("x", "E x a; E x b", diseq="a b"),
    q("x y", "E x y", negated="F x y"),
    q("x", "E x a; E x b; E x c"),
    q("x y", "E x y; E y z; E z x"),
)

#: cold-exact: projection-heavy shapes on a database just under the
#: planner's exact threshold (so the exact scheme enumerates many solutions
#: per answer).  Five shapes of distinct cost, sent in rotation, put p50 and
#: p90 each inside one shape's spread rather than in a gap between two.
EXACT_QUERIES = (
    q("x", "E x a; E x b", diseq="a b"),
    q("x", "E x y; E y z", negated="F x z"),
    q("x", "E x y; E y z; E z w"),
    q("x", "E x y; E y z; E z w", negated="F x w"),
    q("x y", "E x a; E a b; E b y", diseq="x y"),
)

#: live-updates: exact standing subscriptions over both relations.
LIVE_QUERIES = (
    q("x z", "E x y; E y z"),
    q("x", "E x y; E y z", negated="F x z"),
    q("x y", "E x z; E z y", diseq="x y"),
)


def zipf_weights(count: int, exponent: float = 1.1) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** exponent
    return weights / weights.sum()


def fact_events(
    rng: np.random.Generator, db: Mirror, count: int
) -> List[Tuple[str, str, Fact]]:
    """``count`` single-fact ``(kind, relation, fact)`` writes over the
    existing universe, alternating an insert of an absent fact with a delete
    of a present one in the same relation.  Relation sizes stay within one of
    where they started, so the work per op does not drift over a run, and the
    universe never grows, so every refresh can be an exact delta."""
    state = {name: sorted(facts) for name, facts in db.relations.items()}
    names = sorted(state)
    n = len(db.universe)
    events: List[Tuple[str, str, Fact]] = []
    while len(events) < count:
        name = names[int(rng.integers(len(names)))]
        present = set(state[name])
        while True:
            fact = (int(rng.integers(n)), int(rng.integers(n)))
            if fact not in present:
                break
        gone = state[name][int(rng.integers(len(state[name])))]
        events += [("insert", name, fact), ("delete", name, gone)]
        state[name].remove(gone)
        state[name].append(fact)
    return events[:count]
