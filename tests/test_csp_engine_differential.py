"""Differential tests: indexed engine vs. naive engine vs. brute force.

The indexed, propagation-based CSP engine must be a pure performance change:
on every instance it has to produce exactly the same solutions — and in the
same enumeration order — as the retained naive scan path, and the same counts
as the independent ``count_answers_bruteforce`` reference.  These tests sweep
seeded random workloads (CQs with disequalities and negations included) from
:mod:`repro.workloads` across all three implementations.  The projected
search behind the exact answer counter is held to the same standard: the
same answer sets as brute force and the same witness sequence on every
engine.
"""

from __future__ import annotations

import pytest

from repro.core.exact import (
    _solution_csp,
    count_answers_exact,
    count_solutions_exact,
    enumerate_answers_exact,
)
from repro.queries import parse_query
from repro.queries.builders import path_query, star_query
from repro.relational import (
    Constraint,
    CSPInstance,
    NotEqualConstraint,
    count_homomorphisms,
    enumerate_homomorphisms,
)
from repro.relational.csp import ENGINES
from repro.relational.structure import Structure
from repro.workloads import (
    database_from_graph,
    erdos_renyi_graph,
    random_database,
    random_tree_query,
)


def _random_workloads():
    """Seeded (query, database) pairs covering CQs, DCQs and ECQs."""
    workloads = []
    for seed in range(4):
        query = random_tree_query(
            num_variables=4,
            num_free=2,
            num_disequalities=seed % 3,
            num_negations=seed % 2,
            rng=seed,
        )
        database = random_database(
            universe_size=5,
            relations={"E": 2, "F": 2},
            facts_per_relation=10,
            rng=seed + 100,
        )
        workloads.append((f"tree-seed{seed}", query, database))
    graph_db = database_from_graph(erdos_renyi_graph(7, 0.4, rng=3))
    workloads.append(("two-hop", path_query(2, free_endpoints_only=True), graph_db))
    workloads.append(("star3-dcq", star_query(3, with_disequalities=True), graph_db))
    # Projected-search shapes: quantified variables trailing the free one,
    # no free variable at all, a free variable constrained only by a
    # disequality, and a negated atom over a second relation.
    workloads.append(
        ("trailing-path", parse_query("Ans(x) :- E(x, y), E(y, z), E(z, w)"), graph_db)
    )
    workloads.append(
        ("boolean-triangle", parse_query("Ans() :- E(x, y), E(y, z), E(z, x)"), graph_db)
    )
    workloads.append(
        ("free-in-diseq-only", parse_query("Ans(x, u) :- E(x, y), u != y"), graph_db)
    )
    negated_db = random_database(
        universe_size=6, relations={"E": 2, "F": 2}, facts_per_relation=14, rng=7
    )
    workloads.append(
        ("negated", parse_query("Ans(x) :- E(x, y), E(y, z), !F(x, z)"), negated_db)
    )
    return workloads


WORKLOADS = _random_workloads()
IDS = [name for name, _, _ in WORKLOADS]


@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_engines_agree_with_bruteforce_on_answer_counts(name, query, database):
    brute = count_answers_exact(query, database, method="bruteforce")
    naive = count_answers_exact(query, database, engine="naive")
    indexed = count_answers_exact(query, database, engine="indexed")
    assert indexed == naive == brute


@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_engines_agree_on_solution_counts_and_answer_sets(name, query, database):
    assert count_solutions_exact(query, database, engine="indexed") == count_solutions_exact(
        query, database, engine="naive"
    )
    expected = query.answers(database)
    for engine in ENGINES:
        assert enumerate_answers_exact(query, database, engine=engine) == expected


@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_projected_search_is_identical_across_engines(name, query, database):
    """Every engine yields the same witness sequence, and that sequence is
    the full enumeration (in the projected order) thinned to the first
    solution of every distinct prefix ending at the deepest free variable."""
    free = query.free_variables
    sequences = [
        list(_solution_csp(query, database, engine=engine).iter_projected(free))
        for engine in ENGINES
    ]
    assert sequences[0] == sequences[1] == sequences[2]

    order = _solution_csp(query, database).projected_order(free)
    cut = max((order.index(v) for v in free), default=-1)
    expected, previous = [], None
    for solution in _solution_csp(query, database, search_order=order).iter_solutions():
        prefix = tuple(solution[v] for v in order[: cut + 1])
        if prefix != previous:
            expected.append(tuple(solution[v] for v in free))
            previous = prefix
    assert sequences[0] == expected


def test_projected_search_yields_one_witness_per_answer():
    """``Ans(x) :- E(x,y),E(y,z),E(z,w)``: the projection-aware order puts
    ``x`` first (the plain min-fill order does not), so the search stops at
    one witness per answer instead of enumerating every walk."""
    query = parse_query("Ans(x) :- E(x, y), E(y, z), E(z, w)")
    database = database_from_graph(erdos_renyi_graph(12, 0.3, rng=7))
    answers = query.answers(database)
    instance = _solution_csp(query, database)
    assert instance.projected_order(query.free_variables)[0] == "x"
    assert instance.search_order()[0] != "x"
    for engine in ENGINES:
        witnesses = list(
            _solution_csp(query, database, engine=engine).iter_projected(
                query.free_variables
            )
        )
        assert len(witnesses) == len(answers)
        assert set(witnesses) == answers
    assert count_solutions_exact(query, database) > 10 * len(answers)


def test_engines_enumerate_homomorphisms_in_identical_order():
    source = Structure.from_graph([(0, 1), (1, 2), (2, 3)])
    target = Structure.from_graph(erdos_renyi_graph(6, 0.5, rng=5).edges())
    naive = list(enumerate_homomorphisms(source, target, engine="naive"))
    indexed = list(enumerate_homomorphisms(source, target, engine="indexed"))
    assert naive == indexed
    assert count_homomorphisms(source, target, engine="indexed") == len(naive)


def test_engines_agree_on_mixed_constraint_csp():
    for engine_pair in ({"x": {1, 2, 3}, "y": {1, 2, 3}, "z": {1, 2, 3}},):
        constraints = [
            Constraint(scope=("x", "y"), allowed=frozenset({(1, 2), (2, 3), (3, 1), (2, 2)})),
            Constraint(scope=("y", "z"), allowed=frozenset({(2, 1), (3, 3), (2, 2)})),
            NotEqualConstraint("x", "z"),
        ]
        naive = list(CSPInstance(engine_pair, constraints, engine="naive").iter_solutions())
        indexed = list(CSPInstance(engine_pair, constraints, engine="indexed").iter_solutions())
        assert naive == indexed


def test_trusted_constructor_skips_validation_but_matches_semantics():
    allowed = frozenset({(1, 2), (2, 1)})
    checked = Constraint(scope=("x", "y"), allowed=allowed)
    trusted = Constraint.trusted(("x", "y"), allowed)
    assert checked == trusted
    assert trusted.consistent_with_partial({"x": 1}) and not trusted.consistent_with_partial({"x": 3})
    # The validated path still rejects ragged tuples...
    with pytest.raises(ValueError):
        Constraint(scope=("x", "y"), allowed=frozenset({(1,)}))
    # ...while the trusted path is explicitly a no-validation fast path.
    Constraint.trusted(("x", "y"), frozenset({(1,)}))


def test_shared_relation_index_is_cached_and_invalidated():
    database = Structure.from_graph([(1, 2), (2, 3)])
    first = database.relation_index("E")
    assert database.relation_index("E") is first
    database.add_fact("E", (3, 1))
    second = database.relation_index("E")
    assert second is not first
    assert (3, 1) in second.allowed


def test_canonical_universe_cached_and_copy_shares_caches():
    database = Structure.from_graph([(1, 2), (2, 3)])
    universe = database.canonical_universe()
    assert universe == tuple(sorted(database.universe, key=repr))
    assert database.canonical_universe() is universe
    index = database.relation_index("E")
    duplicate = database.copy()
    assert duplicate == database
    assert duplicate.relation_index("E") is index
    # Mutating the copy must not leak into the original.
    duplicate.add_fact("E", (9, 9))
    assert not database.has_fact("E", (9, 9))
    assert duplicate.relation_index("E") is not index
