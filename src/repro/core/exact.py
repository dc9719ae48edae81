"""Exact counting baselines.

The paper's starting point (Section 1.1) is that exact counting of answers is
infeasible in general — even the brute-force ``||D||^{O(||phi||)}`` algorithm
is essentially optimal under SETH [16].  The reproduction still needs exact
counters:

* as ground truth for testing the approximation schemes,
* as the "baseline algorithm" in every bench (the thing the FPTRAS/FPRAS is
  compared against), and
* to demonstrate the hardness constructions (Observations 9 and 10) by
  exhibiting their exponential blow-up.

Two exact counters are provided: a pure brute-force enumeration over all
assignments (the ``||D||^{O(||phi||)}`` algorithm from the introduction) and a
backtracking counter built on the CSP engine's projected search
(:meth:`~repro.relational.csp.CSPInstance.iter_projected`).  The projected
search assigns the free variables first wherever the min-fill order allows it,
and once they are all assigned it only asks whether the quantified rest has
*one* extension, so it enumerates witnesses of answers (Definition 2) rather
than every solution (Definition 1).  It is usually much faster than brute
force, and still exponential in the worst case.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.queries.query import ConjunctiveQuery
from repro.relational.csp import (
    DEFAULT_ENGINE,
    Constraint,
    CSPInstance,
    NotEqualConstraint,
    NotInRelationConstraint,
)
from repro.relational.structure import Structure

Element = Hashable


def _solution_csp(
    query: ConjunctiveQuery,
    database: Structure,
    engine: str = DEFAULT_ENGINE,
    restrict: Optional[Dict[str, Set[Element]]] = None,
    extra_constraints: Sequence[object] = (),
    search_order: Optional[Sequence[str]] = None,
) -> Optional[CSPInstance]:
    """A CSP whose solutions are exactly Sol(phi, D) (Definition 1).

    Table constraints are built through the trusted fast path and share the
    database's cached per-relation tuple indexes (and, under the columnar
    engine, its cached columnar tables); the domains reuse the cached
    canonical universe instead of re-sorting it per call.

    The optional arguments serve the delta counter in
    :mod:`repro.stream.delta`: ``restrict`` narrows some variables' domains
    (e.g. to a pinned singleton; ``None`` is returned when a restriction has
    no value inside the universe, as then there is no solution),
    ``extra_constraints`` are appended to the query's, and ``search_order``
    is passed to :class:`CSPInstance` so many small instances can share one
    order computation.
    """
    universe = database.canonical_universe()
    domains: Dict[str, object] = {v: universe for v in query.variables}
    if restrict:
        universe_set = database.universe
        for variable, candidates in restrict.items():
            values = {value for value in candidates if value in universe_set}
            if not values:
                return None
            domains[variable] = values
    columnar = engine == "columnar"
    constraints: List[object] = []
    for atom in query.atoms:
        constraints.append(
            Constraint.trusted(
                atom.args,
                index=database.relation_index(atom.relation),
                table=database.columnar_relation(atom.relation) if columnar else None,
            )
        )
    for atom in query.negated_atoms:
        forbidden = (
            database.relation(atom.relation)
            if atom.relation in database.signature
            else frozenset()
        )
        constraints.append(
            NotInRelationConstraint(scope=atom.args, forbidden=frozenset(forbidden))
        )
    for disequality in query.disequalities:
        constraints.append(NotEqualConstraint(disequality.left, disequality.right))
    constraints.extend(extra_constraints)
    return CSPInstance(domains, constraints, engine=engine, search_order=search_order)


def count_solutions_exact(
    query: ConjunctiveQuery, database: Structure, engine: str = DEFAULT_ENGINE
) -> int:
    """Exact ``|Sol(phi, D)|`` (Definition 1) via backtracking."""
    query._check_signature_compatibility(database)
    if not database.universe:
        return 0
    return _solution_csp(query, database, engine=engine).count_solutions()


def enumerate_answers_exact(
    query: ConjunctiveQuery, database: Structure, engine: str = DEFAULT_ENGINE
) -> Set[Tuple[Element, ...]]:
    """Exact ``Ans(phi, D)`` (Definition 2) as a set of tuples ordered like
    ``query.free_variables`` — collected from the CSP engine's projected
    search, which stops at the first witness of each answer instead of
    enumerating every solution."""
    query._check_signature_compatibility(database)
    if not database.universe:
        return set()
    free = query.free_variables
    return set(_solution_csp(query, database, engine=engine).iter_projected(free))


def count_answers_exact(
    query: ConjunctiveQuery,
    database: Structure,
    method: str = "backtracking",
    engine: str = DEFAULT_ENGINE,
) -> int:
    """Exact ``|Ans(phi, D)|``.

    ``method="backtracking"`` (default) counts the distinct answers found by
    the CSP engine's projected search: free variables are assigned first
    where the min-fill order allows, and each assignment of them costs one
    early-exit probe for the quantified rest rather than an enumeration of
    all its extensions (see :func:`enumerate_answers_exact`).
    ``method="bruteforce"`` is the plain ``|U(D)|^{|vars(phi)|}`` enumeration
    from the introduction (kept as an independent reference implementation
    for differential testing).
    ``engine`` selects the CSP engine (``"indexed"``/``"naive"``/
    ``"columnar"``) for the backtracking method.
    """
    if method == "bruteforce":
        return query.count_answers_bruteforce(database)
    if method == "backtracking":
        return len(enumerate_answers_exact(query, database, engine=engine))
    raise ValueError(f"unknown method {method!r}")
