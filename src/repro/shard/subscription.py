"""The recount step of live counts over sharded databases.

``CountingService.subscribe`` on a :class:`ShardedStructure` returns a
:class:`ShardSubscription`: the shared refresh loop of
:class:`~repro.stream.live.LiveSubscription` with a recount step that
decomposes the query once (:func:`~repro.shard.plan.plan_sharded_count`) and
keeps **one fingerprint per component**.  Each is the aggregate, all-shard
fingerprint restricted to the component's relations, so a mutation re-counts
exactly the components mentioning the touched relation (``mode``
``"shard-partial"``; ``"shard-recount"`` when every component was stale).

Stale reads re-plan the decomposition before recounting — hash-by-tuple
placement can move a relation's owning shard — and when it stops localising,
the subscription degrades to whole-query recomputes through the
:class:`~repro.shard.executor.ShardExecutor` (``mode`` ``"recount"``), the
path union/merged-strategy queries take from the start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.registry import REGISTRY
from repro.queries.query import ConjunctiveQuery
from repro.relational.changelog import Fingerprint
from repro.shard.executor import ShardExecutor, combine_local_estimates
from repro.shard.plan import ShardCountPlan, component_relation_names, plan_sharded_count
from repro.stream.delta import delta_applicable
from repro.stream.live import Commit, LiveSubscription, ticks_since

#: Plan strategies whose components each live on one shard.
LOCALISED = ("single", "local")


@dataclass
class _ComponentState:
    """One component's cached count and the fingerprint backing it.

    The fingerprint is the **aggregate** (all-shard) fingerprint restricted
    to the component's relations: a fact of a watched relation landing on a
    shard that did not previously own the component still makes the
    component stale, while mutations of other relations stay invisible.
    Recounts run on the owning shard of the *current* plan.
    """

    component: int
    query: ConjunctiveQuery
    relations: Tuple[str, ...]
    universe_sensitive: bool
    fingerprint: Fingerprint = (0, ())
    estimate: float = 0.0
    refreshes: int = 0

    @classmethod
    def watching(cls, query: ConjunctiveQuery, component: int = 0) -> "_ComponentState":
        return cls(
            component=component,
            query=query,
            relations=component_relation_names(query),
            universe_sensitive=not delta_applicable(query, True),
        )

    def pending_ticks(self, sharded) -> int:
        return ticks_since(
            sharded, self.fingerprint, self.relations, self.universe_sensitive
        )


class ShardSubscription(LiveSubscription):
    """The recount step for sharded databases (see module docstring).
    Seeds are ``derive_seed(base_seed, refresh_index, component)``, with
    component 0 on the whole-query path."""

    def _start(self) -> None:
        self.shard_plan: ShardCountPlan = plan_sharded_count(self.query, self._database)
        self._executor = ShardExecutor(mode="serial")
        self._components: List[_ComponentState] = []
        if self.shard_plan.strategy in LOCALISED:
            self._components = [
                _ComponentState.watching(task.query, task.component)
                for task in self.shard_plan.tasks
            ]
        #: The whole-query fingerprint of union/merged (or degraded) plans.
        self._whole: Optional[_ComponentState] = (
            None if self._components else _ComponentState.watching(self.query)
        )
        self._recount(0)()

    def pending_ticks(self) -> int:
        """Version bumps not yet folded into the served value, summed over
        the components (or the whole query, for union/merged plans)."""
        if self._whole is not None:
            return self._whole.pending_ticks(self._database)
        return sum(state.pending_ticks(self._database) for state in self._components)

    def _recount(self, refresh_index: int) -> Commit:
        if self._whole is not None:
            return self._recount_whole(refresh_index, self.shard_plan)
        fresh = plan_sharded_count(self.query, self._database)
        if fresh.strategy not in LOCALISED or len(fresh.tasks) != len(self._components):
            # Ownership migrated beyond the pinned decomposition (e.g. a
            # hash-by-tuple relation stopped localising): degrade to
            # whole-query recomputes — always correct, no per-shard routing.
            return self._recount_whole(refresh_index, fresh)
        started = time.perf_counter()
        seed, counted = self._last_seed, []
        for state, task in zip(self._components, fresh.tasks):
            if self._force_recount or state.pending_ticks(self._database) > 0:
                seed = self._seed_for(refresh_index, state.component)
                estimate = REGISTRY.count(
                    self.scheme,
                    state.query,
                    self._database.shards[task.shard],
                    epsilon=self.epsilon,
                    delta=self.delta,
                    rng=seed,
                    engine=self.plan.engine,
                ).estimate
                fingerprint = self._database.version_fingerprint(state.relations)
                counted.append((state, estimate, fingerprint))
        seconds = time.perf_counter() - started
        full = len(counted) == len(self._components)

        def commit() -> Tuple[str, ...]:
            self.shard_plan = fresh
            for state, estimate, fingerprint in counted:
                state.estimate, state.fingerprint = estimate, fingerprint
                if refresh_index:
                    state.refreshes += 1
            self._estimate = combine_local_estimates(
                [state.estimate for state in self._components]
            )
            self._mode = "shard-recount" if full else "shard-partial"
            self._last_seed = seed
            if full and refresh_index:
                self._note_prediction_error(seconds)
            return ()

        return commit

    def _recount_whole(self, refresh_index: int, shard_plan: ShardCountPlan) -> Commit:
        seed = self._seed_for(refresh_index, 0)
        result = self._executor.count(
            self.query,
            self._database,
            scheme=self.scheme,
            epsilon=self.epsilon,
            delta=self.delta,
            seed=seed,
            engine=self.plan.engine,
        )
        whole = self._whole or _ComponentState.watching(self.query)
        fingerprint = self._database.version_fingerprint(whole.relations)

        def commit() -> Tuple[str, ...]:
            self.shard_plan = shard_plan
            self._components = []
            self._whole = whole
            whole.fingerprint = fingerprint
            self._estimate, self._mode, self._last_seed = result.estimate, "recount", seed
            if refresh_index:
                self._note_prediction_error(result.wall_seconds)
            return ()

        return commit

    # ----------------------------------------------------------------- public
    @property
    def strategy(self) -> str:
        return self.shard_plan.strategy

    @property
    def component_refreshes(self) -> Tuple[int, ...]:
        """Per-component refresh counters, in component order (empty for
        union/merged plans) — the observable behind "only touched shards
        recount"."""
        return tuple(state.refreshes for state in self._components)
