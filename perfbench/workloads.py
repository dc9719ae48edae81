"""The three workloads, the server they drive, and their output oracles.

Each workload makes its inputs from the seed, warms what it needs during
set-up, runs a closed loop against a server process for a fixed time, and
then checks every op's output.  An op is one ``/v1/count`` round trip,
except in ``live-updates``, where it is one ``/v1/facts`` write plus the
fresh counts every subscription pushes for it.
"""

from __future__ import annotations

import json
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

import inputs
from server import SPANS_MARKER
from spans import OP

HERE = Path(__file__).resolve().parent


# --------------------------------------------------------------------- server
class Server:
    """One ``perfbench/server.py`` process serving one database file."""

    def __init__(self, database: Path, workdir: Path, trace: bool) -> None:
        self._log = open(workdir / "server.log", "ab")
        command = [sys.executable, str(HERE / "server.py"), "--database", str(database)]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)/", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start (first line {line!r})")
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(self.host, self.port, timeout=60.0)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> List[list]:
        """SIGINT, wait, and return the spans a traced server printed."""
        spans: List[list] = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            out, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            out, _ = self.process.communicate()
        finally:
            self._log.close()
        for line in (out or "").splitlines():
            if line.startswith(SPANS_MARKER):
                spans = json.loads(line[len(SPANS_MARKER):])
        return spans


# ------------------------------------------------------------------ op records
@dataclass
class Record:
    """One op: what was sent, when, and what came back (or the error)."""

    thread: int
    index: int
    op: Any
    start: float = 0.0
    end: float = 0.0
    output: Any = None
    error: Optional[str] = None
    #: live-updates only: when the facts write was acknowledged.
    acked: float = 0.0


def closed_loop(
    threads: int,
    seconds: float,
    next_op: Callable[[int, int], Any],
    run_op: Callable[[Any, Record], Any],
) -> Tuple[List[Record], float, float]:
    """``threads`` clients, each sending its next op only after the last one
    completed, until ``seconds`` have passed.  Returns the records, the
    start time and the elapsed time up to the last completion."""
    records: List[List[Record]] = [[] for _ in range(threads)]
    begin = time.perf_counter()
    deadline = begin + seconds

    def client(thread: int) -> None:
        index = 0
        while time.perf_counter() < deadline:
            op = next_op(thread, index)
            if op is None:
                return
            record = Record(thread, index, op)
            OP.set((thread, index))
            record.start = time.perf_counter()
            try:
                record.output = run_op(op, record)
            except Exception as error:  # noqa: BLE001 - counted as a failed op
                record.error = f"{type(error).__name__}: {error}"
            record.end = time.perf_counter()
            records[thread].append(record)
            index += 1

    workers = [threading.Thread(target=client, args=(t,)) for t in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    flat = [record for per_thread in records for record in per_thread]
    elapsed = max((r.end for r in flat), default=begin) - begin
    return flat, begin, elapsed


# ------------------------------------------------------------------ workloads
@dataclass
class Workload:
    """Inputs and oracle of one workload; subclasses fill in the hooks."""

    seed: int
    tiny: bool = False
    database: inputs.Mirror = field(init=False)

    name = ""
    why = ""
    #: Closed-loop client threads.
    threads = 1

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.make_inputs()

    # hooks
    def make_inputs(self) -> None:
        raise NotImplementedError

    def warm(self, server: Server) -> None:
        """Set-up work the timed phase needs (counted in ``setup_s``)."""

    def next_op(self, thread: int, index: int) -> Any:
        raise NotImplementedError

    def run_op(self, client, op: Any, record: Record) -> Any:
        raise NotImplementedError

    def check(self, records: List[Record], only: Optional[Set[int]] = None) -> Dict[int, str]:
        """Failure reasons by position in ``records``, checking the positions
        in ``only`` (all when ``None``); records that errored are skipped."""
        failures = {}
        for position, record in enumerate(records):
            if record.error is None and (only is None or position in only):
                reason = self.check_one(record)
                if reason is not None:
                    failures[position] = reason
        return failures

    def check_one(self, record: Record) -> Optional[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`warm` opened (after the server stopped)."""

    def identity(self, record: Record) -> Any:
        """What must not change under tracing: the op's estimate(s)."""
        return None if record.output is None else record.output.estimate


class HotReads(Workload):
    name = "hot-reads"
    why = (
        "2 clients, Zipf-skewed repeats of a few warmed (query, seed) keys: "
        "every timed request is a result-cache hit, so the serve/wire path dominates"
    )

    threads = 2

    def make_inputs(self) -> None:
        self.database = inputs.random_database(self.rng, 20, 60, 12)
        seeds = [int(s) for s in self.rng.integers(1, 2**31, size=2)]
        keys = [(query, seed) for query in inputs.HOT_QUERIES for seed in seeds]
        order = self.rng.permutation(len(keys))
        self.keys = [keys[int(i)] for i in order]
        weights = inputs.zipf_weights(len(self.keys))
        #: Per-thread key sequences, fixed up front so a traced replay sends
        #: the same op at the same (thread, index) as the untraced run.
        self.sequences = [
            self.rng.choice(len(self.keys), size=200_000, p=weights) for _ in range(self.threads)
        ]
        self.expected = {query: inputs.count_answers(query, self.database) for query in inputs.HOT_QUERIES}

    def warm(self, server: Server) -> None:
        client = server.client()
        for query, seed in self.keys:
            client.count(query.text, seed=seed)

    def next_op(self, thread: int, index: int) -> Any:
        sequence = self.sequences[thread]
        return self.keys[int(sequence[index % len(sequence)])]

    def run_op(self, client, op, record):
        query, seed = op
        return client.count(query.text, seed=seed)

    def check_one(self, record):
        expected = self.expected[record.op[0]]
        if record.output.estimate != expected:
            return f"{record.output.estimate} != oracle {expected}"
        return None


class ColdExact(Workload):
    name = "cold-exact"
    why = (
        "1 client, projection-heavy CQ/DCQ/ECQ shapes with distinct seeds on a "
        "size-668 database: every request executes, and the unforced planner picks exact"
    )

    def make_inputs(self) -> None:
        vertices, edges, negated = (12, 24, 6) if self.tiny else (26, 150, 20)
        self.database = inputs.random_database(self.rng, vertices, edges, negated)
        order = self.rng.permutation(len(inputs.EXACT_QUERIES))
        self.cycle = [inputs.EXACT_QUERIES[int(i)] for i in order]
        self.base_seed = int(self.rng.integers(1, 2**30))
        self.expected = {query: inputs.count_answers(query, self.database) for query in self.cycle}

    def next_op(self, thread, index):
        return self.cycle[index % len(self.cycle)], self.base_seed + index

    def run_op(self, client, op, record):
        query, seed = op
        return client.count(query.text, seed=seed)

    def check_one(self, record):
        expected = self.expected[record.op[0]]
        if record.output.estimate != expected:
            return f"{record.output.estimate} != oracle {expected}"
        return None

    def answers_per_solution(self) -> float:
        """Median over the query shapes of answers / solutions enumerated."""
        from repro.core.exact import count_solutions_exact
        from repro.queries import parse_query
        from repro.relational.io import database_from_dict

        database = database_from_dict(json.loads(self.database.to_json()))
        ratios = [
            self.expected[query] / max(1, count_solutions_exact(parse_query(query.text), database))
            for query in self.cycle
        ]
        return float(np.median(ratios))


class LiveUpdates(Workload):
    name = "live-updates"
    why = (
        "1 writer replays single-fact inserts/deletes while exact SSE subscriptions "
        "push fresh counts: every write invalidates the caches hot-reads relies on"
    )

    def make_inputs(self) -> None:
        vertices, edges, negated = (8, 10, 4) if self.tiny else (12, 24, 8)
        self.database = inputs.random_database(self.rng, vertices, edges, negated)
        self.events = inputs.fact_events(self.rng, self.database, 400 if self.tiny else 20000)
        self.queries = list(inputs.LIVE_QUERIES)
        self.streams: List[queue.Queue] = []
        self.readers: List[threading.Thread] = []

    def warm(self, server):
        self.streams, self.readers = [], []
        for query in self.queries:
            events: queue.Queue = queue.Queue()

            def read(text=query.text, events=events):
                try:
                    for live in server.client().subscribe(text, refresh="eager"):
                        events.put(live)
                except Exception as error:  # noqa: BLE001 - surfaced by the waiting writer
                    events.put(error)

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            self.streams.append(events)
            self.readers.append(reader)
        for events in self.streams:
            self._next(events)  # the initial count; later ones are checked

    @staticmethod
    def _next(events: queue.Queue):
        item = events.get(timeout=60)
        if isinstance(item, Exception):
            raise item
        return item

    def next_op(self, thread, index):
        return self.events[index] if index < len(self.events) else None

    def run_op(self, client, event, record):
        kind, relation, fact = event
        change = [(relation, fact)]
        if kind == "insert":
            client.add_facts(adds=change)
        else:
            client.add_facts(removes=change)
        record.acked = time.perf_counter()
        return [self._next(events) for events in self.streams]

    def check(self, records, only=None):
        # Every write is replayed on the mirror, in op order (one writer);
        # only the positions asked for are recounted.
        failures = {}
        mirror = self.database.copy()
        for position, record in enumerate(records):
            kind, relation, fact = record.op
            if kind == "insert":
                mirror.add(relation, fact)
            else:
                mirror.remove(relation, fact)
            if record.error is not None or (only is not None and position not in only):
                continue
            for query, live in zip(self.queries, record.output):
                expected = inputs.count_answers(query, mirror)
                if live.estimate != expected:
                    failures[position] = f"{query.text}: pushed {live.estimate} != recount {expected}"
        return failures

    def identity(self, record):
        return None if record.output is None else [live.estimate for live in record.output]

    def close(self):
        for reader in self.readers:
            reader.join(timeout=30)


WORKLOADS = {cls.name: cls for cls in (HotReads, ColdExact, LiveUpdates)}
