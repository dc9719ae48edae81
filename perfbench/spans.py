"""Spans around the public entry points of each layer, installed from here.

Nothing in ``src/`` is edited: :func:`install_server` and
:func:`install_client` replace module and class attributes with timing
wrappers before the program runs.  A span is ``(name, op, start, end,
self_seconds, extra)``; self time is the span's duration minus the time
its wrapped children on the same thread took.  Spans stay in memory and
are written out once, when the process ends.

Op ids.  On the server an id is minted when ``http.read_request`` returns
and lives in a context variable of the connection's task, so loop-thread
spans (decode, admission, coalescing key, encode) carry it.  The decoded
``CountRequest`` object is the one handed to ``CountingService.submit``,
so its identity carries the id into the worker thread.  Spans with no id
(``/v1/facts`` writes, SSE refreshes) are assigned to ops by time.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

OP = contextvars.ContextVar("perfbench_op", default=None)


class Recorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()

    def stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, op, start: float, end: float, own: float, extra=None) -> None:
        self.spans.append([name, op, start, end, own, extra])

    def wrap(
        self,
        name: str,
        fn: Callable,
        describe: Optional[Callable[..., tuple]] = None,
    ) -> Callable:
        """Time ``fn`` as span ``name``.  ``describe(result, *args,
        **kwargs)`` may return ``(name, extra)`` to rename the span or attach
        data to it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                span_name, extra = name, None
                if describe is not None:
                    span_name, extra = describe(result, *args, **kwargs)
                self.add(span_name, OP.get(), start, end, end - start - children[0], extra)

        return wrapper


def _outermost(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """Time ``fn`` only when no other span is open on the calling thread."""
    timed = recorder.wrap(name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.stack():
            return fn(*args, **kwargs)
        return timed(*args, **kwargs)

    return wrapper


# --------------------------------------------------------------------- server
def install_server(recorder: Recorder) -> None:
    """Wrap the served count, write and refresh paths (server process)."""
    from repro.core import registry
    from repro.queries import prepared as prepared_module
    from repro.relational.csp import CSPInstance
    from repro.relational.structure import Structure
    from repro.serve import coalesce, http, schema, server
    from repro.serve.admission import AdmissionController
    from repro.service import plan as plan_module
    from repro.service import service as service_module
    from repro.stream import live

    ids = itertools.count(1)
    request_started: Dict[int, float] = {}
    fetch_entered: Dict[int, float] = {}
    op_of_request: Dict[int, int] = {}

    read_request = http.read_request

    async def traced_read_request(*args, **kwargs):
        request = await read_request(*args, **kwargs)
        if request is not None:
            op = next(ids)
            OP.set(op)
            request_started[op] = time.perf_counter()
        return request

    http.read_request = traced_read_request

    response = http.response

    def traced_response(*args, **kwargs):
        body = response(*args, **kwargs)
        op = OP.get()
        started = request_started.pop(op, None)
        if started is not None:
            end = time.perf_counter()
            recorder.add("serve.request", op, started, end, end - started)
        return body

    http.response = traced_response

    def describe_decode(result, message, *args, **kwargs):
        if isinstance(result, service_module.CountRequest):
            op_of_request[id(result)] = OP.get()
            return "serve.decode", (message.get("query"), message.get("seed"))
        return "serve.decode", None

    schema.decode = recorder.wrap("serve.decode", schema.decode, describe_decode)
    schema.parse_query = recorder.wrap("queries.parse", schema.parse_query)
    for attribute in ("envelope", "count_result_payload", "query_plan_payload", "live_count_payload"):
        setattr(schema, attribute, recorder.wrap("serve.encode", getattr(schema, attribute)))
    AdmissionController.admit = recorder.wrap("serve.admission", AdmissionController.admit)
    server.coalescing_key = recorder.wrap("serve.coalesce_key", server.coalescing_key)

    fetch = coalesce.Coalescer.fetch

    async def traced_fetch(self, key, runner):
        fetch_entered[OP.get()] = time.perf_counter()
        return await fetch(self, key, runner)

    coalesce.Coalescer.fetch = traced_fetch

    submit = recorder.wrap("service.submit", service_module.CountingService.submit)

    def traced_submit(self, *args, request=None, **kwargs):
        entered = time.perf_counter()
        op = op_of_request.pop(id(request), None)
        token = OP.set(op)
        try:
            entered_fetch = fetch_entered.pop(op, None)
            if entered_fetch is not None:
                recorder.add(
                    "serve.dispatch_wait", op, entered_fetch, entered, entered - entered_fetch
                )
            return submit(self, *args, request=request, **kwargs)
        finally:
            OP.reset(token)

    service_module.CountingService.submit = traced_submit
    plan_module.Planner.plan = recorder.wrap("service.plan", plan_module.Planner.plan)

    original_prepare = prepared_module.prepare
    stats = prepared_module.prepared_cache_stats

    def counted_prepare(query):
        hits = stats().hits
        result = original_prepare(query)
        now = time.perf_counter()
        recorder.add("queries.prepared_cache", OP.get(), now, now, 0.0, stats().hits > hits)
        return result

    traced_prepare = recorder.wrap("queries.prepare", counted_prepare)
    for module in (service_module, coalesce, plan_module, registry):
        module.prepare = traced_prepare

    def describe_scheme(result, registry_self, scheme, *args, **kwargs):
        return f"core.scheme.{scheme}", None

    registry.SchemeRegistry.count = recorder.wrap(
        "core.scheme", registry.SchemeRegistry.count, describe_scheme
    )
    CSPInstance.propagate = recorder.wrap("relational.csp.propagate", CSPInstance.propagate)

    construct = CSPInstance.__init__

    def counted_init(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        now = time.perf_counter()
        recorder.add("relational.csp.instance", OP.get(), now, now, 0.0)

    CSPInstance.__init__ = counted_init
    live.CountSubscription.read = recorder.wrap("stream.refresh", live.CountSubscription.read)
    live.delta_count_exact = recorder.wrap("stream.delta", live.delta_count_exact)
    # Only writes issued outside every other span (the /v1/facts handler);
    # the schemes' own scratch structures call add_fact thousands of times
    # per count and would bury the served writes in wrapper overhead.
    for attribute in ("add_fact", "remove_fact"):
        original = getattr(Structure, attribute)
        setattr(Structure, attribute, _outermost(recorder, "relational.write", original))


# --------------------------------------------------------------------- client
def install_client(recorder: Recorder) -> None:
    """Wrap the wire client's encode/decode and round trip (load generator)."""
    from repro.serve import client, schema

    client.ServeClient.count = recorder.wrap("client.roundtrip", client.ServeClient.count)

    def describe_encode(result, obj, *args, **kwargs):
        if not isinstance(result, dict) or "query" not in result:
            return "client.encode", None
        return "client.encode", (result["query"], result["seed"])

    schema.encode = recorder.wrap("client.encode", schema.encode, describe_encode)
    schema.from_json = recorder.wrap("client.decode", schema.from_json)
    schema.decode = recorder.wrap("client.decode", schema.decode)


# ------------------------------------------------------------------- analysis
def group(
    spans: Sequence[list],
    windows: Optional[Sequence[tuple]] = None,
) -> Dict[Any, List[list]]:
    """Spans by op: by their own id, or — with ``windows`` of ``(op, start,
    end)`` — by the window their start falls in (for id-less spans)."""
    ops: Dict[Any, List[list]] = {}
    if windows is None:
        for entry in spans:
            if entry[1] is not None:
                ops.setdefault(entry[1], []).append(entry)
        return ops
    starts = [window[1] for window in windows]
    for entry in spans:
        position = bisect.bisect_right(starts, entry[2]) - 1
        if position >= 0 and entry[2] <= windows[position][2]:
            ops.setdefault(windows[position][0], []).append(entry)
    return ops


def per_op(ops: Dict[Any, List[list]], name: str, inclusive: bool = False) -> List[float]:
    """Per op that called ``name``: the summed self (or inclusive) seconds."""
    values = []
    for entries in ops.values():
        total, seen = 0.0, False
        for entry in entries:
            if entry[0] == name:
                seen = True
                total += (entry[3] - entry[2]) if inclusive else entry[4]
        if seen:
            values.append(total)
    return values


def quantile_ms(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    import numpy as np

    return float(np.percentile(np.asarray(values) * 1000.0, q))
