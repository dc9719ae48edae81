"""The per-layer table: self time per op from the spans, plus counters.

Timings are p50/p90 over the ops that entered the layer, of the summed
self time of that layer's spans in the op (``service.submit_ms`` and
``serve.dispatch_wait_ms`` are inclusive).  A layer an op never entered is
reported as 0.  Counter ratios come from ``/v1/stats`` and ``/v1/metrics``
scraped around the untraced phase.  Each row names the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

from typing import Dict, List

from spans import group, per_op, quantile_ms

HOT = "latency_p50_ms / throughput_ops on hot-reads"
COLD = "latency_p50_ms / latency_p90_ms on cold-exact"
LIVE = "latency_p50_ms on live-updates"

#: (metric, span name, inclusive, which process recorded it, what it moves)
TIMINGS = (
    ("serve.decode_ms", "serve.decode", False, "server", HOT),
    ("serve.encode_ms", "serve.encode", False, "server", HOT),
    ("serve.admission_ms", "serve.admission", False, "server", HOT),
    ("serve.coalesce_key_ms", "serve.coalesce_key", False, "server", HOT),
    ("serve.dispatch_wait_ms", "serve.dispatch_wait", True, "server", HOT),
    ("client.encode_ms", "client.encode", False, "client", HOT),
    ("client.decode_ms", "client.decode", False, "client", HOT),
    ("service.submit_ms", "service.submit", True, "server", HOT),
    ("service.self_ms", "service.submit", False, "server", HOT),
    ("service.plan_ms", "service.plan", False, "server", HOT),
    ("queries.parse_ms", "queries.parse", False, "server", HOT),
    ("queries.prepare_ms", "queries.prepare", False, "server", HOT),
    ("core.scheme_ms.exact", "core.scheme.exact", False, "server", COLD),
    ("relational.csp.propagate_ms", "relational.csp.propagate", False, "server", COLD),
    ("stream.refresh_ms", "stream.refresh", False, "server", LIVE),
    ("stream.delta_ms", "stream.delta", False, "server", LIVE),
    ("relational.write_ms", "relational.write", False, "server", LIVE),
)

#: (metric, unit, what it moves) for the values that are not span timings.
OTHERS = (
    ("wire.transport_ms.p50", "ms", HOT),
    ("wire.transport_ms.p90", "ms", HOT),
    ("serve.request_ms.mean", "ms", HOT),
    ("serve.coalesced_ratio", "ratio", HOT),
    ("serve.rejections", "count", HOT),
    ("service.result_cache.hit_ratio", "ratio", HOT),
    ("service.plan_cache.hit_ratio", "ratio", HOT),
    ("queries.prepared_cache.hit_ratio", "ratio", HOT),
    ("relational.csp.instances", "count", COLD),
    ("core.exact.answers_per_solution", "ratio", "latency_p50_ms on cold-exact"),
    ("stream.delta_ratio", "ratio", LIVE),
    ("serve.facts_ack_ms.p50", "ms", LIVE),
    ("serve.facts_ack_ms.p90", "ms", LIVE),
    ("serve.sse_push_ms.p50", "ms", LIVE),
    ("serve.sse_push_ms.p90", "ms", LIVE),
    ("obs.trace_overhead_ratio", "ratio", "none (cost of tracing itself)"),
)


def names() -> List[str]:
    """Every per-layer metric name, in table order."""
    timed = [f"{metric}.{q}" for metric, *_ in TIMINGS for q in ("p50", "p90")]
    return timed + [metric for metric, *_ in OTHERS]


def unit(name: str) -> str:
    for metric, metric_unit, _ in OTHERS:
        if metric == name:
            return metric_unit
    return "ms"


def moves(name: str) -> str:
    for metric, *_, target in TIMINGS + tuple((m, t) for m, _, t in OTHERS):
        if name.startswith(metric):
            return target
    return ""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload, untraced, traced, client_spans) -> Dict[str, float]:
    """Every metric of :func:`names` for one workload's pair of phases."""
    records = [r for r in traced.records if r.error is None]
    windows = sorted((r.index, r.start, r.end) for r in records)
    if workload.name == "live-updates":
        server_ops = group(traced.spans, windows)
        for window in windows:
            server_ops.setdefault(window[0], [])
    else:
        by_id = group(traced.spans)
        served = [
            op
            for op, entries in by_id.items()
            if any(e[0] == "serve.decode" and e[5] and e[2] >= traced.begin for e in entries)
        ]
        server_ops = {op: by_id[op] for op in served}
    client_ops = group(client_spans)
    out: Dict[str, float] = {}
    for metric, span_name, inclusive, side, _ in TIMINGS:
        values = per_op(server_ops if side == "server" else client_ops, span_name, inclusive)
        out[f"{metric}.p50"] = quantile_ms(values, 50)
        out[f"{metric}.p90"] = quantile_ms(values, 90)

    transport = _transport(server_ops, client_ops)
    out["wire.transport_ms.p50"] = quantile_ms(transport, 50)
    out["wire.transport_ms.p90"] = quantile_ms(transport, 90)

    counters = untraced.counters
    endpoint = "/v1/facts" if workload.name == "live-updates" else "/v1/count"
    label = f'{{endpoint="{endpoint}"}}'
    out["serve.request_ms.mean"] = 1000.0 * _ratio(
        counters.get(f"repro_serve_request_seconds_sum{label}", 0.0),
        counters.get(f"repro_serve_request_seconds_count{label}", 0.0),
    )
    requests = counters.get(f"repro_serve_request_seconds_count{label}", 0.0)
    out["serve.coalesced_ratio"] = _ratio(counters.get("repro_serve_coalesced", 0.0), requests)
    out["serve.rejections"] = sum(v for k, v in counters.items() if k.startswith("repro_serve_rejections"))
    for cache in ("result", "plan"):
        hits, misses = counters.get(f"{cache}.hits", 0.0), counters.get(f"{cache}.misses", 0.0)
        out[f"service.{cache}_cache.hit_ratio"] = _ratio(hits, hits + misses)
    lookups = [e[5] for entries in server_ops.values() for e in entries if e[0] == "queries.prepared_cache"]
    out["queries.prepared_cache.hit_ratio"] = _ratio(sum(lookups), len(lookups))

    ops = len(server_ops)
    instances = sum(1 for entries in server_ops.values() for e in entries if e[0] == "relational.csp.instance")
    out["relational.csp.instances"] = _ratio(instances, ops)
    out["core.exact.answers_per_solution"] = (
        workload.answers_per_solution() if hasattr(workload, "answers_per_solution") else 0.0
    )
    refreshes = {k: v for k, v in counters.items() if k.startswith("repro_stream_refreshes")}
    out["stream.delta_ratio"] = _ratio(
        refreshes.get('repro_stream_refreshes{mode="delta"}', 0.0), sum(refreshes.values())
    )
    live = [r for r in records if r.acked]
    out["serve.facts_ack_ms.p50"] = quantile_ms([r.acked - r.start for r in live], 50)
    out["serve.facts_ack_ms.p90"] = quantile_ms([r.acked - r.start for r in live], 90)
    out["serve.sse_push_ms.p50"] = quantile_ms([r.end - r.acked for r in live], 50)
    out["serve.sse_push_ms.p90"] = quantile_ms([r.end - r.acked for r in live], 90)
    out["obs.trace_overhead_ratio"] = _ratio(
        quantile_ms([r.end - r.start for r in traced.records], 50),
        quantile_ms([r.end - r.start for r in untraced.records], 50),
    )
    return out


def _transport(server_ops, client_ops) -> List[float]:
    """Client round trip minus the server's time on the same request, paired
    by (query, seed) and by the server interval lying inside the client's."""
    served: Dict[tuple, List[tuple]] = {}
    for entries in server_ops.values():
        key = next((tuple(e[5]) for e in entries if e[0] == "serve.decode" and e[5]), None)
        request = next((e for e in entries if e[0] == "serve.request"), None)
        if key is not None and request is not None:
            served.setdefault(key, []).append((request[2], request[3]))
    values = []
    for entries in client_ops.values():
        key = next((tuple(e[5]) for e in entries if e[0] == "client.encode" and e[5]), None)
        trip = next((e for e in entries if e[0] == "client.roundtrip"), None)
        if key is None or trip is None:
            continue
        for start, end in served.get(key, ()):
            if trip[2] <= start and end <= trip[3]:
                values.append((trip[3] - trip[2]) - (end - start))
                break
    return values


def print_table(workload, metrics: Dict[str, float]) -> None:
    print(f"  per-layer ({workload.name}; ms are self time per op)")
    for name in names():
        print(f"  {name:<36} {metrics[name]:>12.4f} {unit(name):<6} -> {moves(name)}")


def print_counters(workload, phase) -> None:
    counters = phase.counters
    hits, misses = counters.get("result.hits", 0.0), counters.get("result.misses", 0.0)
    print(
        f"  {len(phase.records)} ops in {phase.elapsed:.2f} s; result cache "
        f"{hits:.0f} hits / {misses:.0f} misses; setups {[round(s, 3) for s in phase.setup_seconds]}"
    )
