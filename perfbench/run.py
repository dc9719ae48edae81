"""Run one benchmark workload against a freshly launched server.

    python3 perfbench/run.py --workload hot-reads --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice, untraced and then traced (same ops), and prints the
per-layer table.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from spans import quantile_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Servers launched per untraced run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Phase:
    """One server's timed phase and what was measured around it."""

    records: list
    begin: float
    elapsed: float
    setup_seconds: List[float]
    rss_mb: float
    counters: Dict[str, float]
    spans: List[list] = field(default_factory=list)


# ------------------------------------------------------------------- scraping
def scrape(client) -> Dict[str, float]:
    """Counters from ``/v1/stats`` and ``/v1/metrics`` (Prometheus text)."""
    counters: Dict[str, float] = {}
    caches = client.stats()["service"]["caches"]
    for cache in ("plan", "result"):
        counters[f"{cache}.hits"] = caches[cache]["hits"]
        counters[f"{cache}.misses"] = caches[cache]["misses"]
    for line in client.metrics_text().splitlines():
        match = re.match(r"^(repro_[a-z_]+)(\{[^}]*\})? ([-+0-9.eE]+)$", line)
        if match:
            name, labels = match.group(1), match.group(2) or ""
            if "quantile" not in labels:
                counters[name + labels] = counters.get(name + labels, 0.0) + float(match.group(3))
    return counters


def difference(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


# --------------------------------------------------------------------- phases
def run_phase(workload, database: Path, workdir: Path, seconds: float, setups: int, trace: bool) -> Phase:
    """Launch ``setups`` servers one after another (keeping the last), warm
    each, then run the closed loop on the last one."""
    from workloads import Server, closed_loop

    setup_seconds = []
    for attempt in range(setups):
        started = time.perf_counter()
        server = Server(database, workdir, trace)
        try:
            workload.warm(server)
        except BaseException:
            server.stop()
            workload.close()
            raise
        setup_seconds.append(time.perf_counter() - started)
        if attempt < setups - 1:
            server.stop()
            workload.close()
    try:
        client = server.client()
        before = scrape(client)
        records, begin, elapsed = closed_loop(
            workload.threads,
            seconds,
            workload.next_op,
            lambda op, record: workload.run_op(client, op, record),
        )
        counters = difference(before, scrape(client))
        rss_mb = server.peak_rss_mb()
    finally:
        spans = server.stop()
        workload.close()
    return Phase(records, begin, elapsed, setup_seconds, rss_mb, counters, spans)


def end_to_end(phase: Phase, failures: int) -> Dict[str, float]:
    latencies = [r.end - r.start for r in phase.records]
    attempted = len(phase.records)
    return {
        "latency_p50_ms": quantile_ms(latencies, 50),
        "latency_p90_ms": quantile_ms(latencies, 90),
        "throughput_ops": attempted / phase.elapsed,
        "success_rate": 1.0 - failures / attempted,
        "server_rss_mb": phase.rss_mb,
        "setup_s": statistics.median(phase.setup_seconds),
    }


UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops": "1/s",
    "success_rate": "ratio",
    "server_rss_mb": "MB",
    "setup_s": "s",
}


def failed_ops(workload, records, only=None) -> Dict[int, str]:
    failures = {
        i: r.error
        for i, r in enumerate(records)
        if r.error is not None and (only is None or i in only)
    }
    failures.update(workload.check(records, only))
    return failures


def run(args, workdir: Path) -> Dict[str, Any]:
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](seed=args.seed, tiny=args.tiny)
    database = workdir / "database.json"
    database.write_text(workload.database.to_json())
    nproc = os.cpu_count() or 1
    header = (
        f"workload {workload.name}  seed {args.seed}  nproc {nproc} (pinned to 1)  "
        f"{workload.threads} client thread(s), closed loop, {args.seconds} s"
    )
    print(header)

    if not args.trace:
        phase = run_phase(workload, database, workdir, args.seconds, SETUPS, trace=False)
        failures = failed_ops(workload, phase.records)
        metrics = end_to_end(phase, len(failures))
        attempted = len(phase.records)
        layers.print_counters(workload, phase)
        record = {"workload": workload.name, "seed": args.seed, "nproc": nproc, "ops": attempted}
        record.update(metrics)
        record["error_rate"] = 1.0 - metrics["success_rate"]
        for name, value in metrics.items():
            print(f"  {name:<24} {value:>14.4f} {UNITS[name]}")
        _print_failures(failures, phase.records)
        print("record " + json.dumps(record))
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        }

    untraced = run_phase(workload, database, workdir, args.seconds, 1, trace=False)
    from spans import Recorder, install_client

    recorder = Recorder()
    install_client(recorder)
    traced = run_phase(workload, database, workdir, args.seconds, 1, trace=True)
    failures = failed_ops(workload, untraced.records)
    # Tracing must not change an estimate: every op both runs made must agree.
    # Ops only the traced run reached are checked by the oracle instead.
    reference = {(r.thread, r.index): workload.identity(r) for r in untraced.records}
    extra = set()
    drifted = 0
    for position, record in enumerate(traced.records):
        key = (record.thread, record.index)
        if key not in reference:
            extra.add(position)
        elif record.error is None and workload.identity(record) != reference[key]:
            drifted += 1
    extra_failures = failed_ops(workload, traced.records, extra) if extra else {}
    attempted = len(untraced.records) + len(traced.records)
    failed = len(failures) + len(extra_failures) + drifted
    metrics = layers.per_layer(workload, untraced, traced, recorder.spans)
    layers.print_table(workload, metrics)
    dump = ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.json"
    dump.write_text(json.dumps({"server": traced.spans, "client": recorder.spans}))
    print(f"  span dump: {dump.relative_to(ROOT)}")
    print(
        f"  estimates traced vs untraced: {len(traced.records) - len(extra)} ops compared, "
        f"{drifted} differ"
    )
    _print_failures(failures, untraced.records)
    print(
        "record "
        + json.dumps({"workload": workload.name, "seed": args.seed, "nproc": nproc, "ops": attempted})
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": layers.unit(name)} for name, value in metrics.items()
        },
    }


def _print_failures(failures: Dict[int, str], records) -> None:
    for position, reason in list(failures.items())[:5]:
        print(f"  FAILED op {records[position].op!r}: {reason}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark ({ROOT / 'src' / 'repro'} is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    # The load generator and the server it launches (which inherits the
    # mask) share one CPU.  Every op hands control back and forth between
    # the two processes; across two CPUs each hand-off wakes an idle virtual
    # CPU, and on a shared host those wake-ups made latencies swing 2x from
    # run to run.  On one CPU a hand-off is a local context switch.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
