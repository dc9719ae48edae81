"""Self-tests of the benchmark itself (not of the program it measures).

    python3 perfbench/selftest.py

* every workload runs end to end at tiny size, untraced and traced, with
  every output correct;
* every metric a run emits is declared in ``BENCHMARK.json``, and every
  declared metric is emitted;
* each workload's oracle flags a deliberately corrupted answer;
* the benchmark fails cleanly where there is no program to measure.

Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Record  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TinyRuns(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
        per_layer = {metric["name"] for metric in SPEC["per_layer"]}
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        for name in WORKLOADS:
            for trace, declared in (("0", end_to_end), ("1", per_layer)):
                with self.subTest(workload=name, trace=trace):
                    done = run_benchmark(
                        "--workload", name, "--seed", "3", "--seconds", "1",
                        "--trace", trace, "--tiny",
                    )
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout[-2000:])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), declared)

    def test_layer_table_matches_declaration(self):
        declared = [metric["name"] for metric in SPEC["per_layer"]]
        self.assertEqual(layers.names(), declared)
        units = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
        self.assertEqual({name: layers.unit(name) for name in declared}, units)

    def test_no_program_fails_cleanly(self):
        bare = ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = run_benchmark(
                "--workload", "hot-reads", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare
            )
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def result(estimate, **fields):
    return SimpleNamespace(estimate=estimate, **fields)


class OraclesFlagCorruption(unittest.TestCase):
    def assert_flags(self, workload, records, corrupt):
        self.assertEqual(workload.check(records), {}, "clean answers must pass")
        corrupt(records[-1])
        self.assertEqual(list(workload.check(records)), [len(records) - 1])

    def test_cold_exact(self):
        workload = WORKLOADS["cold-exact"](seed=5, tiny=True)
        records = []
        for index in range(len(workload.cycle)):
            op = workload.next_op(0, index)
            records.append(Record(0, index, op, output=result(float(workload.expected[op[0]]))))
        self.assert_flags(workload, records, lambda r: setattr(r.output, "estimate", r.output.estimate + 1))

    def test_hot_reads(self):
        workload = WORKLOADS["hot-reads"](seed=5)
        records = [
            Record(0, index, key, output=result(float(workload.expected[key[0]])))
            for index, key in enumerate(workload.keys)
        ]
        self.assert_flags(workload, records, lambda r: setattr(r.output, "estimate", r.output.estimate - 1))

    def test_live_updates(self):
        workload = WORKLOADS["live-updates"](seed=5, tiny=True)
        mirror = workload.database.copy()
        records = []
        for index in range(20):
            kind, relation, fact = workload.next_op(0, index)
            (mirror.add if kind == "insert" else mirror.remove)(relation, fact)
            pushed = [result(float(inputs.count_answers(q, mirror))) for q in workload.queries]
            records.append(Record(0, index, (kind, relation, fact), output=pushed))
        self.assert_flags(workload, records, lambda r: setattr(r.output[1], "estimate", r.output[1].estimate + 1))


if __name__ == "__main__":
    unittest.main(verbosity=2)
