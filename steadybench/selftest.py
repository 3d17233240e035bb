"""Self-tests of the benchmark itself.

    python3 steadybench/run.py --self-test

Checks that seeds permute op order and never the op set, that serve-mix
holds the same misses under every seed, that ``expected.json`` covers every
op, that the children's environment is scrubbed, and (slowest) that the
smoke mode passes on every workload.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops as bench_ops  # noqa: E402
import run as bench_run  # noqa: E402

ROUNDS = 6


def _key(item) -> str:
    op, request, kind = item
    return f"{op.name}|{kind}|{json.dumps(request, sort_keys=True)}"


class ScheduleTest(unittest.TestCase):

    def test_seeds_permute_order_never_the_set(self):
        for workload in bench_ops.WORKLOADS:
            first = bench_ops.schedule(workload, 1, ROUNDS)
            second = bench_ops.schedule(workload, 2, ROUNDS)
            self.assertNotEqual([[_key(i) for i in r] for r in first],
                                [[_key(i) for i in r] for r in second],
                                workload)
            for one, two in zip(first, second):
                self.assertEqual(collections.Counter(map(_key, one)),
                                 collections.Counter(map(_key, two)),
                                 workload)

    def test_same_seed_same_schedule(self):
        for workload in bench_ops.WORKLOADS:
            self.assertEqual(
                [[_key(i) for i in r]
                 for r in bench_ops.schedule(workload, 7, ROUNDS)],
                [[_key(i) for i in r]
                 for r in bench_ops.schedule(workload, 7, ROUNDS)])

    def test_serve_mix_misses_are_one_in_ten_and_seed_independent(self):
        per_seed = []
        for seed in (1, 2, 3):
            rounds = bench_ops.schedule("serve-mix", seed, ROUNDS)
            misses = [json.dumps(request, sort_keys=True)
                      for round_ops in rounds
                      for _op, request, kind in round_ops if kind == "miss"]
            for round_ops in rounds:
                kinds = collections.Counter(k for _o, _r, k in round_ops)
                self.assertEqual(kinds["hit"], 9 * kinds["miss"])
            # Every miss is new: no request repeats across rounds.
            self.assertEqual(len(misses), len(set(misses)))
            per_seed.append(misses)
        # The same misses in the same order: the daemon's worker runs the
        # same request sequence under every seed.
        self.assertEqual(per_seed[0], per_seed[1])
        self.assertEqual(per_seed[0], per_seed[2])

    def test_round_count_depends_on_seconds_only(self):
        for workload in bench_ops.WORKLOADS:
            counts = [bench_ops.round_count(workload, seconds)
                      for seconds in range(1, 61)]
            self.assertEqual(counts, sorted(counts))
            self.assertGreaterEqual(counts[0], bench_ops.MIN_ROUNDS)


class ExpectedTest(unittest.TestCase):

    def test_expected_file_covers_every_op(self):
        with open(os.path.join(HERE, "expected.json"),
                  encoding="utf-8") as handle:
            document = json.load(handle)
        ops = bench_ops.all_ops()
        self.assertEqual(sorted(document["ops"]), sorted(ops))
        for name, op in ops.items():
            self.assertEqual(document["ops"][name]["request"], op.request)

    def test_digest_ignores_spec_only(self):
        payload = {"spec": {"seed": 1}, "stat": {"counts": [1]}}
        salted = dict(payload, spec={"seed": 2})
        changed = dict(payload, stat={"counts": [2]})
        self.assertEqual(bench_ops.digest(payload), bench_ops.digest(salted))
        self.assertNotEqual(bench_ops.digest(payload),
                            bench_ops.digest(changed))


class EnvironmentTest(unittest.TestCase):

    def test_stray_knobs_do_not_reach_children(self):
        stray = {"REPRO_FAULTS": "pool.worker_crash:rate=1",
                 "REPRO_VERIFY_IR": "1", "REPRO_DISK_CACHE": "off",
                 "REPRO_CACHE_DIR": "/elsewhere", "MPERF_INSTRUMENT": "1",
                 "PYTHONDONTWRITEBYTECODE": "1", "PYTHONOPTIMIZE": "2"}
        with mock.patch.dict(os.environ, stray):
            env = bench_run.scrubbed_env("work", "work/store")
        for name in stray:
            if name != "REPRO_CACHE_DIR":
                self.assertNotIn(name, env)
        self.assertEqual(env["REPRO_CACHE_DIR"], "work/store")


class SmokeTest(unittest.TestCase):

    def test_smoke_mode_passes_on_every_workload(self):
        result = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
            cwd=bench_run.ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertEqual(result.stdout.count(" ok"),
                         len(bench_ops.WORKLOADS), result.stdout)


if __name__ == "__main__":
    unittest.main()
