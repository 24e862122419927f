"""Tests of the benchmark itself.

  python3 perfbench/test_perfbench.py            # checks + smoke runs
  python3 perfbench/test_perfbench.py CheckTest  # checks only, no build

CheckTest feeds every correctness check a hand-corrupted response, which it
must reject. SmokeTest runs all three workloads end to end at tiny sizes
(building the daemons first if needed) and makes sure no daemon outlives a
run, including one stopped by SIGTERM.
"""

import copy
import json
import os
import signal
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402


def valid_plan():
    """Three photos: 0 and 2 retained, 1 archived; two subsets."""
    rows = [{"subset": "a", "weight": 2.0, "coverage": 0.75,
             "retained_members": 1, "total_members": 2},
            {"subset": "b", "weight": 1.0, "coverage": 1.0,
             "retained_members": 1, "total_members": 1}]
    return {"retained": [0, 2], "archived": [1], "retained_bytes": 30,
            "archived_bytes": 20, "score": 2.5, "max_score": 3.0,
            "score_fraction": 2.5 / 3.0,
            "online_bound": {"upper_bound": 2.9}, "coverage": rows}


class CheckTest(unittest.TestCase):
    def accept(self, plan):
        checks.check_plan(plan, num_photos=3, total_bytes=50, budget=30)

    def reject(self, plan):
        with self.assertRaises(checks.CheckError):
            self.accept(plan)

    def test_valid_plan_passes(self):
        self.accept(valid_plan())

    def test_dropped_photo(self):
        plan = valid_plan()
        plan["archived"] = []
        self.reject(plan)

    def test_duplicated_photo(self):
        plan = valid_plan()
        plan["archived"] = [1, 2]
        self.reject(plan)
        plan = valid_plan()
        plan["retained"] = [0, 2, 2]
        self.reject(plan)

    def test_retained_over_budget(self):
        plan = valid_plan()
        plan["retained_bytes"], plan["archived_bytes"] = 31, 19
        self.reject(plan)

    def test_bytes_disagree_with_session_total(self):
        plan = valid_plan()
        plan["archived_bytes"] = 21
        self.reject(plan)

    def test_coverage_disagrees_with_score(self):
        plan = valid_plan()
        plan["coverage"][0]["coverage"] = 0.7
        self.reject(plan)

    def test_weights_disagree_with_max_score(self):
        plan = valid_plan()
        plan["coverage"].pop()
        self.reject(plan)

    def test_score_above_online_bound(self):
        plan = valid_plan()
        plan["online_bound"]["upper_bound"] = 2.4
        self.reject(plan)

    def test_direct_score_mismatch(self):
        plan = valid_plan()
        checks.check_direct_score(plan, {"score": 2.5, "max_score": 3.0})
        with self.assertRaises(checks.CheckError):
            checks.check_direct_score(plan, {"score": 2.4, "max_score": 3.0})

    def test_cache_hit_with_other_retained_list(self):
        hit = valid_plan()
        hit["retained"] = [0, 1]
        with self.assertRaises(checks.CheckError):
            checks.check_same_retained(hit, valid_plan(), "hit")

    def test_acked_batch_missing_after_recovery(self):
        flush = {"pending_photos": 0, "num_photos": 1090}
        checks.check_recovered(flush, expected_photos=1090)
        with self.assertRaises(checks.CheckError):
            checks.check_recovered(dict(flush, num_photos=1080), 1090)
        with self.assertRaises(checks.CheckError):
            checks.check_recovered(dict(flush, num_photos=1100), 1090)
        with self.assertRaises(checks.CheckError):
            checks.check_recovered(dict(flush, pending_photos=10), 1090)

    def test_incremental_plan_skips_only_coverage(self):
        plan = copy.deepcopy(valid_plan())
        plan["coverage"] = []
        checks.check_plan(plan, 3, 50, 30, coverage=False)
        plan["archived"] = []
        with self.assertRaises(checks.CheckError):
            checks.check_plan(plan, 3, 50, 30, coverage=False)


def daemons_in(directory):
    """Pids of live processes whose working directory is `directory`."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if os.readlink(f"/proc/{entry}/cwd") == directory:
                pids.append(int(entry))
        except OSError:
            continue
    return pids


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.end_to_end = {m["name"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"] for m in spec["per_layer"]}

    def run_bench(self, workload, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_workloads_end_to_end(self):
        for workload in ("plan", "ingest", "browse"):
            with self.subTest(workload=workload):
                result = self.run_bench(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), self.end_to_end)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_reports_every_layer(self):
        result = self.run_bench("ingest", 1)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), self.per_layer)

    def test_sigterm_reaps_daemons(self):
        runs = os.path.join(ROOT, ".bench_run")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "browse", "--seed", "4", "--seconds", "30", "--trace", "0",
             "--smoke"], cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        run_dir = os.path.join(runs, f"browse-4-{proc.pid}")
        deadline = time.time() + 600
        while not daemons_in(run_dir) and time.time() < deadline:
            time.sleep(0.2)
        self.assertTrue(daemons_in(run_dir), "no daemon started")
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(daemons_in(run_dir), [])


if __name__ == "__main__":
    unittest.main()
