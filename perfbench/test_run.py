#!/usr/bin/env python3
"""Tests of the benchmark's result checks.

    python3 perfbench/test_run.py

Run from the repository root. The check tests need no build; the
planted-reference test builds the benchmark and runs model_check once
(about ten seconds) against a reference with one wrong value.
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def proc(busy, mem, msync):
    misses = {"byClass": {"Data": {"Cold": 2, "Conf": 1, "Cohe": 0,
                                   "total": 3}},
              "byGroup": {"Data": 3}, "total": 3}
    return {"busy": busy, "memStall": mem, "syncStall": msync,
            "totalCycles": busy + mem + msync,
            "memStallByGroup": {"Data": mem, "Priv": 0},
            "reads": 10, "writes": 5,
            "l1Misses": copy.deepcopy(misses),
            "l2Misses": copy.deepcopy(misses)}


def replay(procs):
    agg = proc(sum(p["busy"] for p in procs),
               sum(p["memStall"] for p in procs),
               sum(p["syncStall"] for p in procs))
    agg["reads"] = sum(p["reads"] for p in procs)
    agg["writes"] = sum(p["writes"] for p in procs)
    for lvl in ("l1Misses", "l2Misses"):
        n = sum(p[lvl]["total"] for p in procs)
        agg[lvl] = {"byClass": {"Data": {"Cold": 2 * n // 3,
                                         "Conf": n // 3, "Cohe": 0,
                                         "total": n}},
                    "byGroup": {"Data": n}, "total": n}
    return {"procs": procs, "aggregate": agg,
            "executionTime": max(p["totalCycles"] for p in procs)}


def stream():
    rec = {"id": 0, "arrival": 0, "start": 5, "complete": 12, "service": 7,
           "wait": 5, "latency": 12, "trace_hash": 77}
    return {"config": {"instances": 1}, "records": [rec],
            "cache": {"hits": 0, "misses": 1}}


def search(states):
    return {"kind": "search", "key": "paper1997",
            "value": {"states": states, "transitions": 4, "depth": 2,
                      "violations": 0, "exhausted": True}}


class IdentityChecks(unittest.TestCase):
    def test_consistent_replay_passes(self):
        self.assertEqual(run.replay_errors(replay([proc(7, 3, 1),
                                                   proc(5, 4, 2)])), [])

    def test_time_that_is_not_busy_plus_mem_plus_msync_fails(self):
        v = replay([proc(7, 3, 1), proc(5, 4, 2)])
        v["procs"][1]["totalCycles"] += 1
        self.assertTrue(run.replay_errors(v))

    def test_class_misses_that_miss_the_total_fail(self):
        v = replay([proc(7, 3, 1)])
        v["procs"][0]["l2Misses"]["byClass"]["Data"]["Cold"] += 1
        self.assertTrue(run.replay_errors(v))

    def test_latency_that_is_not_wait_plus_service_fails(self):
        v = stream()
        self.assertEqual(run.stream_errors(v, [77]), [])
        v["records"][0]["latency"] += 1
        self.assertTrue(run.stream_errors(v, [77]))

    def test_trace_hash_that_is_not_its_cached_traces_fails(self):
        self.assertTrue(run.stream_errors(stream(), [78]))
        self.assertTrue(run.stream_errors(stream(), [0]))
        self.assertTrue(run.stream_errors(stream(), []))

    def test_search_with_a_violation_fails(self):
        v = search(3)["value"]
        self.assertEqual(run.search_errors(v), [])
        v["violations"] = 1
        self.assertTrue(run.search_errors(v))


class RepeatChecks(unittest.TestCase):
    def test_result_that_differs_from_the_first_iteration_fails(self):
        first = {"kind": "replay", "key": "Q6/64B",
                 "value": replay([proc(7, 3, 1)])}
        again = copy.deepcopy(first)
        self.assertEqual(run.check({"workload": "paper_sweep", "seed": 2,
                                    "results": [first, again]}, None),
                         (2, 0))
        # Identities still hold: only the class's miss types moved.
        row = again["value"]["procs"][0]["l2Misses"]["byClass"]["Data"]
        row["Cold"] -= 1
        row["Conf"] += 1
        self.assertEqual(run.replay_errors(again["value"]), [])
        self.assertEqual(run.check({"workload": "paper_sweep", "seed": 2,
                                    "results": [first, again]}, None),
                         (2, 1))

    def test_seedless_workload_is_held_to_its_reference_at_any_seed(self):
        ref = {"seed": 1, "workloads": {"model_check": {"paper1997": {
            "states": 3, "transitions": 4, "depth": 2}}}}
        doc = {"workload": "model_check", "seed": 9,
               "results": [search(3)]}
        self.assertEqual(run.check(doc, ref), (1, 0))
        doc["results"] = [search(4)]
        self.assertEqual(run.check(doc, ref), (1, 1))


class PlantedReference(unittest.TestCase):
    def test_one_wrong_reference_value_drops_ok_share(self):
        with open(run.REFERENCE) as f:
            planted = json.load(f)
        planted["workloads"]["model_check"]["paper1997"]["states"] += 1
        run.build()
        _, failed, metrics = run.run("model_check", planted["seed"], 1, 0,
                                     planted)
        self.assertGreater(failed, 0)
        self.assertLess(metrics["ok_share"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
