#!/usr/bin/env python3
"""Tests of the repo benchmark's own code.

    python3 perfbench/test_perfbench.py            # fast checks
    python3 perfbench/test_perfbench.py --slow     # + same-seed determinism

Run from the repository root. Builds the benchmark like run.py, then:
  - runs perfbench_selftest (percentile rule with sample counts, quartile
    spread, span self time, name rule);
  - checks that every workload and metric name and unit the driver prints
    matches BENCHMARK.json and the allowed character sets;
  - with --slow, runs train_pressure twice with one seed, traced and
    untraced, and checks that every virtual metric and per-layer count is
    bit-identical and that failed_frac is 0 and the fault plan fired.
"""
import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics measured on the host clock; every other metric is a
# count or a virtual-time figure and must repeat exactly for one seed.
HOST_TIMED = {"cache.host_us_per_call", "cache.preload_host_s",
              "prefetch.host_us_per_epoch", "shuffle.plan_host_ms",
              "core.put_host_us", "core.flush_host_us", "core.stat_host_us",
              "core.list_host_us", "core.snapshot_host_ms",
              "obs.bench_trace_overhead_frac"}
E2E_HOST = {"setup_s", "host_ops_per_s", "peak_rss_mb"}

OUT = run.build(["perfbench_driver", "perfbench_selftest"])


def driver(*args):
    cmd = [os.path.join(OUT, "perfbench_driver"), *args]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=170).stdout


def result(*args):
    return json.loads(driver(*args).rstrip("\n").split("\n")[-1])


class PureCode(unittest.TestCase):
    def test_selftest(self):
        subprocess.run([os.path.join(OUT, "perfbench_selftest")], check=True)


class Names(unittest.TestCase):
    def setUp(self):
        with open("BENCHMARK.json") as f:
            self.spec = json.load(f)
        self.listed = {"workload": [], "end_to_end": [], "per_layer": []}
        for line in driver("--list").splitlines():
            kind, *rest = line.split()
            self.listed[kind].append(tuple(rest))

    def test_workloads_match(self):
        self.assertEqual([(w["name"],) for w in self.spec["workloads"]],
                         self.listed["workload"])

    def test_metrics_match(self):
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual([(m["name"], m["unit"]) for m in self.spec[kind]],
                             self.listed[kind], kind)

    def test_character_sets(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            for m in self.spec[kind]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_setup_metric(self):
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


@unittest.skipUnless("--slow" in sys.argv, "pass --slow to run")
class Determinism(unittest.TestCase):
    def test_same_seed_repeats(self):
        for trace, host in (("0", E2E_HOST), ("1", HOST_TIMED)):
            a, b = (result("--workload", "train_pressure", "--seed", "7",
                           "--seconds", "1", "--trace", trace)
                    for _ in range(2))
            for name, v in a["metrics"].items():
                if name not in host:
                    self.assertEqual(v["value"], b["metrics"][name]["value"],
                                     name)
            self.assertTrue(a["correct"] and b["correct"])
            if trace == "1":
                m = a["metrics"]
                self.assertEqual(m["failed_frac"]["value"], 0)
                self.assertGreater(m["net.drops"]["value"], 0)
                self.assertGreater(m["cache.corruptions_detected"]["value"], 0)
                self.assertGreater(m["net.flap_rejects"]["value"], 0)


if __name__ == "__main__":
    unittest.main(argv=[a for a in sys.argv if a != "--slow"])
