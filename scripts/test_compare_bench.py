#!/usr/bin/env python3
"""Unit tests for the perf-trajectory comparator (scripts/compare_bench.py).

Exercised directly by the CI lint job (`python3 -m unittest discover -s
scripts`), so regressions in the gating logic fail before the build
matrix spends an hour discovering them the hard way. Each test builds a
baseline/current directory pair under a tempdir and asserts on the exit
code of `compare()` — the same entry point the workflow calls.
"""

import json
import os
import shutil
import tempfile
import unittest

import compare_bench

HOST_A = {
    "host_cpus": 8,
    "host_nproc": 8,
    "host_cpu_model": "TestCPU v1",
    "simd": "avx2",
}
HOST_B = {
    "host_cpus": 64,
    "host_nproc": 32,
    "host_cpu_model": "TestCPU v2",
    "simd": "avx2",
}
# Same machine as HOST_A but run with the scalar fallback forced
# (PARDPP_SIMD=scalar): timings across dispatch arms are advisory.
HOST_A_SCALAR = dict(HOST_A, simd="scalar")


def record(wall_ms, host=None, measured=None, **identity):
    """A role-declaring record: `identity` keys, `wall_ms` and `measured`
    as measurements, `host` fields as provenance."""
    entry = {"experiment": "unit", "family": "f", "pool": 1}
    entry.update(identity)
    roles = {"identity": sorted(entry)}
    entry["wall_ms"] = wall_ms
    entry.update(measured or {})
    roles["measurement"] = ["wall_ms"] + sorted(measured or {})
    entry.update(host or {})
    roles["provenance"] = sorted(host or {})
    entry["roles"] = roles
    return entry


def sweep_record(experiment, pool, speedup_q1, host_cpus=4):
    entry = record(10.0, dict(HOST_A, host_cpus=host_cpus),
                   experiment=experiment, pool=pool)
    entry["speedup_q1"] = speedup_q1
    entry["roles"]["gate"] = ["speedup_q1"]
    return entry


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="compare-bench-test-")
        self.addCleanup(shutil.rmtree, self.tmp, ignore_errors=True)

    def write_dir(self, name, records):
        directory = os.path.join(self.tmp, name)
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "BENCH_unit.json"), "w") as out:
            json.dump(records, out)
        return directory

    def compare(self, baseline, current, advisory=False):
        return compare_bench.compare(
            baseline, current, warn=0.10, fail=0.25, advisory=advisory
        )

    def test_missing_baseline_dir_is_not_gating(self):
        current = self.write_dir("current", [record(100.0, HOST_A)])
        missing = os.path.join(self.tmp, "does-not-exist")
        self.assertEqual(self.compare(missing, current), 0)

    def test_missing_current_records_fail(self):
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        empty = os.path.join(self.tmp, "empty")
        os.makedirs(empty)
        self.assertEqual(self.compare(baseline, empty), 1)

    def test_new_record_without_baseline_is_informational(self):
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir(
            "current",
            [record(100.0, HOST_A), record(5000.0, HOST_A, n=999)],
        )
        self.assertEqual(self.compare(baseline, current), 0)

    def test_same_host_regression_gates(self):
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir("current", [record(200.0, HOST_A)])
        self.assertEqual(self.compare(baseline, current), 1)

    def test_advisory_downgrades_regression_to_exit_zero(self):
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir("current", [record(200.0, HOST_A)])
        self.assertEqual(self.compare(baseline, current, advisory=True), 0)

    def test_host_mismatch_downgrades_regression_to_warning(self):
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir("current", [record(200.0, HOST_B)])
        self.assertEqual(self.compare(baseline, current), 0)

    def test_host_fields_are_not_identity(self):
        # A runner change must not orphan the record pair: the records
        # still match, and a within-threshold timing passes cleanly.
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir("current", [record(101.0, HOST_B)])
        self.assertEqual(self.compare(baseline, current), 0)

    def test_records_without_host_fields_still_gate(self):
        # Pre-provenance records (older snapshots) carry no host fields;
        # absence on either side must not be read as a mismatch.
        baseline = self.write_dir("baseline", [record(100.0)])
        current = self.write_dir("current", [record(200.0, HOST_A)])
        self.assertEqual(self.compare(baseline, current), 1)

    def test_simd_arm_mismatch_downgrades_regression_to_warning(self):
        # Same machine, but the current run forced the scalar fallback:
        # the slowdown is the arm, not a code regression.
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir("current", [record(200.0, HOST_A_SCALAR)])
        self.assertEqual(self.compare(baseline, current), 0)

    def test_scaling_regression_gates_on_matching_host_cpus(self):
        # Pool-4 wall clock is unchanged, but the pool-1 reference got
        # faster, so the parallel speedup collapsed 4.0x -> 2.0x. No
        # individual timing regresses; only the scaling gate can catch
        # this.
        baseline = self.write_dir(
            "baseline",
            [record(100.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        current = self.write_dir(
            "current",
            [record(50.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        self.assertEqual(self.compare(baseline, current), 1)
        self.assertEqual(self.compare(baseline, current, advisory=True), 0)

    def test_scaling_drop_across_host_cpus_is_advisory(self):
        # Same speedup collapse, but the runs disagree on host_cpus:
        # speedups from different core counts are never comparable.
        baseline = self.write_dir(
            "baseline",
            [record(100.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        current = self.write_dir(
            "current",
            [record(50.0, HOST_B, pool=1), record(25.0, HOST_B, pool=4)],
        )
        self.assertEqual(self.compare(baseline, current), 0)

    def test_scaling_improvement_passes(self):
        baseline = self.write_dir(
            "baseline",
            [record(100.0, HOST_A, pool=1), record(50.0, HOST_A, pool=4)],
        )
        current = self.write_dir(
            "current",
            [record(100.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        self.assertEqual(self.compare(baseline, current), 0)

    def test_scaling_without_pool1_reference_is_skipped(self):
        # A baseline that never recorded pool 1 yields no speedup to
        # compare against; the current run's scaling is informational.
        baseline = self.write_dir(
            "baseline", [record(25.0, HOST_A, pool=4)]
        )
        current = self.write_dir(
            "current",
            [record(1000.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        self.assertEqual(self.compare(baseline, current), 0)

    def test_scaling_speedups_groups_by_identity_minus_pool(self):
        records = compare_bench.load_records(
            self.write_dir(
                "out",
                [
                    record(100.0, HOST_A, pool=1, n=64),
                    record(25.0, HOST_A, pool=4, n=64),
                    record(200.0, HOST_A, pool=1, n=128),
                    record(40.0, HOST_A, pool=4, n=128),
                ],
            )
        )
        speedups = compare_bench.scaling_speedups(records)
        self.assertEqual(len(speedups), 2)
        by_n = {
            dict(rest)["n"]: speedup
            for (_, rest, _), (speedup, _) in speedups.items()
        }
        self.assertAlmostEqual(by_n[64], 4.0)
        self.assertAlmostEqual(by_n[128], 5.0)

    def test_snapshot_round_trip_keeps_scaling_gate_live(self):
        bench_dir = self.write_dir(
            "out",
            [record(100.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        snapshot = os.path.join(self.tmp, "BENCH_trajectory.json")
        self.assertEqual(compare_bench.write_snapshot(snapshot, bench_dir), 0)
        exploded = compare_bench.snapshot_as_baseline(
            snapshot, os.path.join(self.tmp, "exploded")
        )
        collapsed = self.write_dir(
            "collapsed",
            [record(50.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        self.assertEqual(self.compare(exploded, collapsed), 1)
        other_cpus = self.write_dir(
            "other-cpus",
            [record(50.0, HOST_B, pool=1), record(25.0, HOST_B, pool=4)],
        )
        self.assertEqual(self.compare(exploded, other_cpus), 0)

    def test_snapshot_round_trip_preserves_host_fields(self):
        bench_dir = self.write_dir("out", [record(100.0, HOST_A)])
        snapshot = os.path.join(self.tmp, "BENCH_trajectory.json")
        self.assertEqual(compare_bench.write_snapshot(snapshot, bench_dir), 0)
        with open(snapshot) as handle:
            entries = json.load(handle)
        self.assertEqual(len(entries), 1)
        for field in compare_bench.HOST_FIELDS:
            self.assertIn(field, entries[0])
        # Exploding the snapshot back into a baseline keeps the mismatch
        # machinery live: a regression on different hardware is advisory.
        exploded = compare_bench.snapshot_as_baseline(
            snapshot, os.path.join(self.tmp, "exploded")
        )
        current = self.write_dir("current", [record(200.0, HOST_B)])
        self.assertEqual(self.compare(exploded, current), 0)
        same_host = self.write_dir("same-host", [record(200.0, HOST_A)])
        self.assertEqual(self.compare(exploded, same_host), 1)

    def test_measurement_fields_never_become_identity(self):
        # Fields declared `measurement` (here serving telemetry that
        # depends on dispatch timing) differ between two runs of the same
        # config; the records must still pair. Its timings (`*_ms`) survive
        # the snapshot and gate a same-host slowdown; its other
        # measurements are not kept there.
        def serving(wall, persession, **stats):
            return record(wall, HOST_A,
                          dict(stats, persession_wall_ms=persession),
                          experiment="serving_coalescing", requests=16)

        bench_dir = self.write_dir(
            "out", [serving(30.0, 200.0, batches=4, queue_peak=12)]
        )
        snapshot = os.path.join(self.tmp, "BENCH_trajectory.json")
        self.assertEqual(compare_bench.write_snapshot(snapshot, bench_dir), 0)
        with open(snapshot) as handle:
            (entry,) = json.load(handle)
        self.assertEqual(entry["persession_wall_ms"], 200.0)
        self.assertNotIn("batches", entry)
        exploded = compare_bench.snapshot_as_baseline(
            snapshot, os.path.join(self.tmp, "exploded")
        )
        reshaped = self.write_dir(
            "reshaped", [serving(31.0, 201.0, batches=16, queue_peak=1)]
        )
        (key,) = compare_bench.load_records(reshaped)
        self.assertNotIn("batches", dict(key[1]))
        self.assertEqual(self.compare(exploded, reshaped), 0)
        slower = self.write_dir(
            "slower", [serving(30.0, 400.0, batches=4, queue_peak=12)]
        )
        self.assertEqual(self.compare(exploded, slower), 1)

    def test_field_without_a_role_is_rejected(self):
        stray = record(100.0, HOST_A)
        stray["speedup"] = 1.0  # present, but in no role list
        current = self.write_dir("current", [stray])
        with self.assertRaisesRegex(compare_bench.RecordError, "speedup"):
            compare_bench.load_records(current)
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        self.assertEqual(self.compare(baseline, current), 1)
        out = os.path.join(self.tmp, "BENCH_trajectory.json")
        self.assertEqual(compare_bench.write_snapshot(out, current), 1)

    def test_record_without_roles_is_rejected(self):
        bare = record(100.0, HOST_A)
        del bare["roles"]
        current = self.write_dir("current", [bare])
        self.assertEqual(
            self.compare(self.write_dir("base", [record(100.0)]), current), 1
        )
        # As a baseline it cannot be matched: warned, nothing gated.
        self.assertEqual(
            self.compare(current, self.write_dir("cur", [record(900.0)])), 0
        )

    def test_sweep_verdicts_gate_the_widest_fitting_pool_at_q1(self):
        verdicts = compare_bench.sweep_verdicts({
            index: entry for index, entry in enumerate([
                sweep_record("theorem10_thread_sweep", 1, 1.0),
                sweep_record("theorem10_thread_sweep", 2, 0.5),
                # Exactly at the bound passes.
                sweep_record("theorem10_thread_sweep", 4, 1.0),
                # Wider than the host's cores: not the gated pool.
                sweep_record("theorem10_thread_sweep", 8, 0.2),
                sweep_record("theorem41_thread_sweep", 2, 1.5),
                sweep_record("theorem41_thread_sweep", 4, 0.999),
            ])
        })
        self.assertEqual(verdicts["theorem10_thread_sweep"], (4, 1.0, True))
        self.assertEqual(
            verdicts["theorem41_thread_sweep"], (4, 0.999, False)
        )
        only_pool1 = compare_bench.sweep_verdicts(
            {0: sweep_record("theorem10_thread_sweep", 1, 1.0)}
        )
        self.assertIsNone(only_pool1["theorem10_thread_sweep"])
        self.assertIsNone(only_pool1["theorem41_thread_sweep"])

if __name__ == "__main__":
    unittest.main()
