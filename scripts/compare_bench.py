#!/usr/bin/env python3
"""Perf-trajectory comparator for BENCH_*.json series.

Every bench emits a JSON array of flat records into bench-out/, and every
record declares each field's role (bench/bench_util.h JsonSeries):
identity, measurement, gate or provenance. A record with a field of no
declared role is rejected. Records of a baseline and a current run are
matched by their identity fields, and their timings — the measurement
fields named `*_ms` — are compared as ratios:

    ratio = current / baseline
    ratio > 1 + warn_threshold  -> warning  (::warning in GitHub Actions)
    ratio > 1 + fail_threshold  -> failure  (exit 1, ::error)

Faster-than-baseline records and records present on only one side are
reported informationally. `--advisory` downgrades failures to warnings —
the mode for comparing against the in-repo BENCH_trajectory.json
snapshot, which is recorded on a different machine class than the CI
runners.

Parallel scaling is a first-class trajectory metric: records that carry
a `pool` identity field are grouped by identity-minus-pool, each pool's
speedup over the group's pool-1 record is computed from `wall_ms`, and
the speedups are compared between baseline and current. A scaling drop
beyond the thresholds gates — but only when `host_cpus` agree on both
sides; speedups measured on different core counts are never comparable,
so a mismatch downgrades the drop to advisory.

Snapshot mode (`--write-snapshot FILE DIR`) curates the trajectory file
tracked in-repo: every field but the non-timing measurements, sorted by
key, so the diff of a PR shows which timings and gate statistics moved.
"""

import argparse
import json
import os
import sys

ROLES = ("identity", "measurement", "gate", "provenance")

# Host provenance fields stamped into every record by bench_util.h. A
# mismatch between baseline and current host downgrades fail-level
# slowdowns to warnings, because wall-clock deltas measured on different
# hardware are advisory, not evidence of a code regression. `simd` (the
# dispatch arm the run selected) counts for the same reason: a
# scalar-forced run is not comparable to an AVX2 run.
HOST_FIELDS = ("host_cpus", "host_nproc", "host_cpu_model", "simd")


class RecordError(ValueError):
    """A record whose fields do not each declare exactly one role."""


def field_roles(record):
    """-> {field: role}, from the record's "roles" object.

    Raises RecordError unless every field of the record has exactly one
    of the ROLES.
    """
    roles = record.get("roles")
    if not isinstance(roles, dict) or not set(roles) <= set(ROLES):
        raise RecordError(f"record declares no valid field roles: {roles!r}")
    declared = {field: role for role, fields in roles.items()
                for field in fields}
    undeclared = sorted(set(record) - {"roles"} - set(declared))
    if undeclared or len(declared) < sum(map(len, roles.values())):
        raise RecordError(f"fields without exactly one role: {undeclared}")
    return declared


def timing_fields(record):
    """The record's timings: its measurement fields in milliseconds."""
    roles = field_roles(record)
    return sorted(field for field in record
                  if roles.get(field) == "measurement"
                  and field.endswith("_ms"))


def load_records(directory):
    """-> {(file, identity-key): record} for all BENCH_*.json.

    Raises RecordError (naming the file) on a record that fails
    field_roles.
    """
    records = {}
    if not os.path.isdir(directory):
        return records
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path) as handle:
                series = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"::warning::could not parse {path}: {error}")
            continue
        for record in series:
            try:
                roles = field_roles(record)
            except RecordError as error:
                raise RecordError(f"{path}: {error}") from None
            identity = tuple(
                sorted(
                    (field, value) for field, value in record.items()
                    if roles.get(field) == "identity"
                )
            )
            records[(name, identity)] = record
    return records


def host_mismatch(base, record):
    """True when both records carry a host field and they disagree."""
    return any(
        field in base and field in record
        and str(base[field]) != str(record[field])
        for field in HOST_FIELDS
    )


def cpus_match(base, record):
    """True only when both records agree on host_cpus.

    Stricter than `not host_mismatch`: parallel-scaling comparisons need
    a positively matching core count to gate, so a record missing the
    stamp (pre-provenance snapshots) stays advisory rather than gating
    against an unknown baseline topology.
    """
    return (
        "host_cpus" in base and "host_cpus" in record
        and str(base["host_cpus"]) == str(record["host_cpus"])
    )


def scaling_speedups(records):
    """-> {(file, identity-minus-pool, pool): (speedup, record)}.

    Groups records that carry a `pool` identity field by everything else
    in their identity, then computes each pool's speedup over the
    group's pool-1 wall clock. Groups without a pool-1 record (or with a
    non-positive reference) contribute nothing.
    """
    groups = {}
    for (name, identity), record in records.items():
        pool = None
        rest = []
        for field, value in identity:
            if field == "pool":
                pool = value
            else:
                rest.append((field, value))
        if pool is None or "wall_ms" not in record:
            continue
        try:
            pool = int(pool)
        except (TypeError, ValueError):
            continue
        groups.setdefault((name, tuple(rest)), {})[pool] = record
    speedups = {}
    for (name, rest), by_pool in groups.items():
        reference = by_pool.get(1)
        if reference is None:
            continue
        ref_wall = float(reference["wall_ms"])
        if ref_wall <= 0.0:
            continue
        for pool, record in by_pool.items():
            if pool == 1:
                continue
            wall = float(record["wall_ms"])
            if wall <= 0.0:
                continue
            speedups[(name, rest, pool)] = (ref_wall / wall, record)
    return speedups


def compare_scaling(baseline, current, warn, fail, advisory):
    """Gates per-pool speedups; -> (matched, warnings, failures)."""
    base_scaling = scaling_speedups(baseline)
    cur_scaling = scaling_speedups(current)
    matched = 0
    warnings = 0
    failures = 0
    for key, (cur_speedup, cur_record) in sorted(cur_scaling.items()):
        if key not in base_scaling:
            continue
        base_speedup, base_record = base_scaling[key]
        matched += 1
        name, rest, pool = key
        fields = ", ".join(f"{field}={value}" for field, value in rest)
        line = (
            f"{name} [{fields}] scaling@pool={pool}: "
            f"{base_speedup:.2f}x -> {cur_speedup:.2f}x"
        )
        comparable = cpus_match(base_record, cur_record)
        if cur_speedup < base_speedup * (1.0 - fail):
            if not comparable:
                warnings += 1
                print(
                    "::warning::scaling drop beyond fail threshold "
                    f"(host_cpus differ: advisory): {line}"
                )
            else:
                failures += 1
                level = "warning" if advisory else "error"
                print(f"::{level}::scaling drop beyond fail threshold: {line}")
        elif cur_speedup < base_speedup * (1.0 - warn):
            warnings += 1
            print(f"::warning::scaling drop: {line}")
        else:
            print(f"ok: {line}")
    return matched, warnings, failures


# The thread-sweep benches (bench_theorem10, bench_theorem41) whose
# scaling the multicore honesty gate requires.
SWEEPS = ("theorem10_thread_sweep", "theorem41_thread_sweep")


def sweep_verdicts(records, bound=1.0, sweeps=SWEEPS):
    """-> {sweep: (pool, speedup_q1, passed) or None}.

    For each named sweep, takes its widest pool above 1 that fits the
    host's cores (`pool <= host_cpus`) and checks that the lower quartile
    of that pool's per-trial speedup over pool 1 (`speedup_q1`) is at
    least `bound`. A sweep with no such record maps to None.
    """
    verdicts = dict.fromkeys(sweeps)
    for record in records.values():
        sweep = record.get("experiment")
        if sweep not in verdicts:
            continue
        pool = int(record["pool"])
        if pool <= 1 or pool > int(record["host_cpus"]):
            continue
        if verdicts[sweep] is None or pool > verdicts[sweep][0]:
            q1 = float(record["speedup_q1"])
            verdicts[sweep] = (pool, q1, q1 >= bound)
    return verdicts


def describe(key):
    name, identity = key
    fields = ", ".join(f"{field}={value}" for field, value in identity)
    return f"{name} [{fields}]"


def compare(baseline_dir, current_dir, warn, fail, advisory):
    try:
        current = load_records(current_dir)
    except RecordError as error:
        print(f"::error::{error}")
        return 1
    try:
        baseline = load_records(baseline_dir)
    except RecordError as error:
        # A baseline recorded before records declared their field roles
        # cannot be matched; say so rather than guess its identity.
        print(f"::warning::baseline rejected, nothing to gate: {error}")
        return 0
    if not baseline:
        print(f"no baseline records under {baseline_dir}; nothing to gate")
        return 0
    if not current:
        print(f"::error::no current records under {current_dir}")
        return 1

    matched = 0
    warnings = 0
    failures = 0
    for key, record in sorted(current.items()):
        if key not in baseline:
            print(f"new record (no baseline): {describe(key)}")
            continue
        base = baseline[key]
        mismatch = host_mismatch(base, record)
        for field in timing_fields(record):
            if field not in base:
                continue
            base_value = float(base[field])
            cur_value = float(record[field])
            if base_value <= 0.0:
                continue
            matched += 1
            ratio = cur_value / base_value
            line = (
                f"{describe(key)} {field}: {base_value:.3f} -> "
                f"{cur_value:.3f} ms ({ratio:.2f}x)"
            )
            if ratio > 1.0 + fail:
                if mismatch:
                    warnings += 1
                    print(
                        "::warning::slowdown beyond fail threshold "
                        f"(host mismatch: advisory): {line}"
                    )
                else:
                    failures += 1
                    level = "warning" if advisory else "error"
                    print(
                        f"::{level}::slowdown beyond fail threshold: {line}"
                    )
            elif ratio > 1.0 + warn:
                warnings += 1
                print(f"::warning::slowdown: {line}")
            else:
                print(f"ok: {line}")
    for key in sorted(baseline):
        if key not in current:
            print(f"baseline record disappeared: {describe(key)}")

    scaled, scale_warn, scale_fail = compare_scaling(
        baseline, current, warn, fail, advisory
    )
    warnings += scale_warn
    failures += scale_fail

    print(
        f"\ncompared {matched} timings and {scaled} scaling points: "
        f"{warnings} warnings, {failures} beyond the fail threshold"
        + (" (advisory)" if advisory else "")
    )
    return 1 if failures and not advisory else 0


def write_snapshot(path, directory):
    try:
        records = load_records(directory)
    except RecordError as error:
        print(f"::error::{error}")
        return 1
    if not records:
        print(f"::error::no records under {directory} to snapshot")
        return 1
    snapshot = []
    for (name, _), record in sorted(records.items()):
        roles = field_roles(record)
        kept = [field for field in record if field != "roles" and (
            roles[field] != "measurement" or field.endswith("_ms"))]
        entry = {"file": name}
        entry.update({field: record[field] for field in kept})
        entry["roles"] = {
            role: sorted(f for f in kept if roles[f] == role)
            for role in ROLES
        }
        snapshot.append(entry)
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path} ({len(snapshot)} records)")
    return 0


def snapshot_as_baseline(snapshot_path, tmp_dir):
    """Explodes a trajectory snapshot back into per-file record maps."""
    with open(snapshot_path) as handle:
        snapshot = json.load(handle)
    per_file = {}
    for entry in snapshot:
        entry = dict(entry)
        name = entry.pop("file")
        per_file.setdefault(name, []).append(entry)
    os.makedirs(tmp_dir, exist_ok=True)
    for name, series in per_file.items():
        with open(os.path.join(tmp_dir, name), "w") as handle:
            json.dump(series, handle)
    return tmp_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="baseline bench-out dir")
    parser.add_argument("current", nargs="?", help="current bench-out dir")
    parser.add_argument("--warn", type=float, default=0.10,
                        help="warn at > this fractional slowdown")
    parser.add_argument("--fail", type=float, default=0.25,
                        help="fail at > this fractional slowdown")
    parser.add_argument("--advisory", action="store_true",
                        help="report fail-level slowdowns as warnings only")
    parser.add_argument("--snapshot", metavar="FILE",
                        help="use a BENCH_trajectory.json snapshot as the "
                             "baseline instead of a directory")
    parser.add_argument("--write-snapshot", nargs=2,
                        metavar=("FILE", "DIR"),
                        help="write a curated trajectory snapshot of DIR "
                             "to FILE and exit")
    args = parser.parse_args()

    if args.write_snapshot:
        return write_snapshot(*args.write_snapshot)
    if args.snapshot:
        if args.current is None:
            args.current = args.baseline
        if args.current is None:
            parser.error("--snapshot needs a current directory")
        args.baseline = snapshot_as_baseline(
            args.snapshot, os.path.join(args.current, ".snapshot-baseline")
        )
    if args.baseline is None or args.current is None:
        parser.error("need baseline and current directories")
    return compare(args.baseline, args.current, args.warn, args.fail,
                   args.advisory)


if __name__ == "__main__":
    sys.exit(main())
