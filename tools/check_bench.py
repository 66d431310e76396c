#!/usr/bin/env python3
"""Benchmark regression gate over google-benchmark JSON files.

Compares a candidate run (a fresh ``bench/run_bench.sh`` output) against the
committed baseline trajectory ``BENCH_speedup.json`` and fails when any key
serial row slowed down by more than the tolerance.  Used by the
``bench-regression`` CI job; run it locally the same way:

    bench/run_bench.sh                      # writes BENCH_speedup.json
    BENCH_OUT=/tmp/candidate.json bench/run_bench.sh
    tools/check_bench.py BENCH_speedup.json /tmp/candidate.json

Key rows are the serial (numThreads = 1) engine rows plus the bit-kernel
rows -- the quantities the repo promises not to regress.  Parallel rows
(numThreads != 1) are printed informationally only: on shared CI runners
their noise exceeds any plausible regression signal.  Their speed also
depends on the core count, so the gate prints both files'
``context.num_cpus`` and labels every parallel line a cross-core comparison
when the baseline ran on one CPU or the two counts differ.

Both files must carry ``context.library_build_type == "release"`` (stamped
by run_bench.sh): comparing Debug numbers against a Release baseline would
make every run fail, and the reverse would hide real regressions.

``--self-test BASELINE`` verifies the gate itself: the baseline must pass
against an identical copy, must fail against a synthetic candidate whose
key rows are 20% slower, and must label parallel lines cross-core exactly
when the CPU counts call for it.  Exit codes: 0 = pass, 1 = regression (or
self-test failure), 2 = bad input.
"""

import argparse
import copy
import json
import sys

# Benchmarks whose serial rows are gated.  A trailing "/" keeps
# e.g. BM_SpeedupStepMisCached out of BM_SpeedupStepMis's bucket.
KEY_PREFIXES = (
    "BM_SpeedupStepMis/",
    "BM_SpeedupStepFamily/",
    "BM_MaximalEdgePairs/",
    "BM_CertifyChain/",
    "BM_DominationFilter/",
    "BM_RightClosure/",
    "BM_SubsetSweep/",
    "BM_CsrBuild/",
    "BM_LubyMisRound/",
)

# Benchmarks where the last argument is StepOptions::numThreads; only their
# "/1" (serial) rows are gated.  The kernel rows have no thread argument and
# are always serial.
THREADED_PREFIXES = (
    "BM_SpeedupStepMis/",
    "BM_SpeedupStepFamily/",
    "BM_MaximalEdgePairs/",
    "BM_CertifyChain/",
    "BM_LubyMisRound/",
)

TIME_SUFFIXES = ("real_time", "process_time")

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def fail_usage(message):
    print(f"check_bench: error: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail_usage(f"cannot read {path}: {e}")


def require_release(path, data):
    build_type = data.get("context", {}).get("library_build_type", "")
    if build_type != "release":
        fail_usage(
            f"{path}: context.library_build_type is {build_type!r}, not "
            "'release' (regenerate with bench/run_bench.sh)")


def row_time_ns(row):
    """Per-iteration time in nanoseconds; cpu_time unless the row opted into
    real time (UseRealTime rows measure wall time of parallel sections)."""
    field = "real_time" if row["name"].endswith("/real_time") else "cpu_time"
    value = row.get(field, row.get("cpu_time"))
    return float(value) * UNIT_TO_NS.get(row.get("time_unit", "ns"), 1.0)


def iteration_rows(data):
    rows = {}
    for row in data.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue
        rows[row["name"]] = row
    return rows


def num_cpus(data):
    return data.get("context", {}).get("num_cpus")


def is_cross_core(baseline, candidate):
    """True when parallel rows cannot be compared like for like: the
    baseline ran on one CPU, or the two files ran on different counts."""
    base = num_cpus(baseline)
    return base == 1 or base != num_cpus(candidate)


def name_args(name):
    """The row name's /-separated parts without the time-mode suffixes,
    e.g. .../process_time/real_time."""
    parts = name.split("/")
    while parts[-1] in TIME_SUFFIXES:
        parts = parts[:-1]
    return parts


def is_parallel_row(name):
    return name.startswith(THREADED_PREFIXES) and name_args(name)[-1] != "1"


def parallel_lines(baseline, candidate):
    """The informational (never gated) lines for the parallel rows."""
    label = "  (cross-core comparison)" if is_cross_core(
        baseline, candidate) else ""
    cand_rows = iteration_rows(candidate)
    lines = []
    for name, base_row in sorted(iteration_rows(baseline).items()):
        cand_row = cand_rows.get(name)
        if not is_parallel_row(name) or cand_row is None:
            continue
        base_ns = row_time_ns(base_row)
        if base_ns <= 0:
            continue
        ratio = row_time_ns(cand_row) / base_ns
        lines.append(f"  {'info':>10}  {ratio:5.2f}x  {name}{label}")
    return lines


def is_key_row(name):
    if not name.startswith(KEY_PREFIXES):
        return False
    return not is_parallel_row(name)


def compare(baseline, candidate, tolerance, verbose=True):
    """Returns a list of failure messages (empty = gate passes)."""
    base_rows = iteration_rows(baseline)
    cand_rows = iteration_rows(candidate)
    failures = []
    for name, base_row in sorted(base_rows.items()):
        if not is_key_row(name):
            continue
        cand_row = cand_rows.get(name)
        if cand_row is None:
            failures.append(f"key row missing from candidate: {name}")
            continue
        base_ns = row_time_ns(base_row)
        cand_ns = row_time_ns(cand_row)
        if base_ns <= 0:
            failures.append(f"non-positive baseline time for {name}")
            continue
        ratio = cand_ns / base_ns
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {base_ns:.0f} ns -> {cand_ns:.0f} ns "
                f"({ratio:.2f}x, tolerance {1.0 + tolerance:.2f}x)")
        if verbose:
            print(f"  {verdict:>10}  {ratio:5.2f}x  {name}")
    return failures


def self_test(baseline, tolerance):
    identical = compare(baseline, copy.deepcopy(baseline), tolerance,
                        verbose=False)
    if identical:
        print("self-test FAILED: identical candidate was rejected:")
        for f in identical:
            print(f"  {f}")
        return 1
    slowed = copy.deepcopy(baseline)
    scale = 1.0 + max(0.20, tolerance + 0.01)
    scaled_rows = 0
    for row in slowed.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue
        if not is_key_row(row["name"]):
            continue
        for field in ("real_time", "cpu_time"):
            if field in row:
                row[field] = float(row[field]) * scale
        scaled_rows += 1
    if scaled_rows == 0:
        print("self-test FAILED: baseline contains no key rows to scale")
        return 1
    if not compare(baseline, slowed, tolerance, verbose=False):
        print(f"self-test FAILED: {scale:.2f}x-slowed candidate "
              f"({scaled_rows} key rows) was accepted")
        return 1
    for base_cpus, cand_cpus, cross in ((1, 1, True), (4, 8, True),
                                        (4, 4, False)):
        base = copy.deepcopy(baseline)
        cand = copy.deepcopy(baseline)
        base.setdefault("context", {})["num_cpus"] = base_cpus
        cand.setdefault("context", {})["num_cpus"] = cand_cpus
        lines = parallel_lines(base, cand)
        if not lines:
            print("self-test FAILED: baseline contains no parallel rows")
            return 1
        labelled = sum("cross-core" in line for line in lines)
        if labelled != (len(lines) if cross else 0):
            print(f"self-test FAILED: num_cpus {base_cpus} vs {cand_cpus}: "
                  f"{labelled} of {len(lines)} parallel lines labelled "
                  f"cross-core, expected {'all' if cross else 'none'}")
            return 1
    print(f"self-test passed: identical candidate accepted, {scale:.2f}x "
          f"slowdown on {scaled_rows} key rows rejected, parallel lines "
          f"labelled cross-core exactly when the CPU counts differ or the "
          f"baseline has 1")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare a candidate benchmark JSON against the "
        "committed baseline; fail on key-row regressions.")
    parser.add_argument("baseline", help="committed BENCH_speedup.json")
    parser.add_argument("candidate", nargs="?",
                        help="fresh run to gate (omit with --self-test)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional slowdown of key rows "
                        "(default: 0.15)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate accepts the baseline against "
                        "itself and rejects a synthetic 20%% regression")
    args = parser.parse_args()
    if args.tolerance < 0:
        fail_usage("tolerance must be non-negative")

    baseline = load(args.baseline)
    require_release(args.baseline, baseline)
    if args.self_test:
        if args.candidate is not None:
            fail_usage("--self-test takes only the baseline")
        sys.exit(self_test(baseline, args.tolerance))
    if args.candidate is None:
        fail_usage("candidate file required (or pass --self-test)")
    candidate = load(args.candidate)
    require_release(args.candidate, candidate)

    print(f"comparing {args.candidate} against {args.baseline} "
          f"(tolerance {args.tolerance:.2f}):")
    print(f"  num_cpus: baseline {num_cpus(baseline)}, "
          f"candidate {num_cpus(candidate)}")
    failures = compare(baseline, candidate, args.tolerance)
    print("parallel rows (informational, not gated):")
    for line in parallel_lines(baseline, candidate):
        print(line)
    if failures:
        print(f"\nFAILED: {len(failures)} key-row regression(s):")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print("\nbenchmark gate passed")


if __name__ == "__main__":
    main()
