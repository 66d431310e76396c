#!/usr/bin/env python3
"""Build and run the relb end-to-end benchmark (see README.md here).

    python3 e2ebench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --self-test

Run from the repository root.  The first call configures and builds
e2ebench/ (the relb libraries from src/ plus relb_perf, Release) under
.bench_build/e2ebench; later calls only rebuild what changed.  Build output
goes to stderr.  For one workload the last line of stdout is the result JSON
({"correct", "attempted", "failed", "metrics"}); the line before it is the
stamp (nproc, CPU model, build type, revision, seed, run length, samples per
metric).  Exits non-zero, printing no result, when the sources are missing,
the build fails, or the run fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
WORKLOADS = ["serve-warm", "serve-coldstart", "serve-cold", "oneshot-cold", "localsim"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no relb sources (src/) next to the benchmark; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "e2ebench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "relb_perf")


def revision():
    """The git revision, or a digest of src/ when the checkout has no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_binary(binary, args):
    """Runs relb_perf in a private work directory; returns (code, stdout)."""
    work = os.path.join(".bench_build", f"work-{os.getpid()}")
    # Its own process group, so a run that overruns is stopped together
    # with the servers and workers it started.
    proc = subprocess.Popen([binary] + args + ["--workdir", work], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)


def emit(out, seconds, rev):
    """Prints relb_perf's table, then the stamp and the result JSON lines,
    built from its last line ("report {...}")."""
    table, _, last = out.rstrip("\n").rpartition("\n")
    if not last.startswith("report "):
        return False
    report = json.loads(last[len("report "):])
    stamp = {key: report[key] for key in (
        "workload", "seed", "trace", "nproc", "cpu_model", "library_build_type")}
    stamp.update(run_seconds=seconds, git_revision=rev, samples=report["samples"])
    metrics = {name: {"value": float(text), "unit": report["units"][name]}
               for name, text in report["values"].items()}
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    print(table)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    binary = build()
    if args.self_test:
        code, out = run_binary(binary, ["selftest"])
        sys.stdout.write(out)
        sys.exit(code)

    rev = revision()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        code, out = run_binary(binary, [
            "run", "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace])
        if code != 0 or not emit(out, args.seconds, rev):
            fail(f"{workload}: relb_perf exited {code} without a report")


if __name__ == "__main__":
    main()
