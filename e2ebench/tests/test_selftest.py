#!/usr/bin/env python3
"""The benchmark's oracle self-test, as a unittest.

    python3 e2ebench/tests/test_selftest.py

Builds the benchmark (e2ebench/run.py) and runs `relb_perf selftest`. The
self-test sends real requests to a real server child and spawns real op
children. It then shows that each bad outcome is booked as exactly one
failed op, and that good answers are booked as none:

- a tampered certificate;
- a forged certificate;
- a mutated warm answer;
- a child killed by SIGSEGV;
- a localsim worker killed by SIGSEGV in the middle of an op.
"""
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class OracleSelfTest(unittest.TestCase):
    def test_each_bad_op_is_one_failure(self):
        proc = subprocess.run(
            [sys.executable, os.path.join("e2ebench", "run.py"), "--self-test"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.splitlines()
        self.assertIn("PASS serve: attempted 5, failed 3, oracle 3, signals 0", lines)
        self.assertIn("PASS child: attempted 4, failed 2, oracle 0, signals 2", lines)
        self.assertIn("  failure: op 1 killed by signal 11", lines)
        self.assertIn("  failure: op 3 killed by signal 11", lines)


if __name__ == "__main__":
    unittest.main()
