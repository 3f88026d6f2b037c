#!/usr/bin/env python3
"""`bench_trajectory.py diff` on a trajectory file: exits 0 and prints a
row for a phase both compared entries recorded.

Usage: bench_trajectory_diff_test.py SCRIPT TRAJECTORY
"""

import re
import subprocess
import sys


def main():
    script, trajectory = sys.argv[1:3]
    proc = subprocess.run(
        [sys.executable, script, "diff", "--trajectory", trajectory],
        capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"FAIL: diff exited {proc.returncode}")
        return 1
    # bench_micro's offline training phase: indented one level, inclusive
    # us on both sides, then the ratio.
    row = re.compile(r"^  core\.policy_init +[0-9.]+ +[0-9.]+ +[0-9.]+x$",
                     re.M)
    if not row.search(proc.stdout):
        print("FAIL: no core.policy_init row with both sides and a ratio")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
