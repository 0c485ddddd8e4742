"""Compare the start-up cost of curvforms in two source trees.

    python tools/startup.py SRC_A SRC_B [ARGS ...]

runs 20 alternating pairs of fresh processes: ``python -c "import curvforms"``,
or ``python -m curvforms ARGS`` when ARGS are given, with PYTHONPATH set to
SRC_A and to SRC_B in turn (each a directory holding the ``curvforms``
package, such as a checkout's ``src``).  An even-numbered pair starts with A,
an odd-numbered one with B, and one untimed start of each tree, which may
compile bytecode, comes first.  For each tree it prints the median and
quartiles of wall time and of CPU time (user + system of the process, from
``os.wait4``), then how many pairs each tree won on each.  Standard output of
the runs is discarded; a run that exits non-zero stops the comparison.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 20
USAGE = "usage: python tools/startup.py SRC_A SRC_B [ARGS ...]"


def run_once(argv: list, env: dict) -> tuple:
    """(wall s, CPU s) of one process running ``argv`` to its end."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return wall, usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    if len(argv) < 2:
        print(USAGE, file=sys.stderr)
        return 2
    trees, args = argv[:2], argv[2:]
    command = [sys.executable, "-m", "curvforms", *args] if args else [sys.executable, "-c", "import curvforms"]
    envs = [dict(os.environ, PYTHONPATH=str(Path(tree).resolve())) for tree in trees]
    for env in envs:
        run_once(command, env)
    runs = ([], [])
    for pair in range(PAIRS):
        for tree in (0, 1) if pair % 2 == 0 else (1, 0):
            runs[tree].append(run_once(command, envs[tree]))
    print(f"{PAIRS} pairs of: {' '.join(command[1:])}")
    for name, tree, times in zip("AB", trees, runs):
        print(f"{name} {tree}")
        for kind, values in zip(("wall", "cpu"), zip(*times)):
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {kind:<4}  median {statistics.median(values):.4f} s  quartiles {q1:.4f} .. {q3:.4f} s")
    for k, kind in enumerate(("wall", "cpu")):
        wins_a = sum(a[k] < b[k] for a, b in zip(*runs))
        wins_b = sum(b[k] < a[k] for a, b in zip(*runs))
        print(f"{kind} wins: A {wins_a}, B {wins_b}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
