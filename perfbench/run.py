"""Benchmark of curvforms: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed`` before any timing, under
``perfbench/out/``.  Every operation runs in a fresh process, the way a user
runs the command line, and every output is checked against values known from
the construction of the inputs (``checks.py``).

``--trace 0`` repeats whole operations while less than ``--seconds`` seconds
have passed (at least one) and reports the end-to-end metrics over all of
them.
``--trace 1`` runs one operation untraced and one under ``tracer.py``, and
reports the per-layer metrics, the import times and the tracing overhead.
``--smoke`` uses tiny inputs and a single operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PY = sys.executable
CLI = ["-c", "import sys; from curvforms.cli import main; sys.exit(main())"]
SETUP_REPEATS = 3
# a hung child is killed, so a run always ends
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "points_per_s": "points/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_ms_per_point": "ms/point",
}
PER_LAYER_UNITS = {
    "zoo.read_us_per_point": "us/point",
    "zoo.json_decode_us_per_point": "us/point",
    "zoo.validate_calls_per_point": "count/point",
    "zoo.write_us_per_point": "us/point",
    "zoo.validate_sample_us_per_point": "us/point",
    "zoo.read_bytes_per_point": "B/point",
    "curvature.transform_frame_calls_per_point": "count/point",
    "curvature.transform_frame_us_per_point": "us/point",
    "normal_forms.star_test_calls_per_point": "count/point",
    "normal_forms.star_test_us_per_point": "us/point",
    "normal_forms.frame_us_per_point": "us/point",
    "topology.densities_us_per_point": "us/point",
    "topology.reduce_us_per_point": "us/point",
    "complex_forms.classify_us_per_instance": "us/instance",
    "complex_forms.counter_calls_per_instance": "count/instance",
    "complex_forms.counter_us_per_call": "us/call",
    "cli.render_us_per_point": "us/point",
    "cli.command_self_us_per_point": "us/point",
    "curvforms.import_s": "s",
    "complex_forms.import_s": "s",
    "hodge.import_s": "s",
    "trace.overhead_pct": "%",
}


# ---- operations: the steps of one operation and the check of its outputs ----


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    """One workload's input, its operation's steps and the check of its outputs.

    A step is ``("cli", args)`` for the ``curvforms`` command line or
    ``("worker", args)`` for a ``worker.py`` operation.
    """

    def __init__(self, name, out_dir, seed, smoke):
        self.name = name
        self.out_dir = out_dir
        self.input, self.points, self.expected = workloads.MAKERS[name](out_dir, seed, smoke)
        self.report = os.path.join(out_dir, "report.json")
        self.result = os.path.join(out_dir, "result.json")
        self.copy = os.path.join(out_dir, "copy.jsonl.gz")

    def steps(self):
        json_out = ["--format", "json", "-o", self.report]
        if self.name == "s4-integrate":
            return [("cli", ["integrate", self.input, *json_out])]
        if self.name == "star-h-normal-form":
            return [("cli", ["normal-form", self.input, *json_out])]
        if self.name == "star-L-critical":
            return [("worker", ["star-l", self.input, self.result])]
        return [
            ("worker", ["roundtrip", self.input, self.copy]),
            ("cli", ["validate", self.input, *json_out]),
        ]

    def setup_command(self):
        """A fresh process that imports the program and exits with no input."""
        if self.name == "star-L-critical":
            return [PY, "-c", "import curvforms"]
        return [PY, *CLI, "--version"]

    def clear_outputs(self):
        for path in (self.report, self.result, self.copy):
            if os.path.exists(path):
                os.remove(path)

    def check(self):
        """(failed operations, problems) of the outputs of the last operation."""
        try:
            if self.name == "s4-integrate":
                return 0, checks.check_s4(_load_json(self.report), self.expected)
            if self.name == "star-h-normal-form":
                return 0, checks.check_star_h(_load_json(self.report), self.expected)
            if self.name == "star-L-critical":
                failed, problems = checks.check_star_l(_load_json(self.result), self.expected)
                return len(failed), problems
            problems = checks.check_roundtrip(
                _read_bytes(self.input), _read_bytes(self.copy), _load_json(self.report), self.expected
            )
            return 0, problems
        except (OSError, ValueError, KeyError, TypeError) as err:
            return 0, [f"unreadable output: {err!r}"]


# ---- processes ----


def run_process(argv, env, log_path):
    """Run one process to its end; (wall s, cpu s, peak RSS MiB, exit code)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


def step_argv(kind, args, trace=None):
    if trace is not None:
        spans_path, run_id = trace
        return [PY, os.path.join(HERE, "tracer.py"), spans_path, run_id, kind, *args]
    if kind == "cli":
        return [PY, *CLI, *args]
    return [PY, os.path.join(HERE, "worker.py"), *args]


def run_operation(wl, env, log_path, trace=None):
    """All steps of one operation, then its check.

    Returns (wall s, cpu s, peak RSS MiB, failed, problems); wall and CPU time
    add up over the steps, the peak is the largest step's.
    """
    wl.clear_outputs()
    wall = cpu = rss = 0.0
    problems = []
    for number, (kind, args) in enumerate(wl.steps()):
        step_trace = None if trace is None else (trace[0], f"{trace[1]}-step{number}")
        w, c, r, code = run_process(step_argv(kind, args, step_trace), env, log_path)
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        if code != 0:
            problems.append(f"step {' '.join(args[:1])} exited {code} (see {log_path})")
    failed, found = wl.check()
    return wall, cpu, rss, failed, problems + found


# ---- the two kinds of run ----


def measure(wl, env, log_path, seconds, smoke):
    # the median keeps the first start, which may compile bytecode, out of setup_s
    setups = [run_process(wl.setup_command(), env, log_path)[0] for _ in range(1 if smoke else SETUP_REPEATS)]

    # throughput and CPU are totals over every operation of the run: with two
    # to four operations a run, the total averages the machine's second-scale
    # speed changes better than a median of so few values
    wall = cpu = peak = 0.0
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    while not attempted or (not smoke and time.perf_counter() - start < seconds):
        op_wall, op_cpu, op_rss, op_failed, op_problems = run_operation(wl, env, log_path)
        wall, cpu, peak = wall + op_wall, cpu + op_cpu, max(peak, op_rss)
        attempted += wl.points
        failed += op_failed
        problems += op_problems
    metrics = {
        "points_per_s": attempted / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "cpu_ms_per_point": 1e3 * cpu / attempted,
    }
    return attempted, failed, problems, metrics, END_TO_END_UNITS


def import_times(env):
    """Cumulative import seconds of curvforms and two of its modules."""
    proc = subprocess.run(
        [PY, "-X", "importtime", "-c", "import curvforms"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    return {
        "curvforms.import_s": cumulative["curvforms"],
        "complex_forms.import_s": cumulative["curvforms.complex_forms"],
        "hodge.import_s": cumulative["curvforms.hodge"],
    }


def trace(wl, env, log_path, seed):
    import tracer

    run_process(wl.setup_command(), env, log_path)  # compiles bytecode on a fresh checkout
    untraced, _, _, failed, problems = run_operation(wl, env, log_path)
    spans_path = os.path.join(wl.out_dir, "spans.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    traced, _, _, traced_failed, traced_problems = run_operation(
        wl, env, log_path, trace=(spans_path, f"{wl.name}-s{seed}")
    )
    cost_path = os.path.join(wl.out_dir, "read_cost.json")
    run_process(step_argv("worker", ["read-cost", wl.input, cost_path]), env, log_path)
    cost = _load_json(cost_path)

    # a traced process that died leaves no spans; its check has failed already
    spans = tracer.read_spans(spans_path) if os.path.exists(spans_path) else []
    metrics = tracer.layer_metrics(spans, wl.points)
    metrics["zoo.read_bytes_per_point"] = cost["read_peak_bytes"] / cost["points"]
    metrics["zoo.json_decode_us_per_point"] = 1e6 * cost["json_decode_s"] / cost["points"]
    metrics.update(import_times(env))
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    print(f"spans written to {spans_path}", file=sys.stderr)
    return 2 * wl.points, failed + traced_failed, problems + traced_problems, metrics, PER_LAYER_UNITS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one operation")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "curvforms", "__init__.py")):
        print("error: run from the root of a curvforms checkout (no src/curvforms here)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)

    out_dir = os.path.join(HERE, "out", f"{'smoke-' if args.smoke else ''}{args.workload}")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "stderr.log")
    open(log_path, "wb").close()
    wl = Workload(args.workload, out_dir, args.seed, args.smoke)
    if args.trace:
        attempted, failed, problems, values, units = trace(wl, env, log_path, args.seed)
    else:
        attempted, failed, problems, values, units = measure(wl, env, log_path, args.seconds, args.smoke)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
