"""Span tracing of the program's layers, from outside the program.

    python3 perfbench/tracer.py SPANS RUN_ID cli ARGS...
    python3 perfbench/tracer.py SPANS RUN_ID worker OPERATION ARGS...

wraps the public functions of ``zoo``, ``curvature``, ``normal_forms``,
``topology`` and ``complex_forms`` (their ``__all__``), and the command,
rendering and entry functions of ``cli``, wherever a ``curvforms`` module
binds them; then runs the ``curvforms`` command line or a ``worker.py``
operation.  Each call records a span (run, id, parent, name, start, end).
Spans stay in memory and are appended to SPANS as JSON lines when the run
ends.  The program's source is not changed.

``layer_metrics`` turns span files into the per-layer figures of a run.
"""

import functools
import itertools
import json
import sys
import threading
import time

LIBRARY_LAYERS = ("zoo", "curvature", "normal_forms", "topology", "complex_forms")
CLI_FUNCTIONS = ("main", "render_json", "render_text")


class Tracer:
    """Collects spans; a span's parent is the innermost open span of its thread.

    A span opened on a thread with nothing open (a thread-pool worker) takes
    the innermost open span of the main thread as its parent, so the command
    that submitted the work owns it.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))

        return traced

    def install(self):
        """Replace every binding of a traced function in every curvforms module."""
        import curvforms  # noqa: F401  (loads the library layers)
        import curvforms.cli as cli

        originals = {}
        for layer in LIBRARY_LAYERS:
            module = sys.modules[f"curvforms.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type):
                    originals[id(fn)] = (f"{layer}.{attr}", fn)
        for attr in dir(cli):
            if attr in CLI_FUNCTIONS or attr.startswith("_cmd_"):
                fn = getattr(cli, attr)
                originals[id(fn)] = (f"cli.{attr}", fn)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "curvforms" and not mod_name.startswith("curvforms."):
                continue
            for attr, value in list(vars(module).items()):
                # originals holds every traced function alive, so ids are unique
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def dump(self, path):
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }))
                fh.write("\n")


# ---- per-layer figures from spans ----


def _covered(intervals):
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Span duration minus the time its child spans cover, per span key."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["run"], s["parent"]), []).append(s)
    out = {}
    for s in spans:
        key = (s["run"], s["id"])
        kids = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(key, [])
        ]
        out[key] = (s["end"] - s["start"]) - _covered([k for k in kids if k[1] > k[0]])
    return out


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans, points):
    """Per-layer figures per point (per instance for complex_forms)."""
    by_key = {(s["run"], s["id"]): s for s in spans}
    own = self_times(spans)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total_us(*names):
        return 1e6 * sum(s["end"] - s["start"] for s in named(*names))

    def self_us(predicate):
        return 1e6 * sum(own[(s["run"], s["id"])] for s in spans if predicate(s["name"]))

    zoo_validate = 0
    for s in named("curvature.validate_curvature"):
        parent = by_key.get((s["run"], s["parent"]))
        if parent is not None and parent["name"].startswith("zoo."):
            zoo_validate += 1
    counter = named("complex_forms.count_spacelike_critical")
    counter_us = total_us("complex_forms.count_spacelike_critical")
    return {
        "zoo.read_us_per_point": total_us("zoo.read_samples") / points,
        "zoo.validate_calls_per_point": zoo_validate / points,
        "zoo.write_us_per_point": total_us("zoo.write_samples") / points,
        "zoo.validate_sample_us_per_point": total_us("zoo.validate_sample") / points,
        "curvature.transform_frame_calls_per_point": len(named("curvature.transform_frame")) / points,
        "curvature.transform_frame_us_per_point": total_us("curvature.transform_frame") / points,
        "normal_forms.star_test_calls_per_point": len(named("normal_forms.is_star_h_einstein")) / points,
        "normal_forms.star_test_us_per_point": total_us("normal_forms.is_star_h_einstein") / points,
        "normal_forms.frame_us_per_point": self_us(
            lambda n: n in ("normal_forms.orthogonal_normal_form_4", "normal_forms.normal_form_4")
        ) / points,
        "topology.densities_us_per_point": total_us("topology.chi_tau_densities") / points,
        "topology.reduce_us_per_point": self_us(lambda n: n == "topology.integrate_samples") / points,
        "complex_forms.classify_us_per_instance": total_us("complex_forms.classify_complex") / points,
        "complex_forms.counter_calls_per_instance": len(counter) / points,
        "complex_forms.counter_us_per_call": counter_us / len(counter) if counter else 0.0,
        "cli.render_us_per_point": total_us("cli.render_json", "cli.render_text") / points,
        "cli.command_self_us_per_point": self_us(lambda n: n.startswith("cli._cmd_")) / points,
    }


def main(argv):
    if len(argv) < 3 or argv[2] not in ("cli", "worker"):
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, kind, rest = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    try:
        if kind == "cli":
            import curvforms.cli

            return curvforms.cli.main(rest)
        import worker

        return worker.main(rest)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
