"""Span tracing and the planner-call clock, both installed from outside.

Neither touches a colavmpc source file. Both replace public functions
at the module attribute their callers look up (``sim.generate_tree``,
``objective.penalty``, ...) for the duration of a ``with`` block and
put the originals back on exit.

A span is (name, start_ns, end_ns, parent, op): ``parent`` is the index
of the enclosing span or -1, ``op`` the operation id. Spans stay in
memory and are written once, at the end of a run.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter
from contextlib import contextmanager

from colavmpc import objective, sim, tree

# (module, attribute, span name). The span name's prefix is the layer.
# primitives/core run inside tree and objective and are counted there.
TRACE_POINTS = (
    (sim, "generate_tree", "tree.generate_tree"),
    (tree, "terminal_sog_feasible", "tree.terminal_sog_feasible"),
    (sim, "los_targets", "guidance.los_targets"),
    (sim, "desired_acceleration", "guidance.desired_acceleration"),
    (sim, "select", "objective.select"),
    (objective, "penalty", "objective.penalty"),
    (sim, "observe", "obstacles.observe"),
    (sim, "predict_obstacle", "obstacles.predict_obstacle"),
    (sim, "control_law", "vessel.control_law"),
    (sim, "step_plant", "vessel.step_plant"),
    (sim, "compute_metrics", "sim.compute_metrics"),
)

LAYERS = ("config", "sim", "tree", "guidance", "objective", "obstacles", "vessel")
# layers that run inside an operation; config loads before the first one
OP_LAYERS = LAYERS[1:]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


@contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore the originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def _count_tree(counts, candidates):
    counts["tree.candidates"] += len(candidates)


def _count_feasible(counts, mask):
    counts["tree.samples_tried"] += mask.size
    counts["tree.samples_kept"] += int(mask.sum())


_RESULT_COUNTERS = {
    "tree.generate_tree": _count_tree,
    "tree.terminal_sog_feasible": _count_feasible,
}


class Tracer:
    """In-memory span recorder with result counters at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, name):
        count = _RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def installed(self):
        return patched(
            [(mod, attr, self._wrap(getattr(mod, attr), name)) for mod, attr, name in TRACE_POINTS]
        )

    def self_times_ns(self) -> tuple[Counter, Counter]:
        """Per-layer self time and per-span-name busy time, both in ns.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly because the run is single
        threaded, so children never overlap.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_by_layer: Counter = Counter()
        busy_by_name: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_by_layer[layer_of(name)] += end - start - child[i]
            busy_by_name[name] += end - start
        return self_by_layer, busy_by_name

    def write(self, path):
        """Write every span as gzip CSV: name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")


class SolveClock:
    """Planner-call latency with two clock reads per call.

    The clock starts on entry to the tree call and stops when selection
    returns, or when the tree returns no candidates and the simulator
    takes the fail-safe hold.
    """

    def __init__(self):
        self.samples_s: list[float] = []
        self._t0 = 0.0

    def installed(self):
        generate_tree, select = sim.generate_tree, sim.select

        def timed_generate_tree(*args, **kwargs):
            t0 = time.perf_counter()
            candidates = generate_tree(*args, **kwargs)
            if candidates:
                self._t0 = t0
            else:
                self.samples_s.append(time.perf_counter() - t0)
            return candidates

        def timed_select(*args, **kwargs):
            result = select(*args, **kwargs)
            self.samples_s.append(time.perf_counter() - self._t0)
            return result

        return patched([(sim, "generate_tree", timed_generate_tree), (sim, "select", timed_select)])
