"""Spans and work counts recorded around cstree's public functions.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper, in every ``cstree`` module namespace that holds a
reference to it. Functions imported by name into another module (for
example ``build_tree`` into ``competition``, ``experiment`` and ``cli``)
are therefore caught wherever they are called from, and ``best_split`` is
caught on the recursive growth path because ``_grow`` looks it up in
``cstree.tree``'s globals.

A span is (name, start, end, parent, operation); self time is a span's
duration minus the durations of its direct children. Very hot per-row or
per-attribute helpers are only counted, so that tracing them does not
swamp the functions they serve; their time lands in the caller's self
time. Work done by the count hooks themselves (hashing row sets, counting
nodes) is kept out of every span's self time.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "data",
    "costs",
    "tree",
    "pruning",
    "evaluation",
    "competition",
    "experiment",
    "cli",
)

# Called once per row or per attribute scan: counted, not spanned.
COUNT_ONLY = {
    "costs.total_test_cost",
    "tree.classify",
    "tree.entropy",
    "tree.split_heuristic",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _best_split(tracer, args, kwargs, result):
    subset = _arg(args, kwargs, 0, "subset")
    tracer.counts["tree.best_split.rows"] += len(subset)
    key = hashlib.blake2b(subset.indices.tobytes(), digest_size=16).digest()
    if key not in tracer.row_sets:
        tracer.row_sets.add(key)
        tracer.counts["tree.best_split.distinct_row_sets"] += 1


def _build_tree(tracer, args, kwargs, result):
    tracer.counts["tree.build_tree.nodes"] += result.node_count()


def _post_prune(tracer, args, kwargs, result):
    tracer.counts["pruning.post_prune.decisions"] += len(result[1])


def _average_cost(tracer, args, kwargs, result):
    tracer.counts["evaluation.average_cost.rows"] += len(_arg(args, kwargs, 1, "data"))


def _serialize(tracer, args, kwargs, result):
    tracer.counts["tree.serialize.bytes"] += len(result)


HOOKS = {
    "tree.best_split": _best_split,
    "tree.build_tree": _build_tree,
    "pruning.post_prune": _post_prune,
    "evaluation.average_cost": _average_cost,
    "tree.serialize": _serialize,
}


class Tracer:
    """In-memory spans and counters; nothing is written until ``write_spans``."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.row_sets: set[bytes] = set()
        self.op = -1
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._originals: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        """Start attributing spans to operation ``op``; row sets are per operation."""
        self.op = op
        self.row_sets = set()

    def reset_totals(self) -> None:
        self.counts = Counter()
        self.self_s = defaultdict(float)

    def _wrap(self, name, fn):
        tracer = self
        calls = name + ".calls"
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.counts[calls] += 1
                return fn(*args, **kwargs)

            return counted

        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.spans[index] = (name, frame[1], end, parent, tracer.op)
                tracer.self_s[name] += duration - frame[2]
                tracer.counts[calls] += 1
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                hook_start = time.perf_counter()
                hook(tracer, args, kwargs, return_value)
                if stack:
                    stack[-1][2] += time.perf_counter() - hook_start
            return return_value

        return spanned

    def install(self) -> None:
        """Wrap the public functions of every traced module, everywhere."""
        modules = {m: importlib.import_module(f"cstree.{m}") for m in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ["main"]):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        namespaces = [m for n, m in sys.modules.items() if n == "cstree" or n.startswith("cstree.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("index", "name", "start", "end", "parent", "op"))
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow((index, name, repr(start), repr(end), parent, op))
