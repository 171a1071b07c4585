"""In-memory spans around the solver's layers, recorded from outside the package.

``solver.solve`` looks its layers up as module globals at call time, so
replacing those attributes with timing wrappers traces a solve without
touching the package.  ``Tracer.patched`` installs the wrappers and always
restores the originals.  Spans stay in memory until ``write`` dumps them
once, at the end of a run.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict

# (module name, attribute, span name).  The span name is the layer's home
# module, so simplex functions imported into the solver keep their own name.
TARGETS = (
    ("solver", "initialize_depths", "solver.initialize_depths"),
    ("solver", "pair_distance_matrix", "solver.pair_distance_matrix"),
    ("solver", "self_express", "simplex.self_express"),
    ("solver", "minimize_on_simplex", "simplex.minimize_on_simplex"),
    ("simplex", "minimize_on_simplex", "simplex.minimize_on_simplex"),
    ("solver", "x_step", "solver.x_step"),
    ("solver", "coupling_matrix", "solver.coupling_matrix"),
    ("solver", "admm_w_step", "solver.admm_w_step"),
    ("solver", "objective", "solver.objective"),
)

# span name -> caller label for minimize_on_simplex, by nearest ancestor
CALLERS = {"simplex.self_express": "warmup", "solver.admm_w_step": "admm"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "info")

    def __init__(self, name, parent, solve):
        self.name = name
        self.start = self.end = None
        self.parent = parent
        self.solve = solve
        self.info = None


class Tracer:
    """Collects spans (name, start, end, parent index, solve id)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.solve_id = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        record = Span(name, parent, self.solve_id)
        self.spans.append(record)
        self.stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                if name == "solver.admm_w_step":
                    record.info = dict(out[3])  # iterations, converged
                return out

        return wrapper

    @contextlib.contextmanager
    def patched(self, modules):
        """Install wrappers on ``modules`` ({"solver": mod, ...}); restore after."""
        saved = []
        try:
            for mod_name, attr, span_name in TARGETS:
                module = modules[mod_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def caller(self, index):
        """Label of the nearest ancestor listed in CALLERS, or "other"."""
        parent = self.spans[index].parent
        while parent >= 0:
            label = CALLERS.get(self.spans[parent].name)
            if label is not None:
                return label
            parent = self.spans[parent].parent
        return "other"

    def totals(self, solve_ids):
        """Per span name: total seconds, self seconds and calls over solves.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the solver is single-threaded.
        minimize_on_simplex calls are also counted per caller under
        ``simplex.minimize_on_simplex.<caller>``.
        """
        wanted = set(solve_ids)
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        infos = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.solve not in wanted:
                continue
            duration = s.end - s.start
            total[s.name] += duration
            self_s[s.name] += duration - child[i]
            calls[s.name] += 1
            if s.name == "simplex.minimize_on_simplex":
                calls[f"{s.name}.{self.caller(i)}"] += 1
            if s.info is not None:
                infos[s.name].append(s.info)
        return total, self_s, calls, infos

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "solve": s.solve,
                            "info": s.info,
                        },
                        sort_keys=True,
                    )
                )
                fh.write("\n")
