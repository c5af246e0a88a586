"""In-memory spans recorded around the library's public names.

A Tracer replaces a public function or method with a wrapper that records
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory; ``layer_totals`` folds them into per-layer times and
counts, and ``dump`` writes them out as JSON.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self._undo = []

    def _record(self, fn, name):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def wrap(self, owners, attr, name):
        """Record ``name`` around ``attr`` of every owner (module or class).

        All owners must hold the same object, as when a module imports a
        function by name from the module that defines it.
        """
        original = getattr(owners[0], attr)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the traced object")
        wrapped = self._record(original, name)
        for owner in owners:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def wrap_property(self, cls, attr, name):
        prop = cls.__dict__[attr]
        self._undo.append((cls, attr, prop))
        setattr(cls, attr, property(self._record(prop.fget, name)))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def clear(self):
        for spans in (self.names, self.starts, self.ends, self.parents):
            del spans[:]

    def layer_totals(self):
        """Per-name durations in seconds, one per outermost call.

        A span directly inside a span of the same name (compute_plan calling
        select_mus, both recorded as the plan) is already covered by its parent.
        """
        durations = (np.asarray(self.ends) - np.asarray(self.starts)).tolist()
        names, parents = self.names, self.parents
        per_name = {}
        for name, parent, dur in zip(names, parents, durations):
            if parent < 0 or names[parent] != name:
                per_name.setdefault(name, []).append(dur)
        return per_name

    def children_time(self, parent_name, child_name):
        """Seconds in ``child_name`` spans directly under ``parent_name`` spans."""
        names = self.names
        return sum(self.ends[i] - self.starts[i] for i, p in enumerate(self.parents)
                   if p >= 0 and names[i] == child_name and names[p] == parent_name)

    def first_start(self, name):
        return self.starts[self.names.index(name)]

    def dump(self, path):
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        origin = self.starts[0] if self.starts else 0.0
        spans = [[ids[name], start - origin, end - origin, parent]
                 for name, start, end, parent
                 in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as fh:
            json.dump({"names": table, "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": spans}, fh)
