"""In-memory span tracer for calls into fracvisco's public functions.

Each wrapper replaces a public name where its caller looks it up (for
example ``fracvisco.cli.run``, which ``cmd_simulate`` calls) and records one
span per call: name, start, end and the index of the enclosing span.  Work
the tracer itself does after a call (a residual check, reading a result's
size) runs in a span of its own named ``tracing.check``, so it is charged to
no layer.  A layer's self time is its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

CHECK = "tracing.check"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.notes = defaultdict(list)
        self._stack = []
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def note(self, key, value):
        self.notes[key].append(value)

    def wrap(self, owner, attr, name, after=None):
        """Trace calls to ``owner.attr`` as spans named ``name``.

        ``after(tracer, args, result)`` runs after each call, outside its
        span.  Raises AttributeError when ``owner`` has no ``attr``, so a
        renamed function fails the traced run instead of reading zero.
        """
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            out = self.call(name, orig, *args, **kwargs)
            if after is not None:
                self.call(CHECK, after, self, args, out)
            return out

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def unwrap_all(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def reset(self):
        self.spans.clear()
        self.notes.clear()

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self):
        """Span name -> (summed self time, number of spans)."""
        out = defaultdict(lambda: [0.0, 0])
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[name][0] += own
            out[name][1] += 1
        return {name: tuple(v) for name, v in out.items()}

    def subtree_self_time(self, root):
        """Self times of span ``root`` and all spans beneath it, by name."""
        inside = {root}
        sums = defaultdict(float)
        for i, ((name, _, _, parent), own) in enumerate(
                zip(self.spans, self.self_times())):
            if i == root or parent in inside:
                inside.add(i)
                sums[name] += own
        return dict(sums)
