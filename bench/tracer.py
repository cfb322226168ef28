"""Spans and counters recorded from outside the program.

The tracer replaces a module attribute (a function, or a method on a class)
with a wrapper that times each call.  Callers that look the name up at call
time, as ``cli`` does with ``fitters.fit_rabi`` or ``cluster`` with its own
``minimize``, then go through the wrapper; nothing inside the program changes.

Every wrapped call adds its duration to its caller's child time, so each
name's self time is its duration minus the time of wrapped calls beneath it.
Calls wrapped with ``record=True`` also keep a span (id, name, start, end,
parent id, op id) in memory; hot leaves such as ``PotentialField.evaluate``
are only summed, because a span per call would cost more memory than the
run is worth.  Wrappers do nothing but pass through while tracing is off.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None
        self.reset()

    def reset(self):
        """Forget every span, total and counter recorded so far."""
        self.spans = []
        # name -> [calls, total seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = Counter()
        self.maxima = {}
        self._stack = []
        self._next_id = 0

    # -- instrumentation ----------------------------------------------------

    def wrap(self, owner, attr, name, record=True, count=None):
        """Replace ``owner.attr`` by a timing wrapper.

        ``count(tracer, result, args, kwargs)`` runs after a successful call
        while tracing is on, to update counters from the call's result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack
            span_id = parent = stack[-1][1] if stack else None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                tot = tracer.totals[name]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if record:
                    tracer.spans.append((span_id, name, start, end, parent, tracer.op))
            if count is not None:
                count(tracer, result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)

    def note_max(self, name, value):
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = value

    # -- results ------------------------------------------------------------

    def self_seconds(self, name):
        return self.totals[name][2] if name in self.totals else 0.0

    def total_seconds(self, name):
        return self.totals[name][1] if name in self.totals else 0.0

    def write_spans(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
