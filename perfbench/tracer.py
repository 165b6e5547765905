"""Outside-in tracer: spans around spatialzeno's public functions.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``restore``.  A wrapper is installed on every attribute
through which a caller reaches the function (``measurement.cell_integrals``
for the measurement module, ``quadrature.cell_integrals`` for calls made
inside quadrature, ...), so calls between modules are seen without any
change to the library.  Spans live in memory as
``(id, parent_id, name, start, end, attrs)``; parent ids come from a call
stack, which is valid because the benchmark runs single-threaded.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, targets) -> None:
        """``targets``: (owner, attribute, span name, attrs function or None).

        The attrs function receives (args, kwargs, result) and returns a
        dict of counters stored on the span.
        """
        self.targets = list(targets)
        self.spans: list[tuple] = []
        self._stack: list[int] = [0]
        self._next_id = 1
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, attrs_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            spans.append((sid, parent, name, t0, t1,
                          attrs_fn(args, kwargs, out) if attrs_fn else None))
            return out

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, attrs_fn in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_fn))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive time, self time and summed counters.

    ``calls``, ``incl_s`` and ``outer_attrs`` count only spans with no
    ancestor of the same name, so a function that recurses, or is reached
    through two wrapped attributes, is not counted twice; ``attrs`` sums
    the counters of every span.  Self time is a span's duration minus the
    durations of its direct children, summed over every span of the name.
    ``with_child[c]`` counts the spans that have a direct child named c.
    ``_root_s`` is the summed duration of spans with no parent.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    child_names = defaultdict(set)
    for sid, parent, name, t0, t1, _ in spans:
        child_time[parent] += t1 - t0
        child_names[parent].add(name)
    out: dict = defaultdict(lambda: {
        "calls": 0, "incl_s": 0.0, "self_s": 0.0, "attrs": defaultdict(float),
        "outer_attrs": defaultdict(float), "with_child": defaultdict(int)})
    root_s = 0.0
    for sid, parent, name, t0, t1, attrs in spans:
        rec = out[name]
        rec["self_s"] += (t1 - t0) - child_time[sid]
        for child in child_names[sid]:
            rec["with_child"][child] += 1
        if parent == 0:
            root_s += t1 - t0
        ancestor = parent
        while ancestor and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        outermost = not ancestor
        if outermost:
            rec["calls"] += 1
            rec["incl_s"] += t1 - t0
        for attr, value in (attrs or {}).items():
            rec["attrs"][attr] += value
            if outermost:
                rec["outer_attrs"][attr] += value
    result = {name: {k: dict(v) if isinstance(v, defaultdict) else v
                     for k, v in rec.items()} for name, rec in out.items()}
    result["_root_s"] = root_s
    return result
