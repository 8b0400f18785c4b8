"""In-memory span recorder and the wrappers that attribute time to fdlink's
modules from outside the package.

A span is (name, start, end, parent, cell). The benchmark opens one root span
per operation; every wrapped call made while a span is open becomes a child
of the innermost open span. A span's self time is its duration minus the time
its direct children cover, so the self times of one cell's spans add up to
the cell's duration.

Wrapping replaces a function wherever an fdlink module binds it (for example
``fdlink.altqcp.covariance_stacks`` and ``fdlink.robust.covariance_stacks``),
so calls made through module globals are seen without touching ``src/``.
A function that no longer exists is recorded as absent, not as an error.
"""

from __future__ import annotations

import functools
import json
import sys
import time

NAME, START, END, PARENT = range(4)    # field 4 is the cell id


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, cell id]
        self.nested = []         # True when an ancestor span has the same name
        self.active = False
        self.cell = -1
        self.absent = []
        self.counters = {}
        self._stack = []
        self._open_names = {}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.nested.append(self._open_names.get(name, 0) > 0)
        self._open_names[name] = self._open_names.get(name, 0) + 1
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), None, parent, self.cell])
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._stack.pop()
        self._open_names[span[NAME]] -= 1

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module_name: str, attr: str, span: str, callers=None,
             on_result=None) -> bool:
        """Wrap fdlink.<module_name>.<attr> in every fdlink module that binds
        it (only in `callers`, short module names, when given). on_result
        (result, args, kwargs) runs after the span closes, while tracing."""
        module = sys.modules.get(f"fdlink.{module_name}")
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.absent.append(f"fdlink.{module_name}.{attr}")
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            idx = tracer.open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        for full_name, mod in list(sys.modules.items()):
            if not full_name.startswith("fdlink.") or mod is None:
                continue
            if callers is not None and full_name[len("fdlink."):] not in callers:
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, original))
        return True

    def unwrap(self) -> None:
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        out = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                out[span[PARENT]] -= span[END] - span[START]
        return out

    def totals(self):
        """name -> {"calls", "inclusive_s", "self_s"}; inclusive time skips
        spans nested inside a span of the same name, so nothing counts twice."""
        selfs = self.self_times()
        out = {}
        for idx, span in enumerate(self.spans):
            entry = out.setdefault(span[NAME], {"calls": 0, "inclusive_s": 0.0,
                                                "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += selfs[idx]
            if not self.nested[idx]:
                entry["inclusive_s"] += span[END] - span[START]
        return out

    def write(self, path) -> None:
        """Spans as JSON: one [name, start, end, parent, cell] list per span."""
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "cell"],
                       "spans": self.spans}, f, separators=(",", ":"))
