"""Per-layer tracing from outside the package.

The tracer rebinds module-level names where the calling module holds them
(``poolgraph.enumerator.poly_mul``, ``poolgraph.montecarlo.comp_pd_mask``,
...) to timing wrappers, and puts every original back on ``restore``. No
file under ``src/`` knows about it.

Three kinds of wrapper:

* span: one record per call (name, parent span, start, end, attributes).
  Used for calls that happen at most a few thousand times per pass.
* leaf: per-call functions (decoders, multinomials, decimal rendering) made
  millions of times. They add a count and a total time to their parent
  span instead of recording one span each.
* generator: times only the work inside a generator's ``next()`` and counts
  the items it yields, charged to the parent span like a leaf.

Everything stays in memory until ``dump`` writes it out after the pass.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # span id -> (name, parent id, start, end, bookkeeping seconds, attrs)
        self.spans: list = []
        self._stack: list[int] = []
        # (parent span id, name) -> [calls, seconds, top-level calls, top-level
        # seconds], top-level meaning not nested inside another leaf call
        self.leaves: dict = defaultdict(lambda: [0, 0.0, 0, 0.0])
        self._leaf_depth = 0
        self._saved: list = []

    # -- installing and removing wrappers ---------------------------------

    def rebind(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)

    def all_restored(self) -> bool:
        return all(getattr(module, attr) is original for module, attr, original in self._saved)

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, attrs=None):
        """Wrap fn so each call records a span; attrs(args, kwargs, result) adds sizes."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[sid] = (name, parent, t0, _perf(), 0.0, {"error": True})
                raise
            t1 = _perf()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            t2 = _perf()
            # The span covers its own bookkeeping so that the parent's self
            # time does not absorb it; total() and self_time() subtract it.
            spans[sid] = (name, parent, t0, t2, t2 - t1, extra)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a per-call function: count and time, aggregated per parent span."""
        stack, leaves = self._stack, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                self._leaf_depth -= 1
                acc = leaves[(stack[-1] if stack else None, name)]
                acc[0] += 1
                acc[1] += dt
                if not self._leaf_depth:
                    acc[2] += 1
                    acc[3] += dt

        return wrapper

    def generator(self, name: str, fn):
        """Wrap a generator function: time spent inside next(), items yielded."""
        stack, leaves = self._stack, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            acc = leaves[(stack[-1] if stack else None, name)]
            while True:
                t0 = _perf()
                try:
                    item = next(inner)
                except StopIteration:
                    dt = _perf() - t0
                    acc[1] += dt
                    acc[3] += dt
                    return
                dt = _perf() - t0
                acc[0] += 1
                acc[1] += dt
                acc[2] += 1
                acc[3] += dt
                yield item

        return wrapper

    # -- reading the trace (after the pass, when no span is open) -----------

    def total(self, name: str, **match) -> float:
        """Seconds inside spans of this name (and matching attrs), bookkeeping excluded."""
        return sum(
            t1 - t0 - book
            for n, _, t0, t1, book, extra in self.spans
            if n == name and all((extra or {}).get(k) == v for k, v in match.items())
        )

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def attrs(self, name: str) -> list:
        return [s[5] for s in self.spans if s[0] == name and s[5] and "error" not in s[5]]

    def self_time(self, name: str) -> float:
        """Span time minus what its child spans, top-level leaves and generators cover."""
        covered: dict = defaultdict(float)
        for _, parent, t0, t1, _, _ in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        for (parent, _), (_, _, _, top) in self.leaves.items():
            if parent is not None:
                covered[parent] += top
        return sum(
            t1 - t0 - book - covered[sid]
            for sid, (n, _, t0, t1, book, _) in enumerate(self.spans)
            if n == name
        )

    def leaf_totals(self, name: str) -> list:
        """[calls, seconds, top-level calls, top-level seconds] summed over all parents."""
        out = [0, 0.0, 0, 0.0]
        for (_, leaf_name), acc in self.leaves.items():
            if leaf_name == name:
                out = [x + y for x, y in zip(out, acc)]
        return out

    def dump(self, path) -> None:
        """Write spans and leaf aggregates as JSON, once, after the pass."""
        record = {
            "spans": [
                {"id": sid, "name": n, "parent": p, "start": t0, "end": t1,
                 "bookkeeping_s": book, "attrs": extra}
                for sid, (n, p, t0, t1, book, extra) in enumerate(self.spans)
            ],
            "leaves": [
                {"parent": parent, "name": name, "calls": c, "s": s,
                 "top_level_calls": tc, "top_level_s": ts}
                for (parent, name), (c, s, tc, ts) in self.leaves.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
