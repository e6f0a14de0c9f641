"""Outside-in span tracer for the limla benchmark.

The tracer never edits the library.  It replaces module-level names that
the library looks up at call time (``limla.linear.compose_full``,
``limla.difftest.run_naive``, ``ListTape.from_word`` ...) with thin
wrappers that record one span per call, and puts the original objects
back on ``restore()``, so untraced passes run the unmodified code.

A span is ``(id, parent_id, name, start_ns, end_ns)``.  Self time is the
span's duration minus the durations of its direct children; it is
accumulated per name while the run goes on, so the per-layer totals do
not depend on how many raw spans are kept.  Raw spans are kept in memory
up to KEEP of them and written once, at the end of the run.

``Patches`` is the one place that swaps library names in and out; the
tracer and the benchmark's outcome tap both use it.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.perf_counter_ns
KEEP = 100_000


def lookup(owner, attr: str):
    """The object stored under owner.attr (owner[attr] for a dict), as stored:
    a classmethod stays a classmethod."""
    if isinstance(owner, dict):
        return owner[attr]
    return owner.__dict__.get(attr, getattr(owner, attr))


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Patches:
    """Names replaced on modules, classes or dicts, and put back by restore()."""

    def __init__(self):
        self._saved = []         # (owner, attr, original) in replacement order

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, lookup(owner, attr)))
        _assign(owner, attr, new)

    def restore(self) -> None:
        """Put back every replaced name, newest first."""
        while self._saved:
            _assign(*self._saved.pop())


class Tracer:
    def __init__(self):
        self.spans = []          # raw spans, at most KEEP
        self.dropped = 0         # spans not kept because of the cap
        self._next_id = 1
        self._stack = []         # open spans: [id, child_ns]
        self._patches = Patches()
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.extra = defaultdict(int)   # per-layer counts filled in by hooks

    # -- spans -----------------------------------------------------------
    def _enter(self) -> None:
        self._stack.append([self._next_id, 0])
        self._next_id += 1

    def _leave(self, name: str, start: int) -> int:
        end = _now()
        sid, child_ns = self._stack.pop()
        dur = end - start
        self.self_ns[name] += dur - child_ns
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        if len(self.spans) < KEEP:
            self.spans.append((sid, parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1
        return dur

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        self._enter()
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(name, start)

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Time every call of owner.attr (or owner[attr] for a dict).

        hook(tracer, args, result, dur_ns) runs after each call that
        returned, to add per-layer counts.
        """
        raw = lookup(owner, attr)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            enter()
            start = _now()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = leave(name, start)
                if ok and hook is not None:
                    hook(self, args, result, dur)

        traced.__wrapped__ = fn
        self._patches.replace(owner, attr, classmethod(traced) if is_cm else traced)

    def restore(self) -> None:
        """Put back every wrapped name."""
        self._patches.restore()

    # -- results ---------------------------------------------------------
    def take(self) -> tuple:
        """Return and reset the per-name self time, call counts and extras."""
        out = (dict(self.self_ns), dict(self.calls), dict(self.extra))
        self.self_ns.clear()
        self.calls.clear()
        self.extra.clear()
        return out

    def write(self, path: str) -> None:
        """JSON lines: a header, then one [id, parent, name, start_ns, end_ns] per span."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                                 "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fp.write(json.dumps(span, separators=(",", ":")) + "\n")
