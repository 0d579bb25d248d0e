"""Benchmark-side spans: class-level timing wrappers and self-time arithmetic.

The traced run replaces the public methods of each layer's classes with
wrappers that record one span per call - (name, start, end, parent) - into
flat in-memory arrays, and restores the originals afterwards.  Wrappers are
installed before any engine is built: the engine binds network methods at
construction and the compiled scheduler calls ``engine.access`` through the
bound method it is handed, so both pick up the wrapper and every call is
seen.

Span names are ``layer.what`` (``store.get``, ``protocol.access``); the
layer is the part before the first dot.  Work one layer does inline inside
another layer's function (engine code probing L2 sets directly, for
example) is counted in the caller.

A tracer records from one thread only: spans of calls made on other
threads would interleave on its stack.
"""

from __future__ import annotations

import time
from array import array


class Tracer:
    """Flat span arrays plus the wrapper factory that fills them.

    Span ``i`` has label id ``names[i]``, wall-clock bounds ``starts[i]`` /
    ``ends[i]`` and parent index ``parents[i]`` (-1 for a root).  A span's
    index is always larger than its parent's, which the analysis relies on.
    """

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def label_id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def clear(self) -> None:
        """Drop recorded spans in place (wrappers keep their references)."""
        del self.names[:], self.starts[:], self.ends[:], self.parents[:]
        del self._stack[1:]

    def wrap(self, label: str, fn):
        """A wrapper of ``fn`` that records one ``label`` span per call."""
        code = self.label_id(label)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember the original for :meth:`restore`."""
        self._patched.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, targets) -> None:
        """Wrap every ``(label, owner, attribute)`` target."""
        for label, owner, attr in targets:
            self.patch(owner, attr, self.wrap(label, _raw(owner, attr)))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def times(self, group=lambda label: label.split(".", 1)[0], wrapper_s: float = 0.0) -> dict:
        """:func:`span_times` of the recorded spans, grouped by ``group``."""
        keys = [group(label) for label in self.labels]
        return span_times([keys[n] for n in self.names], self.starts, self.ends, self.parents, wrapper_s)


def _raw(owner, attr: str):
    """The attribute as stored (a class's function, not a bound method)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def public_methods(cls, only=None) -> list[str]:
    """Plain functions defined on ``cls`` itself (not inherited), optionally
    restricted to ``only``; private names, properties and static or class
    methods are skipped."""
    out = []
    for attr, value in vars(cls).items():
        if attr.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        if isinstance(value, (staticmethod, classmethod)):
            continue
        if only is None or attr in only:
            out.append(attr)
    return sorted(out)


def span_times(keys, starts, ends, parents, wrapper_s: float = 0.0) -> dict:
    """Per-key ``calls``, inclusive seconds ``s`` and self seconds ``self_s``.

    ``keys[i]`` is span ``i``'s group (its layer, usually).

    * A span's self time is its duration minus the durations of its direct
      children.  Each child call also costs its parent one wrapper overhead
      (``wrapper_s``, measured), which is subtracted too.
    * A group's inclusive time sums only its outermost spans - spans with
      no ancestor of the same group - so a layer that calls itself is not
      counted twice.  Each of those spans is corrected by one wrapper
      overhead per descendant span.
    * A group's self time sums the self time of all its spans, nested
      recursive ones included.
    """
    n = len(starts)
    child_s = [0.0] * n
    children = [0] * n
    descendants = [0] * n
    for i in range(n - 1, -1, -1):
        p = parents[i]
        if p >= 0:
            child_s[p] += ends[i] - starts[i]
            children[p] += 1
            descendants[p] += descendants[i] + 1
    bits = {key: 1 << b for b, key in enumerate(dict.fromkeys(keys))}
    out = {key: {"calls": 0, "s": 0.0, "self_s": 0.0} for key in bits}
    masks = [0] * n
    for i in range(n):
        key = keys[i]
        bit = bits[key]
        p = parents[i]
        above = masks[p] if p >= 0 else 0
        masks[i] = above | bit
        dur = ends[i] - starts[i]
        row = out[key]
        row["calls"] += 1
        row["self_s"] += dur - child_s[i] - children[i] * wrapper_s
        if not above & bit:
            row["s"] += dur - descendants[i] * wrapper_s
    return out


def measure_wrapper_s(calls: int = 200_000) -> float:
    """Per-call cost of an empty wrapper in seconds (median of 5 trials)."""
    tracer = Tracer()

    def nothing(x):
        return x

    traced = tracer.wrap("probe", nothing)
    samples = []
    for _ in range(5):
        tracer.clear()
        t0 = time.perf_counter()
        for i in range(calls):
            nothing(i)
        direct = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(calls):
            traced(i)
        wrapped = time.perf_counter() - t0
        samples.append((wrapped - direct) / calls)
    tracer.clear()
    samples.sort()
    return max(samples[len(samples) // 2], 0.0)
