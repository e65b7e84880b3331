"""Span tracing from outside the program.

``Tracer.wrap`` replaces a function or method at its module or class
attribute with a wrapper that records one span per call: its name, start,
end and the span that was open when it started. A run makes about 10^7
such calls, so spans are not kept one by one: each call is folded into a
``(span, parent)`` aggregate of call count, total time and self time
(total minus the time of its child spans). ``restore`` puts every
original attribute back.
"""

from __future__ import annotations

import time

ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}   # (name, parent) -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = [[ROOT, 0.0]]        # open spans: [name, child_s]
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def count(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span. ``after(result, args, parent)``
        runs outside the timed interval and may record counts."""
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                parent[1] += dur
                key = (name, parent[0])
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
            if after is not None:
                after(result, args, parent[0])
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, after=None):
        """Trace ``owner.attr`` (a module function or a method defined on
        the class ``owner``) under the span ``name``."""
        self._patch(owner, attr, self.span(name, owner.__dict__[attr], after))

    def wrap_counter(self, owner, attr: str, key: str, when=None):
        """Count calls of ``owner.attr`` without a span; ``when(args)``
        decides whether a call counts."""
        fn = owner.__dict__[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            if when is None or when(args):
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def wrap_argument(self, owner, attr: str, index: int, wrap_arg):
        """Replace argument ``index`` of every ``owner.attr`` call by
        ``wrap_arg(args)``, such as a callback wrapped in a span."""
        fn = owner.__dict__[attr]

        def rewrapped(*args):
            args = list(args)
            args[index] = wrap_arg(args)
            return fn(*args)

        self._patch(owner, attr, rewrapped)

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, total_s, self_s], summed over parents.
        A span nested in itself counts its total once, at the outermost."""
        out: dict[str, list] = {}
        for (name, parent), (calls, total, self_s) in self.spans.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            if parent != name:
                agg[1] += total
            agg[2] += self_s
        return out
