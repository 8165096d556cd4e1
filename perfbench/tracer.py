"""Spans around calls into the library, recorded from outside it.

The benchmark never edits ``src/``: :class:`Tracer` replaces a public
function or method with a wrapper for the duration of a ``with
tracer.installed():`` block and restores the original on exit, so an
untraced run executes exactly the library's code.

Every wrapped call opens a span (name, start, end, parent, root).  Spans
nest on one stack, so a span's *self time* is its duration minus the part
of that interval its child spans cover.  Wrappers that share a ``group``
count once: only the outermost call of the group opens a span (a module
forward that calls sub-module forwards is one ``nn.forward``).

Totals are aggregated online per ``(name, context)``, where the context
is the nearest enclosing span whose name is in ``contexts`` (for example
forward time inside the PPO update versus inside rollouts).  Raw spans are
kept in memory, up to ``max_spans``, across :meth:`reset` calls, and
written out by :meth:`dump` once the run is over.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer"]


class Tracer:
    def __init__(self, contexts: tuple[str, ...] = (), max_spans: int = 200_000):
        self.contexts = frozenset(contexts)
        self.max_spans = max_spans
        self._patches: list[tuple] = []
        #: boundaries registered with :meth:`wrap` that the library lacks
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped_spans = 0
        self._next_id = 0
        # open spans: [name, start, child_time, span_id, context, root_id]
        self._stack: list[list] = []
        self._active_groups: set[str] = set()
        self.reset()

    # -- recording ------------------------------------------------------
    def reset(self) -> None:
        """Start new aggregates, counts and samples; kept spans stay."""
        if self._stack:
            raise RuntimeError("cannot reset while a span is open")
        # name -> context -> [total_s, self_s, calls]
        self.agg: dict[str, dict[str | None, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0, 0])
        )
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def add(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name``."""
        self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        """Record one observation of a distribution (median/max later)."""
        self.samples[name].append(value)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        context = name if name in self.contexts else (
            parent[4] if parent is not None else None
        )
        span_id = self._next_id
        self._next_id += 1
        root = parent[5] if parent is not None else span_id
        frame = [name, perf_counter(), 0.0, span_id, context, root]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, child, span_id, context, root = frame
        duration = end - start
        entry = self.agg[name][context]
        entry[0] += duration
        entry[1] += duration - child
        entry[2] += 1
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent_id, root))
        else:
            self.dropped_spans += 1

    # -- wrapping -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, group: str | None = None,
             hook=None) -> None:
        """Trace ``owner.attr`` (a class or a module) while installed.

        ``hook(args, kwargs, result)`` runs after each outermost call and
        records counts; its cost lands outside the span.  A hook that
        returns something other than None replaces the call's result.  A
        boundary the library no longer has is listed in :attr:`missing`.
        """
        if getattr(owner, attr, None) is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, name, group, hook))

    def traced(self, fn, name: str, group: str | None = None, hook=None):
        """``fn`` wrapped so that each outermost call records a span."""
        tracer = self

        def traced(*args, **kwargs):
            if group is not None:
                if group in tracer._active_groups:
                    return fn(*args, **kwargs)
                tracer._active_groups.add(group)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
                if group is not None:
                    tracer._active_groups.discard(group)
            if hook is not None:
                replaced = hook(args, kwargs, result)
                if replaced is not None:
                    return replaced
            return result

        traced.__wrapped__ = fn
        return traced

    def context(self) -> str | None:
        """The context of the innermost open span (None outside any)."""
        return self._stack[-1][4] if self._stack else None

    def innermost(self) -> str | None:
        """The name of the innermost open span (None outside any)."""
        return self._stack[-1][0] if self._stack else None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every registered boundary; restore the originals after.

        Wrappers are built around whatever the attribute holds at install
        time, so a workload's own checking wrapper stays in the call path.
        """
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for owner, attr, name, group, hook in self._patches:
                # Remember the owner's own attribute (not an inherited one)
                # so restoring puts back exactly what was there.
                original = vars(owner).get(attr, _MISSING)
                wrapper = self.traced(getattr(owner, attr), name, group, hook)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(self._installed):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            self._installed.clear()

    # -- reading --------------------------------------------------------
    def total(self, name: str, context: str | None = "*") -> float:
        """Seconds inside ``name`` spans (within ``context``; ``"*"`` = all)."""
        by_context = self.agg.get(name, {})
        if context == "*":
            return sum(v[0] for v in by_context.values())
        return by_context.get(context, (0.0,))[0]

    def self_time(self, name: str, context: str | None = "*") -> float:
        """``total`` minus the time covered by child spans."""
        by_context = self.agg.get(name, {})
        if context == "*":
            return sum(v[1] for v in by_context.values())
        return by_context.get(context, (0.0, 0.0))[1]

    def summary(self) -> dict:
        """Per-span-name totals, self times and call counts."""
        return {
            name: {
                str(context): {"total_s": v[0], "self_s": v[1], "calls": v[2]}
                for context, v in by_context.items()
            }
            for name, by_context in sorted(self.agg.items())
        }

    def dump(self, path, meta: dict) -> None:
        """Write the summary, then one ``[id, name, start, end, parent_id,
        root_id]`` line per kept span, to ``path``."""
        with open(path, "w") as fh:
            fh.write(json.dumps({
                **meta,
                "spans": len(self.spans),
                "dropped_spans": self.dropped_spans,
                "summary": self.summary(),
            }) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


_MISSING = object()
