"""Span tracing from outside the program.

The benchmark never edits code under ``src/``.  For a traced run it
replaces a fixed set of public functions and methods with thin wrappers
that record one span per call: a name, start and end times, the span
that was open when the call began (its parent), the request it serves
(the nearest enclosing span opened with an explicit context: one guest
op or one fleet dispatch), a context inherited from that parent
(setup, guarded op, unguarded twin, ...), a tag (the device served;
inherited from the parent when not given) and an optional count (rounds in a
batch).  Spans are kept in flat arrays until the run ends, so a run of
a million rounds costs tens of megabytes, not hundreds.

:meth:`Tracer.summary` folds the spans into totals per (context, name,
tag), and per (context, name, parent name), from which
:mod:`perfbench.layers` computes each layer's time net of the layers
it calls.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Contexts a span can run in; a child inherits its parent's.
CONTEXTS = ("none", "setup", "guarded", "twin")


class Tracer:
    """In-memory span recorder with a call stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._names: Dict[str, int] = {}
        self._tags: Dict[str, int] = {"": 0}
        self.name = array("i")
        self.tag = array("i")
        self.ctx = array("b")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("l")
        self._stack: List[int] = []
        self._patches = Patches()

    # -- recording ----------------------------------------------------------

    def _code(self, table: Dict[str, int], key: str) -> int:
        code = table.get(key)
        if code is None:
            code = table[key] = len(table)
        return code

    def open(self, name: str, tag: str = "",
             context: Optional[str] = None) -> int:
        """Start a span; returns its index (close it with :meth:`close`)."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self.start)
        if context is not None or parent < 0:
            ctx = CONTEXTS.index(context or "none")
            self.root.append(index)
        else:
            ctx = self.ctx[parent]
            self.root.append(self.root[parent])
        self.name.append(self._code(self._names, name))
        self.tag.append(self._code(self._tags, tag) if tag or parent < 0
                        else self.tag[parent])
        self.ctx.append(ctx)
        self.parent.append(parent)
        self.count.append(0)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int, count: int = 0) -> None:
        self.end[index] = self.clock()
        if count:
            self.count[index] = count
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order "
                               f"(innermost open span is {popped})")

    def span(self, name: str, tag: str = "",
             context: Optional[str] = None) -> "_SpanContext":
        """``with tracer.span(...):`` form of :meth:`open`/:meth:`close`."""
        return _SpanContext(self, name, tag, context)

    # -- installing wrappers ------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             tag: Optional[Callable] = None,
             count: Optional[Callable] = None,
             context: Optional[str] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *tag* maps the call's arguments to a tag string; *count* maps
        ``(result, args)`` to a count recorded on the span; *context*
        overrides the context inherited from the parent span.  The
        original is restored by :meth:`uninstall`.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        func = original.__func__ if isinstance(original, staticmethod) \
            else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = tracer.open(name, tag(*args) if tag else "", context)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.close(index, count(result, args) if count else 0)

        self._patches.patch(owner, attr, staticmethod(wrapper)
                            if isinstance(original, staticmethod)
                            else wrapper, original)

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` outright until :meth:`uninstall`."""
        self._patches.patch(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        self._patches.uninstall()

    # -- folding ------------------------------------------------------------

    def summary(self) -> "SpanSummary":
        """Totals per (context, name, tag), plus the same keyed by the
        parent's name, so callers can ask "time in X directly under Y"."""
        if self._stack:
            raise RuntimeError("summary() with spans still open")
        names = {code: name for name, code in self._names.items()}
        tags = {code: tag for tag, code in self._tags.items()}
        out = SpanSummary()
        for i in range(len(self.start)):
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            ctx, name = CONTEXTS[self.ctx[i]], names[self.name[i]]
            row = out.rows[(ctx, name, tags[self.tag[i]])]
            row[0] += 1
            row[1] += duration
            row[2] += self.count[i]
            under = out.under[(ctx, name, names[self.name[p]]
                               if p >= 0 else "")]
            under[0] += 1
            under[1] += duration
        return out


class Patches:
    """Attributes replaced on classes or modules, restored newest first
    by :meth:`uninstall` (or on leaving a ``with`` block)."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement,
              original: object = None) -> None:
        """Set ``owner.attr`` to *replacement*; *original* is what
        :meth:`uninstall` puts back (default: the current value)."""
        self._saved.append((owner, attr, getattr(owner, attr)
                            if original is None else original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class _SpanContext:
    __slots__ = ("tracer", "args", "index")

    def __init__(self, tracer: Tracer, name: str, tag: str,
                 context: Optional[str]):
        self.tracer = tracer
        self.args = (name, tag, context)
        self.index = -1

    def __enter__(self) -> int:
        self.index = self.tracer.open(*self.args)
        return self.index

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.index)


class SpanSummary:
    """Folded spans: ``rows[(ctx, name, tag)] = [calls, total_s, count]``
    and ``under[(ctx, name, parent_name)] = [calls, total_s]``."""

    def __init__(self) -> None:
        self.rows: Dict[Tuple[str, str, str], List[float]] = \
            defaultdict(lambda: [0, 0.0, 0])
        self.under: Dict[Tuple[str, str, str], List[float]] = \
            defaultdict(lambda: [0, 0.0])

    def _sum(self, column: int, name: str, contexts, tag=None) -> float:
        return sum(row[column] for (ctx, n, t), row in self.rows.items()
                   if n == name and ctx in contexts
                   and (tag is None or t == tag))

    def calls(self, name: str, contexts=CONTEXTS, tag=None) -> int:
        return int(self._sum(0, name, contexts, tag))

    def total(self, name: str, contexts=CONTEXTS, tag=None) -> float:
        return self._sum(1, name, contexts, tag)

    def counted(self, name: str, contexts=CONTEXTS, tag=None) -> int:
        return int(self._sum(2, name, contexts, tag))

    def under_parent(self, name: str, parent: str,
                     contexts=CONTEXTS) -> Tuple[int, float]:
        calls, total = 0, 0.0
        for (ctx, n, p), row in self.under.items():
            if n == name and p == parent and ctx in contexts:
                calls += row[0]
                total += row[1]
        return int(calls), total
