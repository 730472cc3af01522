"""Outside-in span recording for the pipeline benchmark.

The program under test is not instrumented for this benchmark: a
:class:`Tracer` replaces the public names the pipeline calls through
(module functions and class methods) with wrappers that open a span
around the original call and record work counters from its arguments
and result.  Spans live in memory and are written once, at the end of
a traced run.

A layer's *self time* is its spans' durations minus the part covered
by their direct child spans; the self times of all layers plus the
self time of the request root spans add up to the request wall time
exactly, so ``trace.unaccounted_ratio`` is the root's share.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

#: Name of the span that encloses one whole request.
REQUEST = "request"


@dataclass
class Span:
    """One timed call: ``parent`` indexes :attr:`Tracer.spans` (-1 = root)."""

    name: str
    start: float
    end: float
    parent: int
    request: int


#: A counter hook runs the wrapped call itself (``call()``) so it can
#: look at state before and after; it returns the call's result.
CounterHook = Callable[["Tracer", str, Callable[[], Any], tuple, dict], Any]


class Tracer:
    """Records nested spans and per-layer counters on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: Values a hook leaves for the request loop (e.g. cache size).
        self.notes: dict[str, Any] = {}
        #: Wrap targets that did not exist: ``(layer, "owner.attr")``.
        self.missing: list[tuple[str, str]] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as a span of layer ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def count(self, layer: str, key: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``key`` of ``layer``."""
        self.counters[layer][key] += amount

    def wrap(
        self, owner: Any, attr: str, layer: str,
        hook: CounterHook | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attr`` must be defined on ``owner`` itself (the name callers
        actually resolve).  When it is not, nothing is patched and the
        target is listed in :attr:`missing`, so a moved call site shows
        up as an absent layer instead of an exception.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append((layer, f"{_owner_name(owner)}.{attr}"))
            return

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(layer):
                if hook is None:
                    return original(*args, **kwargs)
                return hook(
                    self, layer, lambda: original(*args, **kwargs),
                    args, kwargs,
                )

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped name, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self) -> dict[str, int]:
        """Number of spans per layer."""
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def to_json(self) -> dict[str, Any]:
        """Spans and counters in a JSON-ready shape."""
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.request]
                for s in self.spans
            ],
            "counters": {k: dict(v) for k, v in self.counters.items()},
            "missing": [list(m) for m in self.missing],
        }


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: span durations minus their children's.

    Spans on one thread nest properly, so the direct children of a span
    cover disjoint parts of it and subtracting their durations leaves
    exactly the time spent in the layer's own code.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s, child in zip(spans, covered):
        out[s.name] += (s.end - s.start) - child
    return dict(out)


def _owner_name(owner: Any) -> str:
    return getattr(owner, "__qualname__", None) or getattr(
        owner, "__name__", repr(owner)
    )
