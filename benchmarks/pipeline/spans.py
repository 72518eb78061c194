"""Spans recorded from outside the program, around calls into each layer.

A :class:`Tracer` replaces public functions and methods with timing
wrappers (:meth:`Tracer.install`) and restores them afterwards
(:meth:`Tracer.uninstall`). Spans are kept in memory and written as JSONL
at the end. A layer's self time is its span's duration minus the part of
that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Span", "Tracer", "self_times"]


@dataclass
class Span:
    """One timed call: name, interval, parent and request id.

    ``request`` is ``(workload, rep, frame, config)``; ``counts`` holds
    work counts taken from the call's arguments and result.
    """

    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: tuple
    counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        workload, rep, frame, config = self.request
        return {
            "id": self.id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": self.parent,
            "request": {
                "workload": workload,
                "rep": rep,
                "frame": frame,
                "config": config,
            },
            "counts": self.counts,
        }


class Tracer:
    """Records nested spans for one rep of one workload (single thread)."""

    def __init__(self, workload: str, rep: int):
        self.workload = workload
        self.rep = rep
        self.frame = -1
        self.config: str | None = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        self._patched_keys: set[tuple[int, str]] = set()

    # ------------------------------------------------------------------
    def set_config(self, label: str | None) -> None:
        """Start a new phase of the request id; frames count from 0 again."""
        self.config = label
        self.frame = -1

    def _open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            name=name,
            start_ns=time.perf_counter_ns(),
            end_ns=0,
            parent=self._stack[-1].id if self._stack else None,
            request=(self.workload, self.rep, self.frame, self.config),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Time the body of a ``with`` block as one span."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Callable | None = None,
        per_frame: bool = False,
    ) -> Callable:
        """A wrapper timing every call of ``fn`` as a span called ``name``.

        ``count(args, result)`` returns the span's work counts;
        ``per_frame`` advances the request id's frame before each call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if per_frame:
                tracer.frame += 1
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span.counts = count(args, result)
            return result

        return wrapper

    def install(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Callable | None = None,
        per_frame: bool = False,
    ) -> None:
        """Replace ``owner.attr`` (a module global or a bound method).

        Installing the same attribute of the same object twice is a no-op,
        so objects shared between simulations are wrapped once.
        """
        key = (id(owner), attr)
        if key in self._patched_keys:
            return
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._patched.append((owner, attr, original, own))
        self._patched_keys.add(key)
        setattr(owner, attr, self.wrap(original, name, count, per_frame))

    def uninstall(self) -> None:
        """Put back everything :meth:`install` replaced, newest first."""
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()
        self._patched_keys.clear()

    @property
    def installed(self) -> list[str]:
        """``type.attr`` of every wrapper currently installed."""
        return [
            f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
            for owner, attr, _, _ in self._patched
        ]

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time in ns per span id: duration minus what children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children[span.id], key=lambda c: c.start_ns):
            lo = max(child.start_ns, cursor)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.end_ns - span.start_ns - covered
    return out
