"""In-memory span recorder for the traced benchmark run.

A span records a name, start, end, its parent span and the thread it ran on.
Each thread keeps its own span stack, so spans opened by pool worker threads
nest under their own callers.  A worker thread whose stack is empty takes as
parent the innermost span open on the thread that opened the first span (the
thread blocked in the pool), which is the call that fanned the work out.

Functions are traced by replacing the module attribute their caller looks up
(for example ``torweyl.experiments.eigenvalues``) and restoring it afterwards.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[Span] | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if self._root_stack is None:
                self._root_stack = stack
        return stack

    def _parent_for(self, stack: list[Span]) -> int | None:
        if stack:
            return stack[-1].id
        root = self._root_stack
        return root[-1].id if root and root is not stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sp = Span(next(self._ids), name, self._parent_for(stack),
                  threading.get_ident(), time.perf_counter(), attrs=attrs)
        stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def patch(self, module, attr: str, name: str, attrs=None) -> None:
        """Trace every call of ``module.attr``; ``attrs(*args, **kwargs)``
        returns extra span attributes computed from the call's arguments."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with self.span(name, **extra):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path, **tags) -> None:
        with open(path, "a") as fh:
            for sp in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({**tags, **asdict(sp)}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of the intervals its children cover.

    Children from different threads may overlap each other; the union counts
    every covered instant once.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        pieces = sorted((max(c.start, sp.start), min(c.end, sp.end))
                        for c in children[sp.id])
        covered, lo, hi = 0.0, None, None
        for a, b in pieces:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[sp.id] = sp.duration - covered
    return out
