"""In-memory spans around calls into the package, and a tape that
attributes its nodes and backward time to layers.

Nothing here changes what the package computes: wrappers call the
original function with the original arguments and return its result.
Spans stay in memory until the run writes them out at its end.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from ncrf.autodiff import Tape


class Spans:
    """Named (start, end, parent) intervals with attributes, kept in memory."""

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": idx, "name": name, "parent": parent, "start": time.perf_counter(), **attrs}
        self.records.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        A call made with a ``tape`` keyword other than None records
        ``taped=True``.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, taped=kwargs.get("tape") is not None):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class LayerTape(Tape):
    """A Tape that tags each node with the layer current when it was
    recorded, and times each node's backward closure.

    Set ``layer`` before calling into a layer. After ``backward``,
    ``closure_seconds[layer]`` is the time spent inside that layer's
    closures and ``backward_seconds`` the whole walk; the difference is
    the tape's own bookkeeping (plus the timer calls themselves).
    """

    def __init__(self):
        super().__init__()
        self.layer = "other"
        self.nodes_by_layer: dict[str, int] = {}
        self.closure_seconds: dict[str, float] = {}
        self.backward_seconds = 0.0

    def record(self, out, inputs, backward):
        layer = self.layer
        self.nodes_by_layer[layer] = self.nodes_by_layer.get(layer, 0) + 1
        seconds = self.closure_seconds
        seconds.setdefault(layer, 0.0)
        clock = time.perf_counter

        def timed(g):
            t0 = clock()
            result = backward(g)
            seconds[layer] += clock() - t0
            return result

        super().record(out, inputs, timed)

    def backward(self, loss):
        t0 = time.perf_counter()
        super().backward(loss)
        self.backward_seconds = time.perf_counter() - t0
