"""A tape that traces each backward closure, for the memory tests.

A test that wraps a closure must not itself keep what the closure frees:
a wrapper that holds the adjoint it passes on, or a copy of the node
list, keeps every activation alive and hides each release. This tape
does neither, so the memory it reports is the memory a plain ``Tape``
would hold.
"""

from __future__ import annotations

import tracemalloc

from ncrf.autodiff import Tape


class ClosurePeakTape(Tape):
    """A Tape whose ``backward`` calls ``on_call(i)`` just before node i's
    closure runs and records ``peaks[i] = (start, peak)``: the traced bytes
    when that closure started and the most it held while it ran, both above
    the traced bytes when ``backward`` started.

    Use it between ``tracemalloc.start()`` and ``tracemalloc.stop()``. It
    resets tracemalloc's peak before each closure, so a caller that wants
    the whole step's peak takes the largest of ``peaks`` and its own.
    """

    def __init__(self, on_call=None):
        super().__init__()
        self.peaks: dict[int, tuple[int, int]] = {}
        self._on_call = on_call
        self._base = [0]

    def record(self, out, inputs, backward):
        i, peaks, on_call, base = len(self), self.peaks, self._on_call, self._base

        def traced(g):
            box = [g]  # pass the adjoint on without a local that outlives the call
            del g
            if on_call is not None:
                on_call(i)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = backward(box.pop())
            peaks[i] = (start - base[0], tracemalloc.get_traced_memory()[1] - base[0])
            return result

        traced.__wrapped__ = backward
        super().record(out, inputs, traced)

    def captured(self, i: int) -> dict:
        """Node i's closure variables by name, read before ``backward`` runs."""
        fn = self._nodes[i][2].__wrapped__
        cells = {}
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            try:
                cells[name] = cell.cell_contents
            except ValueError:  # a variable the closure names but the layer never set
                pass
        return cells

    def backward(self, loss):
        self._base[0] = tracemalloc.get_traced_memory()[0]
        super().backward(loss)
