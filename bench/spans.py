"""In-memory spans recorded around calls into the library.

A span is (name, trace id, parent index, start, end) with times from
time.perf_counter.  Spans of one replicate share a trace id.  Nothing is
written until the caller dumps the spans at the end of a run, so tracing
adds only the context-manager cost to each call.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_DISABLED = contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, trace_id=None):
        """Context manager timing one call; a no-op while disabled."""
        if not self.enabled:
            return _DISABLED
        return self._record(name, trace_id)

    @contextlib.contextmanager
    def _record(self, name, trace_id):
        parent = self._open[-1] if self._open else None
        if trace_id is None and parent is not None:
            trace_id = self.spans[parent][1]
        index = len(self.spans)
        record = [name, trace_id, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[tuple[str, object, float]]:
        """(name, trace id, seconds) per span: its duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (name, trace_id, end - start - covered[i])
            for i, (name, trace_id, _, start, end) in enumerate(self.spans)
        ]

    def per_trace(self, layer_of) -> dict[str, list[float]]:
        """Self seconds summed per trace id and layer; layer_of(name) -> layer or None."""
        sums: dict[tuple, float] = defaultdict(float)
        for name, trace_id, seconds in self.self_times():
            layer = layer_of(name)
            if layer is not None:
                sums[(layer, trace_id)] += seconds
        out: dict[str, list[float]] = defaultdict(list)
        for (layer, _), seconds in sums.items():
            out[layer].append(seconds)
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [
                    {"name": n, "trace": tid, "parent": p, "start": s, "end": e}
                    for n, tid, p, s, e in self.spans
                ],
                fh,
            )
