"""In-memory spans, recorded from outside the program under test.

The runtime accepts any object with the runner surface, so a thin proxy
around the runner (and around the pipeline and tables it hands out)
times every seam ``run_workload`` / ``run_stream`` reach.  Nothing under
``src/`` knows it is being traced; end-to-end metrics never go through
these proxies.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

CLASSIFY_SPANS = {
    "classify_columnar": "runtime.batch.classify_columnar",
    "process_batch": "runtime.batch.process_batch",
}
PROCESS_BATCHES_SPAN = "runtime.shard.process_batches"
DRAIN_SPAN = "runtime.shard.drain"
ADVANCE_SPAN = "runtime.lifecycle.advance_clock"
FLOWMOD_SPANS = {
    "add": "core.lookup_table.add",
    "remove": "core.lookup_table.remove",
}
LOOKUP_SPANS = {
    "lookup": "core.lookup_table.lookup",
    "lookup_batch": "core.lookup_table.lookup_batch",
}


class Tracer:
    """Spans as ``[id, parent, name, start, end, pass]``; ids index the
    list, ``pass`` is whatever :attr:`pass_index` was when it opened."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_index = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        self.spans.append(
            [span_id, parent, name, time.perf_counter(), 0.0, self.pass_index]
        )
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self.begin(name)
        try:
            yield
        finally:
            self.end(span_id)

    def timed(self, name: str, call: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self.begin(name)
            try:
                return call(*args, **kwargs)
            finally:
                self.end(span_id)

        return traced

    # -- reading the record --------------------------------------------

    def durations(self, *names: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] in names]

    def self_times(self) -> dict[str, float]:
        """Per span name, over the spans of passes (``pass >= 0``):
        duration minus the part child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for span_id, _, name, start, end, pass_index in self.spans:
            if pass_index >= 0:
                totals[name] = totals.get(name, 0.0) + (end - start) - child_time[span_id]
        return totals

    def records(self, workload: str) -> list[dict]:
        keys = ("id", "parent", "name", "start", "end", "pass")
        return [{**dict(zip(keys, span)), "workload": workload} for span in self.spans]


class _Proxy:
    """Forward everything; subclasses time a few names on the way."""

    def __init__(self, target: Any, tracer: Tracer) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)

    def _time(self, spans: dict[str, str]) -> None:
        for attr, span_name in spans.items():
            call = getattr(self._target, attr, None)
            if call is not None:
                object.__setattr__(self, attr, self._tracer.timed(span_name, call))


class TracedTable(_Proxy):
    def __init__(self, target: Any, tracer: Tracer, spans: dict[str, str]) -> None:
        super().__init__(target, tracer)
        self._time(spans)


class TracedPipeline(_Proxy):
    """Hands out :class:`TracedTable` proxies timing ``spans``."""

    def __init__(self, target: Any, tracer: Tracer, spans: dict[str, str]) -> None:
        super().__init__(target, tracer)
        object.__setattr__(self, "_spans", spans)
        object.__setattr__(self, "_tables", {})

    def table(self, table_id: int) -> TracedTable:
        proxy = self._tables.get(table_id)
        if proxy is None:
            proxy = self._tables[table_id] = TracedTable(
                self._target.table(table_id), self._tracer, self._spans
            )
        return proxy


class TracedRunner(_Proxy):
    """The runner surface, with classify / advance / flow-mod spans.

    ``process_batches`` and ``submit_batch`` appear only when the real
    runner has them, because ``run_workload`` and ``run_stream`` pick
    their path by probing for those names.
    """

    def __init__(self, target: Any, tracer: Tracer) -> None:
        super().__init__(target, tracer)
        self._time({**CLASSIFY_SPANS, "advance_clock": ADVANCE_SPAN})
        object.__setattr__(
            self, "pipeline", TracedPipeline(target.pipeline, tracer, FLOWMOD_SPANS)
        )
        if hasattr(target, "process_batches"):
            object.__setattr__(self, "process_batches", self._process_batches)

    def _process_batches(self, batches: Any) -> Iterator:
        stream = self._target.process_batches(batches)
        tracer = self._tracer
        while True:
            span_id = tracer.begin(PROCESS_BATCHES_SPAN)
            try:
                results = next(stream)
            except StopIteration:
                # The draining call that found nothing left is not a batch.
                tracer.end(span_id)
                tracer.spans[span_id][2] = DRAIN_SPAN
                return
            tracer.end(span_id)
            yield results


def percentile(values: list[float], quantile: float) -> float:
    """Ceil-rank empirical percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(quantile * len(ordered))) - 1]
