"""In-memory spans and call counters for the traced run.

Spans are recorded by the benchmark around each call it makes into a layer
of the program; nothing inside the program is instrumented.  They are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections import defaultdict

from hostspeed import clock


def untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans with name, start, end, parent span and item id.

    ``reference(start, end)`` converts a span to reference seconds.
    ``count`` marks a span that times a loop of that many identical calls;
    its per-call time is the duration divided by the count.
    """

    def __init__(self, reference):
        self.reference = reference
        self.origin = clock()
        self.spans: list[list] = []
        self._open: list[int] = []
        self.item: str | None = None

    def begin(self, name: str, count: int = 1) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, clock(), None, parent, self.item, count])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._open.pop()

    def call(self, name: str, fn, *args):
        index = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def per_call(self, name: str, scale: float) -> float:
        """Median per-call time of the named spans, times ``scale``; 0 if none ran."""
        values = [self.reference(s[1], s[2]) / s[5] for s in self.spans if s[0] == name]
        return statistics.median(values) * scale if values else 0.0

    def per_pass(self, name: str, scale: float, parent: str) -> float:
        """Median over ``parent`` spans of the total time in named spans below them."""
        totals: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[0] == name:
                totals[self._ancestor(span, parent)] += self.reference(span[1], span[2])
        return statistics.median(totals.values()) * scale if totals else 0.0

    def _ancestor(self, span: list, name: str) -> int:
        index = span[3]
        while index is not None and self.spans[index][0] != name:
            index = self.spans[index][3]
        return -1 if index is None else index

    def export(self) -> list[dict]:
        return [
            {
                "name": name,
                "start": start - self.origin,
                "end": end - self.origin,
                "parent": parent,
                "item": item,
                "count": count,
            }
            for name, start, end, parent, item, count in self.spans
        ]


class CallCounter:
    """Counts meet, join and rank calls made through a wrapped lattice."""

    def __init__(self):
        self.counts = {"meet": 0, "join": 0, "rank": 0}

    def _wrap(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def family(self, family):
        """A copy of ``family`` whose lattice counts every meet, join and rank call."""
        lattice = family.lattice
        counted = dataclasses.replace(
            lattice,
            meet=self._wrap("meet", lattice.meet),
            join=self._wrap("join", lattice.join),
            rank=self._wrap("rank", lattice.rank),
        )
        return dataclasses.replace(family, lattice=counted)

    def take(self) -> dict[str, int]:
        out = dict(self.counts)
        for key in self.counts:
            self.counts[key] = 0
        return out
