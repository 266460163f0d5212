"""Trace sinks: where emitted records go.

``RingBufferSink``
    Bounded in-memory buffer (the default).  Memory use is capped: when
    full, the oldest records are evicted and counted, so a tracer left
    attached to a long run cannot grow without bound.

``JsonlSink``
    Streams each record as one JSON object per line — the interchange
    format consumed by ``repro trace`` and by external tooling.

Any object with an ``emit(record)`` method is a valid sink; the
latency-breakdown aggregator (:mod:`repro.obs.breakdown`) is itself a
sink, so it can consume records live without buffering them all.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, List, Optional, Union


class TraceSink:
    """Base sink: receives every record the tracer emits."""

    def emit(self, record) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; further emits are undefined."""


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` records in memory.

    ``capacity=None`` makes the buffer unbounded (tests and short runs
    only — long runs should keep the bound or stream to JSONL).
    """

    def __init__(self, capacity: Optional[int] = 65536) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        #: Records evicted because the buffer was full.
        self.evicted = 0

    def emit(self, record) -> None:
        if self.capacity is not None and len(self._buffer) == self.capacity:
            self.evicted += 1
        self._buffer.append(record)

    @property
    def records(self) -> List:
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink(TraceSink):
    """Writes records as JSON Lines to a path or open file object.

    Each line is one call of the C encoder (``json.dumps``'s one-shot
    path); ``json.dump`` would stream the same bytes through the
    pure-Python chunked encoder at about twice the cost per record.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self._encode = json.JSONEncoder(separators=(",", ":")).encode
        self.records_written = 0

    def emit(self, record) -> None:
        self._file.write(self._encode(record.to_dict()) + "\n")
        self.records_written += 1

    def close(self) -> None:
        self._file.flush()
        if self._owns_file:
            self._file.close()


def read_jsonl(path: str) -> List[dict]:
    """Load a JSONL trace back into a list of dicts (tooling helper)."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
