"""Observation logs: the one recorded form of a receiver's event stream.

A recording receiver (``RliReceiver(observation_log=ObservationColumns())``,
or a deployment's ``record_observations=True``) appends one event per
observed packet — ``(REF_OBS, stream, now, delay)`` or ``(REG_OBS, stream,
now, flow_key, truth)`` — and skips live estimation: replaying the log
(:mod:`repro.core.replay`) rebuilds its per-flow tables, in full or one
flow shard at a time.

:class:`ObservationColumns` stores that stream as eight flat typed columns
(tag, stream, time, value, and the five flow-key fields) — ~49 bytes per
event where a list of tuples costs ~200, no per-event objects, and
genuinely copy-on-write under ``fork`` (iterating a tuple list would dirty
its pages through reference counts), which matters for the
prepared-artifact memory that forked shard workers inherit and that
distributed workers rebuild per process.  Iteration yields the canonical
event tuples, every ``float`` and ``int`` round-tripping bit-exactly
through the typed arrays, so replay reads the columns and any plain
sequence of events alike.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from .receiver import REF_OBS, REG_OBS

__all__ = ["ObservationColumns"]

_NO_KEY = (0, 0, 0, 0, 0)  # key columns for reference rows (never read back)


class ObservationColumns:
    """A columnar observation log.

    The per-object receiver path ``append``s events, the columnar one
    :meth:`extend_batch`es them; replay needs only ``len`` and iteration,
    which reconstructs the canonical event tuples.
    """

    __slots__ = ("_tags", "_streams", "_times", "_values", "_keys")

    def __init__(self, events=()):
        self._tags = array("b")
        self._streams = array("q")
        self._times = array("d")
        self._values = array("d")
        self._keys = tuple(array("q") for _ in range(5))
        for event in events:
            self.append(event)

    # ------------------------------------------------------------------

    def append(self, event: tuple) -> None:
        tag = event[0]
        if tag == REF_OBS:
            _, stream, now, value = event
            key = _NO_KEY
        elif tag == REG_OBS:
            _, stream, now, key, value = event
        else:
            raise ValueError(f"unknown observation event tag: {tag!r}")
        self._tags.append(tag)
        self._streams.append(stream)
        self._times.append(now)
        self._values.append(value)
        for column, field in zip(self._keys, key):
            column.append(field)

    def extend_batch(self, tags, streams, times, values, keys) -> None:
        """Bulk-append events from parallel numpy columns.

        ``keys`` is a 5-tuple of int64 columns (zeros on reference rows,
        mirroring ``_NO_KEY``).  Every value round-trips bit-exactly
        through the typed arrays, so a bulk append leaves the log
        byte-identical to the equivalent sequence of :meth:`append` calls
        — the columnar receiver fast path records through this.
        """
        import numpy as np

        self._tags.frombytes(np.ascontiguousarray(tags, dtype=np.int8).tobytes())
        self._streams.frombytes(np.ascontiguousarray(streams, dtype=np.int64).tobytes())
        self._times.frombytes(np.ascontiguousarray(times, dtype=np.float64).tobytes())
        self._values.frombytes(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        for column, field in zip(self._keys, keys):
            column.frombytes(np.ascontiguousarray(field, dtype=np.int64).tobytes())

    def __len__(self) -> int:
        return len(self._tags)

    def __iter__(self) -> Iterator[tuple]:
        keys = self._keys
        for i, tag in enumerate(self._tags):
            if tag == REF_OBS:
                yield (REF_OBS, self._streams[i], self._times[i], self._values[i])
            else:
                yield (
                    REG_OBS,
                    self._streams[i],
                    self._times[i],
                    (keys[0][i], keys[1][i], keys[2][i], keys[3][i], keys[4][i]),
                    self._values[i],
                )

    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Payload bytes held by the columns (itemsize × length each)."""
        columns = (self._tags, self._streams, self._times, self._values, *self._keys)
        return sum(len(c) * c.itemsize for c in columns)

    def arrays(self) -> dict:
        """Zero-copy numpy views of the columns, for analysis tooling."""
        import numpy as np

        return {
            "tag": np.frombuffer(self._tags, dtype=np.int8),
            "stream": np.frombuffer(self._streams, dtype=np.int64),
            "time": np.frombuffer(self._times, dtype=np.float64),
            "value": np.frombuffer(self._values, dtype=np.float64),
            "key": tuple(
                np.frombuffer(column, dtype=np.int64) for column in self._keys
            ),
        }

    # typed arrays pickle compactly by value; nothing special needed, but
    # keep the state explicit so __slots__ classes stay pickle-stable
    def __getstate__(self):
        return (self._tags, self._streams, self._times, self._values, self._keys)

    def __setstate__(self, state):
        self._tags, self._streams, self._times, self._values, self._keys = state

    def __repr__(self) -> str:
        return f"ObservationColumns(events={len(self)}, bytes={self.nbytes})"
