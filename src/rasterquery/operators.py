"""The Map operator of the canvas algebra (dissect + transform) in one-pass
and two-pass forms, plus result-buffer compaction.

Only the Map is left of the algebra here, and no query runs it: queries are
fused layer-at-a-time kernels in ``engine`` and collect their results as
sets. It stays because perfbench's tracer wraps ``map_one_pass``,
``compact`` and ``map_two_pass`` on ``engine`` by name; it goes together
with those tracer entries.
"""

from __future__ import annotations

from .errors import DataError, InternalInvariantError


# ---------------------------------------------------------------------------
# Map: one-pass (slotted) and two-pass (count then write)
# ---------------------------------------------------------------------------

class ResultBuffer:
    """Fixed-capacity slot array; each result occupies one unique slot."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise DataError("negative result-buffer capacity")
        self.slots: list = [None] * capacity

    @property
    def capacity(self) -> int:
        return len(self.slots)

    def write(self, slot: int, entry):
        if not 0 <= slot < len(self.slots):
            raise InternalInvariantError(
                f"map slot {slot} outside buffer of {len(self.slots)}")
        cur = self.slots[slot]
        if cur is None:
            self.slots[slot] = entry
        elif cur != entry:
            raise InternalInvariantError(
                f"slot {slot} written with conflicting results {cur!r} / {entry!r}")


def map_one_pass(stream, n_max: int, slot_fn) -> ResultBuffer:
    """Write each satisfied result into its unique slot; duplicates of the
    same result collapse idempotently."""
    buf = ResultBuffer(n_max)
    for entry in stream:
        buf.write(slot_fn(entry), entry)
    return buf


def compact(buffer: ResultBuffer) -> list:
    """Dense result list: non-null slots in ascending slot order."""
    return [e for e in buffer.slots if e is not None]


class TwoPassResult(list):
    iterations: int = 1


def map_two_pass(stream_factory, ceiling: int | None = None) -> TwoPassResult:
    """Count distinct results first, then write exactly that many entries.

    When the distinct count exceeds the configured ceiling the write pass
    runs in multiple iterations, each re-reading the stream and emitting at
    most ``ceiling`` entries; the concatenation equals a one-pass run.
    """
    seen = set()
    for entry in stream_factory():
        seen.add(entry)
    count = len(seen)
    out = TwoPassResult()
    if count == 0:
        out.iterations = 1
        return out
    if ceiling is None or ceiling >= count:
        out.extend(sorted(seen))
        out.iterations = 1
        return out
    iterations = -(-count // ceiling)
    for it in range(iterations):
        chunk = set()
        for entry in stream_factory():
            chunk.add(entry)
        ordered = sorted(chunk)
        out.extend(ordered[it * ceiling:(it + 1) * ceiling])
    out.iterations = iterations
    return out
