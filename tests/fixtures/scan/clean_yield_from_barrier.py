"""Clean fixture: barriers reached through ``yield from`` delegation.

Sub-steps run inline (``yield from``) rather than as spawned processes.
The WAL's commit reaches its BA_SYNC through a helper, and the worker's
ack path reaches the commit through another; neither helper is
annotated, so both are kernel generators only because a kernel
generator delegates to them.  Expected: zero findings.
"""

from typing import Iterator

from repro.sim.engine import Event


class DelegatingWAL:
    def __init__(self, engine, api) -> None:
        self.engine = engine
        self.api = api
        self._synced = 0
        self._tail = 0

    def _barrier(self):
        yield from self.api.ba_sync(0)
        return None

    def commit(self, lsn: int):
        if lsn <= self._synced:
            return None  # durable-guard fast path: already synced
        target = self._tail
        yield from self._barrier()
        self._synced = max(self._synced, target)
        return None


class DelegatingWorker:
    def __init__(self, engine, wal, queue) -> None:
        self.engine = engine
        self.wal = wal
        self.queue = queue

    def run(self) -> Iterator[Event]:
        while True:
            item = yield self.queue.get()
            if item is None:
                return None
            yield from self._serve(item)

    def _serve(self, item):
        lsn, ack = item
        # Interprocedural barrier through two levels of delegation.
        yield from self.wal.commit(lsn)
        ack.succeed()
        return None
