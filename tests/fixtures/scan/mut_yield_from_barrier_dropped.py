"""Mutant: the delegated barrier dropped before the ack.

The clean ``yield from`` fixture with the worker's
``yield from self.wal.commit(lsn)`` removed: the ack is published with
no barrier on its path.  Expected: exactly one DUR001 at
``ack.succeed()`` in ``_serve``.
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
        payload, ack = item
        yield from self.wal.append(payload)
        ack.succeed()  # BUG: acked with no barrier on the path
        return None
