"""Kernel work per operation: a machine-independent performance gate.

Sub-steps that run strictly in sequence are delegated with ``yield from``;
only real concurrency is spawned with ``engine.process``.  These tests
count kernel spawns (by wrapping ``Engine.process``) and kernel sequence
numbers (every scheduled event or deferred continuation takes one) per
operation on two deterministic runs, and bound each count just above its
measured value.  A spawn-and-wait put back on a per-command or per-batch
path adds a spawn and two sequence numbers each time it runs and fails
here by name; the counts do not depend on the host's speed.
"""

import pytest

from repro.cluster import DevicePool
from repro.gateway.driver import run_serving
from repro.wal import BaWAL
from tests.helpers import Platform, small_ba_params

#: Upper bounds per operation, each just above its measured value
#: (gateway: 1.225 spawns and 28.95 sequence numbers per command; BA-WAL:
#: 0.02 spawns and 9.03 sequence numbers per append+commit).
BOUNDS = {
    ("gateway", "spawns"): 1.25,
    ("gateway", "sequence"): 29.25,
    ("ba_wal", "spawns"): 0.05,
    ("ba_wal", "sequence"): 9.25,
}


class KernelCounter:
    """Counts ``engine.process`` spawns and sequence numbers from now on."""

    def __init__(self, engine):
        self.engine = engine
        self.spawns = 0
        self._sequence0 = engine._sequence
        spawn = engine.process

        def process(generator, name=""):
            self.spawns += 1
            return spawn(generator, name=name)

        engine.process = process

    @property
    def sequence(self):
        return self.engine._sequence - self._sequence0


def gateway_work():
    """``repro serve``'s pool and gateway configuration (3 nodes, seed 11,
    GatewayConfig defaults: rf 2, pipeline depth 8), 32 clients x 64
    commands, counted from server start to stop."""
    pool = DevicePool(devices=3, seed=11)
    counter = KernelCounter(pool.engine)
    result = run_serving(pool, clients=32, commands_per_client=64)
    assert result.replies == result.commands == 2048
    return counter, result.commands


def ba_wal_work():
    """500 sequential append+commit pairs of 100 B on one BA-WAL."""
    platform = Platform(ba_params=small_ba_params(64))
    engine = platform.engine
    wal = BaWAL(engine, platform.api, area_pages=1024)
    engine.run_process(wal.start())
    operations = 500

    def loop():
        for _ in range(operations):
            lsn = yield from wal.append(b"x" * 100)
            yield from wal.commit(lsn)

    counter = KernelCounter(engine)
    engine.run_process(loop())
    engine.run()
    return counter, operations


RUNS = {"gateway": gateway_work, "ba_wal": ba_wal_work}


@pytest.fixture(scope="module")
def measured():
    return {name: run() for name, run in RUNS.items()}


@pytest.mark.parametrize("run,count", sorted(BOUNDS),
                         ids=[f"{run}-{count}" for run, count in sorted(BOUNDS)])
def test_kernel_work_per_operation(measured, run, count):
    counter, operations = measured[run]
    per_op = getattr(counter, count) / operations
    bound = BOUNDS[(run, count)]
    assert per_op <= bound, (
        f"{run}: {per_op:.3f} kernel {count} per operation exceeds {bound}; "
        "was a sequential sub-step spawned instead of delegated?")

