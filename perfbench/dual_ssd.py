"""``dual-ssd``: byte and block access on ONE 2B-SSD at once (the paper's case).

No gateway, cluster or TCP.  One shrunken 2B-SSD carries:

* an :class:`~repro.db.lsm.LSMTree` whose WAL is a
  :class:`~repro.wal.BaWAL` on the byte path (MMIO into the BA-buffer,
  ``BA_SYNC`` per commit, ``BA_FLUSH`` per segment flip) and whose
  SSTables live on the same drive's block side through
  :class:`~repro.db.lsm.storage.DeviceTableStorage`;
* beside it, seeded random 4 KiB ``device.read`` calls over a block
  region whose pages each carry their LPN.

Set-up stamps the block region one page at a time, in a seeded random
order, interleaved with the LSM bulk load, so NAND blocks hold
long-lived block pages beside short-lived LSM pages.  The blocks garbage
collection picks during the load therefore still hold valid pages, and
it has to copy them (``ftl.waf`` above 1).

The program's block read model charges the profile's read latency and
takes the data from the write cache or the FTL map without a timed NAND
read, so block reads never reach NAND; NAND page reads come from
garbage-collection copies and BA pins only.

Sizes (chosen so LSM compaction, BA segment flips and FTL garbage
collection each run several times per round; the full-size geometry
never collects garbage):

* NAND 4 channels x 2 dies x 8 blocks x 32 pages x 4 KiB = 8 MiB
  physical, 1638 logical pages after 20% over-provisioning; DRAM write
  cache 256 KiB; command latency jitter +-10% (so the block-read latency
  is a distribution, not a constant);
* BA-buffer 8 MiB with 8 mapping entries (Table I defaults); the BA-WAL
  uses 2 of them, 64 KiB segments over a 512 KiB log area (LPN 0-127);
* LSM: 2000 keys x 256 B values (~0.5 MiB live, 8x the 64 KiB memtable),
  tables at LPN 128 up to the block region;
* block region: the last 512 pages (2 MiB) of the drive.

Load: 16 YCSB-A clients (zipfian 0.99, 50% reads / 50% updates), each
owning every 16th key so its replies follow a per-key model exactly,
plus 4 block readers; all 20 are closed-loop kernel processes (one op in
flight each).  Sixteen writers contend for the BA-WAL's insert lock, so
a put's latency is a distribution rather than one constant.

After the load, one lone client runs :data:`LONE_OPS` more ops of the same
kinds one at a time on the otherwise idle drive.  Their wall round trips
give ``wall_rtt_p50_ms``: the host time one op costs, without the other
clients' events that run while a loaded op is in flight.
"""

from __future__ import annotations

import dataclasses
import random
import time
import types

import harness

#: The per-layer metrics of the layers this workload exercises.
PER_LAYER = (harness.WINDOW_METRICS | harness.TRACE_METRICS
             | harness.self_shares("sim", "wal", "db", "core", "host", "pcie",
                                   "ssd", "ftl", "nand", "obs")
             | {"db.lsm.compactions", "db.lsm.write_amp",
                "db.lsm.filter_skip_ratio", "ssd.block_reads", "ftl.waf",
                "ftl.gc_runs", "ftl.foreground_gc_stalls",
                "nand.page_reads_per_op", "nand.page_programs_per_op",
                "nand.read_retries", "obs.enabled_overhead"})

DEVICE_SEED = 303
VALUE_BYTES = 256
RECORDS = 2000
YCSB_CLIENTS = 16
YCSB_OPS_PER_CLIENT = 1375
READERS = 4
READS_PER_READER = 2750  # >= 10 reads beyond the p999
BLOCK_PAGES = 512
LONE_OPS = 2000
WAL_SEGMENT_BYTES = 64 * 1024
WAL_AREA_PAGES = 128
MEMTABLE_BYTES = 64 * 1024
ZIPF_THETA = 0.99
PAGE = 4096


def key_name(index: int) -> str:
    return f"user{index:06d}"


def page_pattern(lpn: int) -> bytes:
    return lpn.to_bytes(4, "little") * (PAGE // 4)


class Inputs:
    """Everything the seed decides: load values, the block region's
    stamping order, and each client's op list.  An op is ``(kind,
    target, value)``: ``("put"|"get", key, value)`` with the value a get
    must return, or ``("read", page, None)``."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"dual-ssd:{seed}")
        self.load = [(key_name(i), rng.randbytes(VALUE_BYTES))
                     for i in range(RECORDS)]
        self.stamp_order = rng.sample(range(BLOCK_PAGES), BLOCK_PAGES)
        self.model = dict(self.load)
        own = RECORDS // YCSB_CLIENTS
        weights = [1.0 / (rank + 1) ** ZIPF_THETA for rank in range(own)]
        cum, total = [], 0.0
        for weight in weights:
            total += weight
            cum.append(total)
        keys = []
        for client in range(YCSB_CLIENTS):
            owned = [key_name(i) for i in range(client, RECORDS, YCSB_CLIENTS)]
            rng.shuffle(owned)  # scatter the hot ranks over the key space
            keys.append(owned)
        self.clients = [[self._ycsb(rng, key) for key in
                         rng.choices(owned, cum_weights=cum, k=YCSB_OPS_PER_CLIENT)]
                        for owned in keys]
        self.readers = [[("read", rng.randrange(BLOCK_PAGES), None)
                         for _ in range(READS_PER_READER)]
                        for _ in range(READERS)]
        self.lone = [self._ycsb(rng, rng.choices(rng.choice(keys), cum_weights=cum)[0])
                     if rng.random() < 0.5 else
                     ("read", rng.randrange(BLOCK_PAGES), None)
                     for _ in range(LONE_OPS)]
        self.user_bytes = sum(len(key) + len(value)
                              for ops in self.clients
                              for kind, key, value in ops if kind == "put")

    def _ycsb(self, rng: random.Random, key: str) -> tuple:
        if rng.random() < 0.5:
            return ("get", key, self.model[key])
        value = rng.randbytes(VALUE_BYTES)
        self.model[key] = value
        return ("put", key, value)

    @property
    def ops(self) -> int:
        return YCSB_CLIENTS * YCSB_OPS_PER_CLIENT + READERS * READS_PER_READER


class Drive:
    """One shrunken 2B-SSD with its host, the BA-WAL and the LSM tree."""

    def __init__(self) -> None:
        from repro.core import PowerController, TwoBApiClient, TwoBSSD
        from repro.db.lsm import LSMTree
        from repro.db.lsm.sst import SSTable
        from repro.db.lsm.storage import DeviceTableStorage
        from repro.host import HostCPU
        from repro.nand.geometry import NandGeometry
        from repro.pcie import PcieLink
        from repro.sim import Engine, RngStreams
        from repro.ssd.profiles import TWOB_BASE
        from repro.wal import BaWAL

        # SSTable ids come from a process-global counter and land in the
        # manifest JSON, whose length shapes device write timing.  Start
        # every drive at 0 (as repro.bench.experiments does) so each
        # round replays identically.
        SSTable._COUNTER = 0
        profile = dataclasses.replace(
            TWOB_BASE, name="2B-MINI",
            geometry=NandGeometry(channels=4, dies_per_channel=2,
                                  blocks_per_die=8, pages_per_block=32),
            cache_bytes=256 * 1024, latency_jitter=0.1)
        self.engine = engine = Engine()
        rng = RngStreams(DEVICE_SEED)
        link = PcieLink(engine)
        cpu = HostCPU(engine, link)
        self.device = TwoBSSD(engine, profile=profile, rng=rng.fork("2b-ssd"))
        self.api = TwoBApiClient(engine, cpu, self.device)
        power = PowerController(engine)
        power.attach_cpu(cpu)
        power.attach_link(link)
        power.attach_device(self.device)
        # collect_stats reads exactly these platform attributes.
        self.platform = types.SimpleNamespace(engine=engine, cpu=cpu,
                                              link=link, power=power)
        self.block_base = self.device.logical_pages - BLOCK_PAGES
        self.wal = BaWAL(engine, self.api, start_lpn=0,
                         area_pages=WAL_AREA_PAGES,
                         segment_bytes=WAL_SEGMENT_BYTES)
        storage = DeviceTableStorage(
            engine, self.device, base_lpn=WAL_AREA_PAGES,
            capacity_pages=self.block_base - WAL_AREA_PAGES)
        self.lsm = LSMTree(engine, self.wal, storage,
                           memtable_bytes=MEMTABLE_BYTES, rng=rng.fork("lsm"))

    def stats(self) -> dict:
        from repro.observability import collect_stats

        return collect_stats(self.platform)

    def set_up(self, inputs: Inputs) -> None:
        """Start the WAL; load every key while stamping the block region,
        one page after every ``RECORDS // BLOCK_PAGES`` puts; drain."""
        engine, device = self.engine, self.device
        engine.run_process(self.wal.start())
        every = RECORDS // BLOCK_PAGES

        def fill():
            pages = iter(inputs.stamp_order)
            for index, (key, value) in enumerate(inputs.load):
                yield engine.process(self.lsm.put(key, value))
                page = next(pages, None) if index % every == 0 else None
                if page is not None:
                    lpn = self.block_base + page
                    yield engine.process(device.write(lpn, page_pattern(lpn)))
            yield engine.process(device.drain())
            return None

        engine.run_process(fill())
        engine.run()


class Load:
    """The timed load's client processes and what they observed."""

    def __init__(self, drive: Drive) -> None:
        self.drive = drive
        self.writes: list = []
        self.reads: list = []
        self.wall_rtts: list = []
        self.failed = 0
        self.examples: list = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(what)

    def _op(self, kind: str, target, value):
        """Process: one op, checked.  Returns its sim latency."""
        drive = self.drive
        engine = drive.engine
        sent = engine.now
        if kind == "put":
            yield engine.process(drive.lsm.put(target, value))
        elif kind == "get":
            got = yield engine.process(drive.lsm.get(target))
            if got != value:
                self._fail(f"GET {target}: got {got!r:.40}, expected {value!r:.40}")
        else:
            lpn = drive.block_base + target
            data = yield engine.process(drive.device.read(lpn, PAGE))
            if data != page_pattern(lpn):
                self._fail(f"block read of LPN {lpn} returned other bytes")
        return engine.now - sent

    def client(self, ops: list):
        """A loaded client: records put and block-read sim latencies."""
        engine = self.drive.engine
        for op in ops:
            latency = yield engine.process(self._op(*op))
            if op[0] == "put":
                self.writes.append(latency)
            elif op[0] == "read":
                self.reads.append(latency)
        return None

    def lone(self, ops: list):
        """The lone client: records each op's wall round trip."""
        engine, perf = self.drive.engine, time.perf_counter
        for op in ops:
            sent = perf()
            yield engine.process(self._op(*op))
            self.wall_rtts.append(perf() - sent)
        return None

    def run(self, inputs: Inputs) -> float:
        """Run every loaded client; returns the sim seconds taken."""
        engine = self.drive.engine
        start = engine.now
        procs = [engine.process(self.client(ops), name=f"pb-ycsb-{i}")
                 for i, ops in enumerate(inputs.clients)]
        procs += [engine.process(self.client(ops), name=f"pb-reader-{i}")
                  for i, ops in enumerate(inputs.readers)]
        engine.run(until=engine.all_of(procs))
        sim_seconds = engine.now - start
        engine.run()
        return sim_seconds

    def run_lone(self, inputs: Inputs) -> None:
        self.drive.engine.run_process(self.lone(inputs.lone))
        self.drive.engine.run()

    def read_back(self, inputs: Inputs) -> None:
        """Final LSM read-back: every key must hold the model's value."""
        engine, lsm = self.drive.engine, self.drive.lsm

        def check():
            for key, value in inputs.model.items():
                got = yield engine.process(lsm.get(key))
                if got != value:
                    self._fail(f"read-back {key}: got {got!r:.40}")
            return None

        engine.run_process(check())
        engine.run()


class Window(harness.Window):
    """Probe callback for :func:`one_round` (``probe(phase, drive, load)``)."""

    def counts(self, drive: Drive, _load) -> dict:
        """The drive's public counters (quiescent kernel only)."""
        counts = harness.flatten_stats(drive.stats())
        counts.update({
            "sim.sequence": drive.engine.capture_state()["sequence"],
            "wal.records": drive.wal.stats.appends,
            "wal.commits": drive.wal.stats.commits,
            "db.compactions": drive.lsm.compaction_count,
            "db.filter_skips": drive.lsm.filter_skips,
            "db.gets": drive.lsm.stats.reads,
        })
        return counts

    def parts(self, drive: Drive, _load) -> tuple:
        return drive.engine, [drive.api]

    def layer_metrics(self, d: dict, ops: int) -> dict:
        return {
            **harness.block_layer_metrics(d, ops),
            "db.lsm.compactions": d["db.compactions"],
            "db.lsm.write_amp": d["ssd.bytes_written"] / self.user_bytes,
            "db.lsm.filter_skip_ratio": d["db.filter_skips"] / d["db.gets"],
        }


def one_round(inputs: Inputs, probe=None) -> harness.Round:
    """Build and load a drive (timed as set-up), then run the timed load;
    times are :data:`harness.CLOCK` seconds.

    ``probe(phase, drive, load)`` is called ``"before"`` and ``"after"``
    the measured window.
    """
    clock = harness.CLOCK
    start = clock.read()
    drive = Drive()
    drive.set_up(inputs)
    setup_s = clock.seconds(start)
    load = Load(drive)
    if probe:
        probe("before", drive, load)
    start = clock.read()
    sim_seconds = load.run(inputs)
    wall_s = clock.seconds(start)
    if probe:
        probe("after", drive, load)
    start = clock.read()
    load.run_lone(inputs)
    host_factor = clock.factor(start)
    load.read_back(inputs)
    return harness.Round(
        setup_s=setup_s, wall_s=wall_s, ops=inputs.ops,
        attempted=inputs.ops + len(inputs.lone) + len(inputs.model),
        failed=load.failed,
        wall_rtts=load.wall_rtts, sim_seconds=sim_seconds,
        writes=load.writes, reads=load.reads, problems=load.examples,
        host_factor=host_factor)


def variant_inputs(seed: int, variant: int) -> Inputs:
    return Inputs(seed * harness.VARIANTS + variant)


def measure(root: str, seed: int, seconds: float) -> harness.Outcome:
    inputs = [variant_inputs(seed, v) for v in range(harness.VARIANTS)]
    rounds = harness.run_rounds(lambda v: one_round(inputs[v]), seconds)
    sim_rounds = rounds[:harness.VARIANTS]
    result = harness.outcome(rounds, harness.untraced_metrics(
        rounds, sim_rounds, harness.peak_rss_mb()))
    result.problems += harness.check_tails(sim_rounds)
    return result


def trace(root: str, seed: int, seconds: float) -> harness.Outcome:
    inputs = variant_inputs(seed, 0)
    metrics, shares, rounds = harness.trace_rounds(
        lambda probe: one_round(inputs, probe),
        lambda probe: Window(probe, inputs.user_bytes), seconds, PER_LAYER)
    return harness.outcome(rounds, metrics,
                           harness.layer_table("dual-ssd", shares, metrics))


def deterministic(root: str, seed: int) -> dict:
    """Sim metrics and work counts of one instrumented round (no cProfile)."""
    inputs = variant_inputs(seed, 0)
    window = Window(harness.Probe(), inputs.user_bytes)
    r = one_round(inputs, window)
    metrics = window.metrics(r.ops)
    return {**r.sim, **metrics, "failed": r.failed,
            "problems": len(r.problems + window.problems)}
