"""Shared measurement helpers: percentiles, rounds, stats deltas, profiles.

Every number the benchmark prints names its clock:

* *wall* — real time, ``time.perf_counter``.  Untraced runs read it
  through :data:`CLOCK` (on ``tcp-serve``, the server process's), in
  seconds of a reference host, so that a shared host's changing speed
  drops out;
* *sim* — the simulator's deterministic clock, ``engine.now``.

Per-layer numbers come from four sources only: the program's public
stats (``collect_stats`` / ``collect_cluster_stats`` / ``server.stats()``
and per-object stats), ``repro.obs`` histograms and counters, counting
wrappers on two public methods (:class:`Probe`), and cProfile self time
grouped by ``repro.<package>``.  All four are on only in traced runs.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import heapq
import math
import os
import pstats
import resource
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (exact, no interpolation)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list) -> float:
    return statistics.median(values)


def interquartile_mean(values: list) -> float:
    """Mean of the middle half of ``values`` (the median of four).

    Per-round wall figures on a shared host fall into a fast and a slow
    cluster; a median snaps to one of them, while this moves smoothly
    with their proportions and still ignores the outlying quarters."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Distinct seeded inputs per run.  Round ``i`` replays variant
#: ``i % VARIANTS``; sim metrics pool the first ``VARIANTS`` rounds.
VARIANTS = 3


@dataclass
class Round:
    """One measured round: a fresh set-up plus one timed load.

    ``sim_seconds``, ``writes`` and ``reads`` (per-request sim latencies)
    are deterministic: a round that replays a variant on a freshly built
    stack must reproduce them exactly — :func:`run_rounds` checks it.
    ``wall_rtts`` are the wall round trips behind ``wall_rtt_p50_ms``.
    ``setup_s`` and ``wall_s`` are :data:`CLOCK` seconds; ``wall_rtts``
    are plain wall seconds, taken while the host ran at ``host_factor``
    times the reference host's speed.
    The round's summaries (:attr:`sim`, :attr:`wall_rtt_p50_ms`) are
    taken at once, so :meth:`drop_samples` can free the raw lists.
    """

    setup_s: float
    wall_s: float
    ops: int
    attempted: int
    failed: int
    wall_rtts: list
    sim_seconds: float
    writes: list
    reads: list
    problems: list = field(default_factory=list)
    host_factor: float = 1.0

    def __post_init__(self) -> None:
        self.sim = sim_latency_metrics([self]) if self.writes else {}
        self.wall_rtt_p50_ms = (percentile(self.wall_rtts, 50) * 1e3
                                if self.wall_rtts else None)

    def drop_samples(self) -> None:
        self.wall_rtts, self.writes, self.reads = [], [], []


@contextlib.contextmanager
def inputs_frozen():
    """Move everything alive now (the generated inputs, imported modules)
    out of the cyclic garbage collector's reach, so rounds are not
    charged for rescanning the benchmark's own data."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_rounds(one_round: Callable[[int], Round], seconds: float) -> list:
    """Run ``one_round(variant)`` for variants 0, 1, 2, 0, ... with
    :data:`CLOCK` running, until at least :data:`VARIANTS` rounds are done
    and ``seconds`` of real time have passed.

    Only the first :data:`VARIANTS` rounds keep their raw samples (the
    pooled ``sim_*`` metrics need them); later rounds keep summaries, so
    the process's memory does not grow with the number of rounds."""
    rounds: list = []
    deadline = time.perf_counter() + seconds
    with inputs_frozen(), CLOCK.running():
        while len(rounds) < VARIANTS or time.perf_counter() < deadline:
            gc.collect()  # start every round from the same heap state
            rounds.append(one_round(len(rounds) % VARIANTS))
            if len(rounds) > VARIANTS:
                rounds[-1].drop_samples()
    for index in range(VARIANTS, len(rounds)):
        first, again = rounds[index % VARIANTS].sim, rounds[index].sim
        if again != first:
            diff = sorted(key for key in first if first[key] != again[key])
            rounds[index].problems.append(
                f"round {index + 1} replayed variant {index % VARIANTS} "
                f"with different {diff}")
    return rounds


# -- host speed ----------------------------------------------------------------

#: Wall seconds one :func:`reference_slice` takes on the reference host,
#: a 2-vCPU Intel Xeon guest under CPython 3 with no busy neighbour.
REFERENCE_SLICE_S = 0.0023
#: Wall seconds between two reference slices while :data:`CLOCK` runs.
TICK_S = 0.03
#: A span with fewer slices than this takes the whole run's host speed.
MIN_SLICES = 3


def _reference_process(store: dict, state: int, steps: int):
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state & 0xFFFF
        store[key] = (store.get(key, b"") + state.to_bytes(4, "little"))[-64:]
        yield (state >> 8) & 0xFF


def reference_slice(processes: int = 200, steps: int = 12) -> float:
    """Wall time of a fixed pure-Python discrete-event loop: generator
    processes resumed from a heap, each updating a shared dict of short
    byte strings.  It is the simulator's kind of work but none of the
    program's code, so a faster program does not move it, while the host
    slowing down (a busy neighbour, a lower clock) does."""
    start = time.perf_counter()
    store: dict = {}
    heap = [(0, i, _reference_process(store, i, steps))
            for i in range(processes)]
    heapq.heapify(heap)
    sequence = processes
    while heap:
        when, _seq, process = heapq.heappop(heap)
        try:
            delay = next(process)
        except StopIteration:
            continue
        sequence += 1
        heapq.heappush(heap, (when + delay, sequence, process))
    return time.perf_counter() - start


class HostClock:
    """A wall clock that reads in reference-host seconds.

    The benchmark's host is a shared machine whose speed per CPU second
    changes by up to 2x within seconds, one vCPU at a time: a busy
    neighbour comes and goes, while process CPU time stays at 99% of wall
    time.  While the clock runs, a ``SIGALRM`` every :data:`TICK_S`
    interrupts the program between bytecodes and times one
    :func:`reference_slice`, so the host's speed is sampled inside the
    measured work itself.  :meth:`seconds` then converts a span: wall
    time minus the slices in it, times the slices' speed against
    :data:`REFERENCE_SLICE_S`.  The simulation never sees the slices.
    """

    def __init__(self) -> None:
        self.slices = 0
        self.slice_s = 0.0
        self.started: Optional[tuple] = None

    def _tick(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not a slice's
        try:
            self.slice_s += reference_slice()
            self.slices += 1
        finally:
            if collecting:
                gc.enable()

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.started = self.read()
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.started = None

    def read(self) -> tuple:
        """``(wall, slice seconds, slices)`` at one instant."""
        while True:
            slices, slice_s = self.slices, self.slice_s
            wall = time.perf_counter()
            if slices == self.slices:
                return wall, slice_s, slices

    def factor(self, since: tuple) -> float:
        """The host's speed since ``since`` against the reference host
        (1.0 when the clock is not running)."""
        if self.started is None:
            return 1.0
        return host_factor(since, self.read(), self.started)

    def seconds(self, since: tuple) -> float:
        """Reference-host seconds of program work since ``since``."""
        if self.started is None:
            return time.perf_counter() - since[0]
        return reference_seconds(since, self.read(), self.started)


def host_factor(since: tuple, now: tuple, started: tuple) -> float:
    """The host's speed between two :meth:`HostClock.read` readings
    against the reference host.  A span with fewer than
    :data:`MIN_SLICES` slices takes the speed since ``started``."""
    if now[2] - since[2] < MIN_SLICES:
        since = started
    if now[2] == since[2]:
        return 1.0
    return (now[2] - since[2]) * REFERENCE_SLICE_S / (now[1] - since[1])


def reference_seconds(since: tuple, now: tuple, started: tuple) -> float:
    """Reference-host seconds of program work between two readings: wall
    time minus the slices in the span, times the host's speed."""
    return ((now[0] - since[0] - (now[1] - since[1]))
            * host_factor(since, now, started))


#: The benchmark's one clock; it runs only in untraced measured runs.
CLOCK = HostClock()


@dataclass
class Outcome:
    """What one run reports: metrics, failure accounting, problems."""

    metrics: dict
    attempted: int
    failed: int
    problems: list
    table: str = ""


def outcome(rounds: list, metrics: dict, table: str = "") -> Outcome:
    return Outcome(metrics=metrics,
                   attempted=sum(r.attempted for r in rounds),
                   failed=sum(r.failed for r in rounds),
                   problems=[p for r in rounds for p in r.problems],
                   table=table)


def untraced_metrics(rounds: list, sim_rounds: list, rss_mb: float) -> dict:
    """The end-to-end metrics of an untraced run, the wall ones at the
    reference host's speed: wall speed and round trip are interquartile
    means over ``rounds``, set-up time their median; sim figures pool
    ``sim_rounds``."""
    metrics = {
        "wall_ops_per_s": interquartile_mean([r.ops / r.wall_s for r in rounds]),
        "wall_rtt_p50_ms": interquartile_mean(
            [r.wall_rtt_p50_ms * r.host_factor for r in rounds]),
        "setup_s": median([r.setup_s for r in rounds]),
        "peak_rss_mb": rss_mb,
    }
    metrics.update(sim_latency_metrics(sim_rounds))
    return metrics


def sim_latency_metrics(rounds: list) -> dict:
    """``sim_*`` end-to-end metrics pooled over ``rounds``."""
    writes = [w for r in rounds for w in r.writes]
    reads = [x for r in rounds for x in r.reads]
    return {
        "sim_ops_per_s": (sum(r.ops for r in rounds)
                          / sum(r.sim_seconds for r in rounds)),
        "sim_write_p50_us": percentile(writes, 50) * 1e6,
        "sim_write_p999_us": percentile(writes, 99.9) * 1e6,
        "sim_read_p50_us": percentile(reads, 50) * 1e6,
        "sim_read_p999_us": percentile(reads, 99.9) * 1e6,
    }


def check_tails(sim_rounds: list) -> list:
    """The pooled sim p999s need 10,000 samples each to have 10 beyond."""
    writes = sum(len(r.writes) for r in sim_rounds)
    reads = sum(len(r.reads) for r in sim_rounds)
    return [f"only {count} sim {label} samples: fewer than 10 beyond the p999"
            for label, count in (("write", writes), ("read", reads))
            if count < 10_000]


# -- public stats, flattened --------------------------------------------------


def flatten_stats(report: dict) -> dict:
    """Sum a ``collect_stats`` / ``collect_cluster_stats`` report into one
    flat counter dict over every host, link and device."""
    hosts = report["host"]
    pcies = report["pcie"]
    if "wc_buffer" in hosts:  # single-platform report
        hosts, pcies = {"": hosts}, {"": pcies}
    flat: dict = defaultdict(int)
    for host in hosts.values():
        flat["host.wc_lines_flushed"] += host["wc_buffer"]["lines_flushed"]
    for pcie in pcies.values():
        flat["pcie.posted_writes"] += pcie["posted_writes"]
        flat["pcie.read_tlps"] += pcie["read_tlps"]
    for device in report["devices"].values():
        flat["ssd.block_reads"] += device["block_io"]["reads"]
        flat["ssd.bytes_written"] += device["block_io"]["bytes_written"]
        ftl = device["ftl"]
        flat["ftl.host_pages_written"] += ftl["host_pages_written"]
        flat["ftl.gc_pages_written"] += ftl["gc_pages_written"]
        flat["ftl.gc_runs"] += ftl["gc_runs"] + ftl["background_gc_runs"]
        flat["ftl.foreground_gc_stalls"] += ftl["foreground_gc_stalls"]
        nand = device["nand"]
        flat["nand.page_reads"] += nand["page_reads"]
        flat["nand.page_programs"] += nand["page_programs"]
        flat["nand.read_retries"] += nand["read_retries"]
        if "ba_buffer" in device:
            flat["core.ba_flushes"] += device["ba_buffer"]["flushes"]
    return dict(flat)


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def device_layer_metrics(d: dict, ops: int) -> dict:
    """Per-layer metrics of the host/PCIe/BA stack, from a
    :func:`flatten_stats` delta over the measured window."""
    return {
        "host.wc_lines_flushed_per_op": d["host.wc_lines_flushed"] / ops,
        "pcie.posted_writes_per_op": d["pcie.posted_writes"] / ops,
        "pcie.read_tlps_per_op": d["pcie.read_tlps"] / ops,
        "core.ba_flushes": d["core.ba_flushes"],
    }


def block_layer_metrics(d: dict, ops: int) -> dict:
    """Per-layer metrics of the SSD/FTL/NAND block side, from a
    :func:`flatten_stats` delta over the measured window.  ``ftl.waf`` is
    left out of a window that wrote no host page."""
    host_pages = d["ftl.host_pages_written"]
    metrics = {
        "ssd.block_reads": d["ssd.block_reads"],
        "ftl.gc_runs": d["ftl.gc_runs"],
        "ftl.foreground_gc_stalls": d["ftl.foreground_gc_stalls"],
        "nand.page_reads_per_op": d["nand.page_reads"] / ops,
        "nand.page_programs_per_op": d["nand.page_programs"] / ops,
        "nand.read_retries": d["nand.read_retries"],
    }
    if host_pages:
        metrics["ftl.waf"] = (host_pages + d["ftl.gc_pages_written"]) / host_pages
    return metrics


#: Per-layer metrics every simulated window reports (:meth:`Window.metrics`).
WINDOW_METRICS = frozenset({
    "sim.events_per_op", "sim.processes_per_op", "wal.records_per_append",
    "wal.commits_per_op", "core.ba_syncs_per_op", "core.ba_flushes",
    "core.mmio_bytes_per_user_byte", "host.wc_lines_flushed_per_op",
    "pcie.posted_writes_per_op", "pcie.read_tlps_per_op"})

#: What every traced run reports about itself.
TRACE_METRICS = frozenset({"trace.untraced_wall_ops_per_s",
                           "trace.traced_wall_ops_per_s", "trace.overhead"})


def self_shares(*layers: str) -> frozenset:
    """The host-self-share metric names of ``layers``."""
    return frozenset("tcp.bridge_host_share" if layer == "tcp"
                     else f"{layer}.host_self_share" for layer in layers)


class CallCounter:
    """Counts calls of one bound method by shadowing it on the instance.

    The wrapper returns exactly what the method returns, so the
    simulation is unchanged; :meth:`remove` drops the instance attribute.
    """

    def __init__(self, obj, name: str,
                 weigh: Optional[Callable] = None) -> None:
        self.obj, self.name, self.total = obj, name, 0
        method = getattr(obj, name)

        def counted(*args, **kwargs):
            self.total += weigh(*args, **kwargs) if weigh else 1
            return method(*args, **kwargs)

        setattr(obj, name, counted)

    def remove(self) -> None:
        delattr(self.obj, self.name)


def _mmio_bytes(_entry, _offset, data) -> int:
    return len(data)


class Probe:
    """Instrumentation of one measured window.

    :meth:`start` and :meth:`stop` run at quiescent points of the kernel
    (no process is parked inside an instrumented span), so switching
    ``repro.obs`` tracing there is safe.  With ``counts`` the probe also
    counts process spawns (``engine.process``) and MMIO bytes
    (``api.mmio_write``); with ``profile`` it runs cProfile.
    """

    def __init__(self, counts: bool = True, profile: bool = False) -> None:
        self.counts = counts
        self.profiler = cProfile.Profile() if profile else None
        self.tracer = None
        self.stats: Optional[pstats.Stats] = None
        self.processes = 0
        self.mmio_bytes = 0
        self._counters: list = []

    def start(self, engine, apis: list) -> None:
        from repro.obs import tracing
        from repro.obs.tracing import Tracer

        if self.counts:
            self._counters = [CallCounter(engine, "process")] + [
                CallCounter(api, "mmio_write", _mmio_bytes) for api in apis]
        self.tracer = tracing.enable(Tracer())
        if self.profiler:
            self.profiler.enable()

    def stop(self) -> None:
        from repro.obs import tracing

        if self.profiler:
            self.profiler.disable()
            self.stats = pstats.Stats(self.profiler)
        tracing.disable()
        if self._counters:
            self.processes = self._counters[0].total
            self.mmio_bytes = sum(c.total for c in self._counters[1:])
            for counter in self._counters:
                counter.remove()
            self._counters = []


class Window:
    """Probe callback of one measured window: the stack's public counters
    read before and after it, ``probe`` switched on inside it.

    A subclass reads its stack: :meth:`counts` returns the counters
    (including ``sim.sequence``, ``wal.records`` and ``wal.commits``),
    :meth:`parts` the engine and API clients to probe, and
    :meth:`layer_metrics` its own layers' metrics from the counter delta.
    """

    def __init__(self, probe: Probe, user_bytes: int) -> None:
        self.probe = probe
        self.user_bytes = user_bytes
        self.problems: list = []

    def histogram_count(self, *names: str) -> int:
        """Samples in the ``repro.obs`` histograms ``names`` together; a
        problem when none of them recorded anything (a renamed span
        must not read as zero work)."""
        found = [self.probe.tracer.histograms.get(name) for name in names]
        total = sum(len(h) for h in found if h is not None)
        if not total:
            self.problems.append(f"no repro.obs histogram {' or '.join(names)} "
                                 f"recorded a sample")
        return total

    def histogram_p999_us(self, name: str) -> float:
        if not self.histogram_count(name):
            return 0.0
        return self.probe.tracer.histograms[name].percentile(99.9) * 1e6

    def __call__(self, phase: str, *subject) -> None:
        if phase == "before":
            self.before = self.counts(*subject)
            self.probe.start(*self.parts(*subject))
        else:
            self.probe.stop()
            self.after = self.counts(*subject)

    def counts(self, *subject) -> dict:
        raise NotImplementedError

    def parts(self, *subject) -> tuple:
        raise NotImplementedError

    def layer_metrics(self, d: dict, ops: int) -> dict:
        raise NotImplementedError

    def metrics(self, ops: int) -> dict:
        d = delta(self.after, self.before)
        appends = self.histogram_count("wal.ba.append", "wal.ba.append_batch")
        metrics = device_layer_metrics(d, ops)
        metrics.update({
            "sim.events_per_op": d["sim.sequence"] / ops,
            "sim.processes_per_op": self.probe.processes / ops,
            "wal.records_per_append": d["wal.records"] / appends if appends else 0.0,
            "wal.commits_per_op": d["wal.commits"] / ops,
            "core.ba_syncs_per_op": self.histogram_count("core.api.ba_sync") / ops,
            "core.mmio_bytes_per_user_byte": self.probe.mmio_bytes / self.user_bytes,
        })
        metrics.update(self.layer_metrics(d, ops))
        return metrics


# -- host self time by layer ---------------------------------------------------

#: Layers named as ``repro.<package>``; ``gateway.tcp`` is the asyncio
#: bridge, split out of ``gateway``.
LAYERS = ("sim", "gateway", "tcp", "cluster", "wal", "db", "core", "host",
          "pcie", "ssd", "ftl", "nand", "obs")

_BRIDGE_MODULES = ("asyncio", "selectors", "socket")
_BRIDGE_BUILTINS = ("socket", "epoll", "select", "transport", "_asyncio")


def _layer_of(filename: str, funcname: str) -> str:
    path = filename.replace(os.sep, "/")
    if "/perfbench/" in path:
        return "bench"
    if "/repro/" in path:
        rest = path.rsplit("/repro/", 1)[1]
        if rest == "gateway/tcp.py":
            return "tcp"
        head = rest.split("/", 1)[0]
        return head if "/" in rest else "repro"
    if filename == "~":
        if any(word in funcname for word in _BRIDGE_BUILTINS):
            return "tcp"
        return "builtins"
    module = path.rsplit("/", 1)[-1]
    if "/asyncio/" in path or module.removesuffix(".py") in _BRIDGE_MODULES:
        return "tcp"
    return "python"


def layer_self_time(stats: pstats.Stats) -> dict:
    """Host self time (s) per layer.

    Self time of C built-ins (``heapq``, ``dict``, ``bytes`` methods...)
    is charged to the layers of their Python callers (pstats records the
    callee's self time per caller); socket and event-loop built-ins count
    as the ``tcp`` bridge.
    """
    totals: dict = defaultdict(float)
    for (filename, _line, funcname), entry in stats.stats.items():
        self_time, callers = entry[2], entry[4]
        layer = _layer_of(filename, funcname)
        if layer != "builtins" or not callers:
            totals[layer] += self_time
            continue
        for (cfile, _cline, cfunc), c in callers.items():
            totals[_layer_of(cfile, cfunc)] += c[2]
    return dict(totals)


def shares(totals: dict) -> dict:
    whole = sum(totals.values()) or 1.0
    return {layer: seconds / whole for layer, seconds in totals.items()}


def share_metrics(layer_shares: dict, exercised: frozenset) -> dict:
    """``<layer>.host_self_share`` (the bridge: ``tcp.bridge_host_share``)
    of each layer the profile saw whose metric is in ``exercised``.  An
    exercised layer the profile did not see has no metric, so a renamed
    package shows as missing, not as 0."""
    metrics = {}
    for layer in LAYERS:
        (name,) = self_shares(layer)
        if layer in layer_shares and name in exercised:
            metrics[name] = layer_shares[layer]
    return metrics


def trace_rounds(one_round: Callable, window: Callable, seconds: float,
                 exercised: frozenset) -> tuple:
    """The traced run of a simulated workload.

    Untraced and ``repro.obs``-only rounds alternate for half of
    ``seconds`` (their wall speeds give ``obs.enabled_overhead``), then one
    fully instrumented round (obs, counters, cProfile) gives the layer
    metrics.  ``window(probe)`` builds the workload's probe callback,
    which has a ``metrics(ops)`` method; ``exercised`` names the
    workload's per-layer metrics.  Returns ``(metrics,
    layer_shares, rounds)``.
    """
    untraced, obs_only = [], []
    with inputs_frozen():
        while not obs_only or sum(r.wall_s for r in untraced + obs_only) < seconds / 2:
            gc.collect()
            untraced.append(one_round(None))
            gc.collect()
            obs_only.append(one_round(window(Probe(counts=False))))
        gc.collect()
        full = window(Probe(profile=True))
        traced = one_round(full)

    def speed(rounds: list) -> float:
        return median([r.ops / r.wall_s for r in rounds])

    metrics = full.metrics(traced.ops)
    traced.problems += full.problems
    layer_shares = shares(layer_self_time(full.probe.stats))
    metrics.update(share_metrics(layer_shares, exercised))
    metrics.update({
        "obs.enabled_overhead": speed(untraced) / speed(obs_only) - 1.0,
        "trace.untraced_wall_ops_per_s": speed(untraced),
        "trace.traced_wall_ops_per_s": speed([traced]),
        "trace.overhead": speed(untraced) / speed([traced]) - 1.0,
    })
    rounds = untraced + obs_only + [traced]
    for index, r in enumerate(rounds[1:], start=2):
        if r.sim != rounds[0].sim:
            traced.problems.append(
                f"traced-run round {index} changed the simulation: {r.sim}")
    return metrics, layer_shares, rounds


def call_count(stats: pstats.Stats, file_suffix: str,
               funcname: str) -> Optional[int]:
    """Primitive call count of one function in a profile; ``None`` when
    the profile has no such function."""
    for (filename, _line, name), entry in stats.stats.items():
        if name == funcname and filename.replace(os.sep, "/").endswith(file_suffix):
            return entry[1]
    return None


def layer_table(title: str, layer_shares: dict, counters: dict) -> str:
    """The per-workload layer table the traced run prints."""
    lines = [f"== {title}: host self time by layer (cProfile, built-ins "
             f"charged to their callers) =="]
    for layer, share in sorted(layer_shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:10s} {share * 100:6.2f}%")
    lines.append(f"== {title}: per-layer metrics ==")
    for name in sorted(counters):
        value = counters[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:36s} {shown}")
    return "\n".join(lines)

