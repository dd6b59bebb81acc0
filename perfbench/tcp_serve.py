"""``tcp-serve``: the user-facing face, ``repro serve`` over real loopback TCP.

``repro serve --port 0`` runs in a subprocess with its defaults (3
nodes, rf 2, pipeline depth 8, tracing off, an ephemeral port); in the
untraced run it is started through :mod:`clocked_serve`, so its spans
can be read in reference-host seconds.  This process is the one asyncio
client: it keeps 16 requests in flight on each of 2 connections (closed
loop; two connections for a 2-core host), sending the :mod:`mix`
commands and checking every reply in order.  It is the only workload
that crosses the asyncio bridge in ``repro/gateway/tcp.py``, which runs
the kernel to quiescence once per received chunk under one lock.

The server has no simulated clock a client can read, so ``tcp-serve``'s
``sim_*`` metrics come from its sim-clock twin: the first
:data:`TWIN_OPS` commands of each connection replayed through
:class:`gateway_sim.Fleet` on a fresh pool with ``repro serve``'s
configuration (:func:`twin`).
"""

from __future__ import annotations

import asyncio
import math
import os
import pstats
import re
import signal
import sys
import time
from collections import deque

import gateway_sim
import harness
import mix

#: The per-layer metrics of the layers this workload exercises: the
#: bridge's, and the gateway stack's from the sim twin.  ``repro serve``
#: has no tracing switch, so ``obs.enabled_overhead`` is not measured.
PER_LAYER = (gateway_sim.GATEWAY_METRICS | harness.TRACE_METRICS
             | harness.self_shares("tcp")
             | {"tcp.engine_runs_per_op", "tcp.server_cpu_us_per_op",
                "tcp.wall_rtt_p99_ms"})

CONNECTIONS = 2
IN_FLIGHT = 16
WARMUP_OPS = 2000  # per connection, before the timed window
TWIN_OPS = 14000  # per connection: 3/8 GETs give >= 10 reads beyond the p999
SERVE_SEED = 11  # repro serve's default pool seed
SERVE_PIPELINE_DEPTH = 8
START_TIMEOUT = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))
_LISTENING = re.compile(rb"listening on [^:]+:(\d+)")


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """One ``repro serve`` subprocess, optionally under cProfile or with
    the host clock running in it (``clocked``: :mod:`clocked_serve`)."""

    def __init__(self, root: str, profile_path=None, clocked=False) -> None:
        self.root = root
        self.profile_path = profile_path
        self.clocked = clocked
        self.proc = None
        self.port = 0

    async def start(self) -> None:
        argv = [sys.executable]
        if self.profile_path:
            argv += ["-m", "cProfile", "-o", self.profile_path]
        if self.clocked:
            argv += [os.path.join(HERE, "clocked_serve.py"), "--port", "0"]
        else:
            argv += ["-m", "repro", "serve", "--port", "0"]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
            # An ignored SIGINT survives exec, and repro serve stops
            # cleanly (and cProfile writes its profile) only on SIGINT.
            # A handler here is reset to the default in the child.
            signal.signal(signal.SIGINT, signal.default_int_handler)
        self.proc = await asyncio.create_subprocess_exec(
            *argv, cwd=self.root, env=env, stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE)
        line = await asyncio.wait_for(self.proc.stdout.readline(), START_TIMEOUT)
        match = _LISTENING.search(line)
        if not match:
            await self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))

    def cpu_seconds(self) -> float:
        return _proc_cpu_seconds(self.proc.pid)

    async def clock(self) -> tuple:
        """The clocked server's :meth:`harness.HostClock.read` now."""
        self.proc.send_signal(signal.SIGUSR1)
        line = await asyncio.wait_for(self.proc.stdout.readline(), START_TIMEOUT)
        _word, wall, slice_s, slices = line.split()
        return float(wall), float(slice_s), int(slices)

    def peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.proc.pid)

    async def stop(self) -> None:
        """SIGINT (``repro serve``'s clean shutdown), then wait for exit."""
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            await asyncio.wait_for(self.proc.communicate(), 30.0)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()


class TimedWindow:
    """The timed window, shared by every connection of a round."""

    def __init__(self) -> None:
        self.start = math.inf
        self.deadline = math.inf


class Client:
    """One connection: a closed loop of ``IN_FLIGHT`` checked requests."""

    def __init__(self, ops, checker: mix.Checker, window: TimedWindow) -> None:
        self.ops = ops
        self.checker = checker
        self.window = window
        self.sent = 0
        self.done = 0
        self.in_window = 0
        self.rtts: list = []
        self.warm = asyncio.Event()

    async def connect(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", port)

    async def run(self) -> None:
        """Keep ``IN_FLIGHT`` requests outstanding until the window's
        deadline, then drain what is still in flight."""
        inflight: deque = deque()
        try:
            await self._loop(inflight)
        except (ConnectionError, OSError) as exc:
            self.checker.missing(len(inflight), f"connection dropped: {exc}")
        finally:
            self.warm.set()  # never leave the round waiting on a dead client

    async def _loop(self, inflight: deque) -> None:
        reader, writer, window = self.reader, self.writer, self.window
        decoder = mix.ReplyDecoder()
        now = time.perf_counter()
        frames = []
        for _ in range(IN_FLIGHT):
            op = next(self.ops)
            inflight.append((op, now))
            frames.append(op.frame)
        self.sent += len(frames)
        writer.write(b"".join(frames))
        while inflight:
            data = await reader.read(65536)
            if not data:
                self.checker.missing(len(inflight), "connection closed by the server")
                inflight.clear()
                return
            now = time.perf_counter()
            frames = []
            for body in decoder.feed(data):
                if not inflight:
                    self.checker.missing(1, f"reply {body[:40]!r} to no request")
                    continue
                op, sent = inflight.popleft()
                self.checker.check(op, body)
                self.done += 1
                if window.start <= now <= window.deadline:
                    self.in_window += 1
                    self.rtts.append(now - sent)
                if now < window.deadline:
                    op = next(self.ops)
                    inflight.append((op, now))
                    frames.append(op.frame)
            if self.done >= WARMUP_OPS:
                self.warm.set()
            if frames:
                self.sent += len(frames)
                writer.write(b"".join(frames))
                await writer.drain()

    async def request(self, frames: list) -> list:
        """Send ``frames`` and return their reply bodies (after :meth:`run`)."""
        self.writer.write(b"".join(frames))
        decoder, bodies = mix.ReplyDecoder(), []
        while len(bodies) < len(frames):
            data = await self.reader.read(65536)
            if not data:
                break
            bodies += decoder.feed(data)
        return bodies

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _round(root: str, seed: int, seconds: float, profile_path=None,
                 clocked=False) -> tuple:
    """Start a server, warm it, measure ``seconds``, check, stop it.
    Returns the round and the server's CPU seconds in the window and
    peak RSS.  With ``clocked`` the round's times are reference-host
    seconds of the server's host clock."""
    checker = mix.Checker()
    window = TimedWindow()
    began = time.perf_counter()
    server = Server(root, profile_path, clocked)
    await server.start()
    clients = []
    try:
        for index in range(CONNECTIONS):
            client = Client(mix.ClientMix(seed, index), checker, window)
            await client.connect(server.port)
            clients.append(client)
        tasks = [asyncio.create_task(client.run()) for client in clients]
        await asyncio.gather(*(client.warm.wait() for client in clients))
        at_start = await server.clock() if clocked else (0, 0.0, 0)
        window.start = time.perf_counter()
        cpu_before = server.cpu_seconds()
        await asyncio.sleep(seconds)
        window.deadline = time.perf_counter()
        cpu_s = server.cpu_seconds() - cpu_before
        at_end = await server.clock() if clocked else (0, 0.0, 0)
        await asyncio.gather(*tasks)
        counters = await clients[0].request(
            [mix.request(mix.GET, mix.shared_key(i))
             for i in range(mix.SHARED_COUNTERS)])
        problems = checker.check_counters(
            [mix.shared_counter_value(body) for body in counters])
        rss_mb = server.peak_rss_mb()
    finally:
        for client in clients:
            await client.close()
        await server.stop()
    setup_s, wall_s = window.start - began, window.deadline - window.start
    host_factor = 1.0
    if clocked:
        # The server does the work; its clock converts the client's spans.
        started = (began, 0.0, 0)
        first = (window.start, *at_start[1:])
        last = (window.deadline, *at_end[1:])
        setup_s = harness.reference_seconds(started, first, started)
        host_factor = harness.reference_seconds(first, last, started) / wall_s
        wall_s *= host_factor
    measured = harness.Round(
        setup_s=setup_s, wall_s=wall_s,
        ops=sum(client.in_window for client in clients),
        attempted=sum(client.sent for client in clients) + mix.SHARED_COUNTERS,
        failed=checker.failed,
        wall_rtts=[rtt for client in clients for rtt in client.rtts],
        sim_seconds=0.0, writes=[], reads=[],
        problems=problems + checker.examples, host_factor=host_factor)
    return measured, {"cpu_s": cpu_s, "rss_mb": rss_mb}


def run_round(root: str, seed: int, seconds: float, profile_path=None,
              clocked=False) -> tuple:
    return asyncio.run(_round(root, seed, seconds, profile_path, clocked))


def serve_config():
    from repro.gateway.server import GatewayConfig

    return GatewayConfig(replicas=2, pipeline_depth=SERVE_PIPELINE_DEPTH,
                         max_conns=4096)


def twin(seed: int, counted: bool = False) -> tuple:
    """The sim-clock twin: the first :data:`TWIN_OPS` commands of each
    connection on ``repro serve``'s pool and gateway configuration.
    Returns the round and, when ``counted``, its layer metrics."""
    ops = gateway_sim.op_lists(seed, CONNECTIONS, TWIN_OPS)
    window = (gateway_sim.Window(harness.Probe(), gateway_sim.user_bytes(ops))
              if counted else None)
    tw = gateway_sim.twin(ops, IN_FLIGHT, serve_config(), SERVE_SEED, window)
    if not counted:
        return tw, {}
    metrics = window.metrics(tw.ops)
    tw.problems += window.problems
    return tw, metrics


def measure(root: str, seed: int, seconds: float) -> harness.Outcome:
    """Fresh servers with ~5 s of timed load each (at least three), then
    the sim-clock twin for the ``sim_*`` metrics."""
    count = max(3, round(seconds / 5))
    runs = [run_round(root, seed, seconds / count, clocked=True)
            for _ in range(count)]
    rounds = [r for r, _extra in runs]
    tw, _ = twin(seed)
    metrics = harness.untraced_metrics(
        rounds, [tw], harness.median([extra["rss_mb"] for _r, extra in runs]))
    result = harness.outcome(rounds + [tw], metrics)
    result.problems += harness.check_tails([tw])
    return result


def trace(root: str, seed: int, seconds: float) -> harness.Outcome:
    """An untraced server, a server under cProfile, and the sim-clock twin
    with ``repro.obs`` on for the simulated layers' counters."""
    window = max(1.0, seconds * 0.35)
    plain, extra = run_round(root, seed, window)
    scratch = os.path.join(root, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    path = os.path.join(scratch, f"serve-{os.getpid()}.prof")
    try:
        profiled, _ = run_round(root, seed, window, path)
        stats = pstats.Stats(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    tw, metrics = twin(seed, counted=True)
    shares = harness.shares(harness.layer_self_time(stats))
    metrics.update(harness.share_metrics(shares, PER_LAYER))
    untraced = plain.ops / plain.wall_s
    traced = profiled.ops / profiled.wall_s
    pumps = harness.call_count(stats, "repro/gateway/tcp.py", "_pump")
    if pumps is not None:  # else run.py reports the metric missing
        metrics["tcp.engine_runs_per_op"] = pumps / profiled.attempted
    metrics.update({
        "tcp.server_cpu_us_per_op": extra["cpu_s"] / plain.ops * 1e6,
        "tcp.wall_rtt_p99_ms": harness.percentile(plain.wall_rtts, 99) * 1e3,
        "trace.untraced_wall_ops_per_s": untraced,
        "trace.traced_wall_ops_per_s": traced,
        "trace.overhead": untraced / traced - 1.0,
    })
    return harness.outcome([plain, profiled, tw], metrics,
                           harness.layer_table("tcp-serve", shares, metrics))


def deterministic(root: str, seed: int) -> dict:
    """Sim metrics and work counts of the sim-clock twin."""
    tw, metrics = twin(seed, counted=True)
    return {**tw.sim, **metrics, "failed": tw.failed,
            "problems": len(tw.problems)}
