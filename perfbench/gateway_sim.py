"""``gateway-sim``: the gateway at saturation on the simulated clock.

2048 simulated clients, each a pair of kernel processes on one gateway
:class:`~repro.gateway.server.Connection` (not a socket), keep up to 16
commands in flight against a :class:`~repro.gateway.server.GatewayServer`
on a warmed 3-device :class:`~repro.cluster.DevicePool` (rf 2, pipeline
depth 16, every other knob at its default).  All clients live in one OS
thread.  The commands come from :mod:`mix`: client-private keys beside a
few shared INCR counters, so lane ordering, the commit coalescer and
dirty-read parking all do work, while the TCP bridge does none.

After the fleet, one lone client sends :data:`LONE_COMMANDS` more commands
one at a time on the otherwise idle server.  Their wall round trips give
``wall_rtt_p50_ms``: the host time one request costs, without the other
clients' events that run while a fleet request is in flight.

The same fleet replays ``tcp-serve``'s first commands on ``repro serve``'s
configuration: that is the sim-clock twin behind ``tcp-serve``'s
``sim_*`` metrics.
"""

from __future__ import annotations

import time
from collections import deque

import harness
import mix

#: Per-layer metrics of the gateway stack's simulated layers; the block
#: side (ssd / ftl / nand) does no work in the window.
GATEWAY_METRICS = (harness.WINDOW_METRICS
                   | harness.self_shares("sim", "gateway", "cluster", "wal",
                                         "db", "core", "host", "pcie", "obs")
                   | {"gateway.cmds_per_barrier", "gateway.queue_stalls_per_op",
                      "gateway.queue_wait_p999_us", "gateway.refused",
                      "cluster.msgs_per_op", "cluster.bytes_per_op",
                      "cluster.quorum_wait_p999_us", "cluster.ba_fallbacks"})
#: The per-layer metrics of the layers this workload exercises.
PER_LAYER = GATEWAY_METRICS | harness.TRACE_METRICS | {"obs.enabled_overhead"}

#: The saturation bench's warm pool (``repro.gateway.legs``).
POOL_SEED = 909
NODES = 3
CLIENTS = 2048
DEPTH = 16
COMMANDS_PER_CLIENT = 8  # three rounds pool >= 10 samples beyond each p999
LONE_COMMANDS = 1000
RECV_BYTES = 4096


class Fleet:
    """Closed-loop simulated clients on one started gateway server.

    Each client's sender keeps at most ``depth`` commands outstanding and
    its receiver checks every reply, in order, against the mix's model.
    """

    def __init__(self, server, checker: mix.Checker) -> None:
        self.server = server
        self.engine = server.engine
        self.checker = checker
        self.writes: list = []
        self.reads: list = []
        self.wall_rtts: list = []
        self.replies = 0

    def run(self, op_lists: list, depth: int) -> float:
        """Serve every client's ops; returns the sim seconds it took."""
        engine = self.engine
        start = engine.now
        sessions = [engine.process(self._client(ops, depth), name=f"pb-client-{i}")
                    for i, ops in enumerate(op_lists)]
        engine.run(until=engine.all_of(sessions))
        sim_seconds = engine.now - start
        engine.run()  # connection teardown
        return sim_seconds

    def read_counters(self) -> list:
        """GET every shared counter on a fresh connection."""
        ops = [mix.Op(mix.request(mix.GET, mix.shared_key(i)), True, None, None)
               for i in range(mix.SHARED_COUNTERS)]
        bodies: list = []
        self.engine.run_process(self._client(ops, len(ops), bodies))
        self.engine.run()
        return [mix.shared_counter_value(body) for body in bodies]

    def _client(self, ops: list, depth: int, raw=None):
        from repro.gateway.server import GatewayError

        engine = self.engine
        try:
            conn = yield engine.process(self.server.accept())
        except GatewayError as exc:
            self.checker.missing(len(ops), f"connection refused: {exc}")
            return None
        inflight: deque = deque()
        wake: list = [None]
        engine.process(self._sender(conn, ops, depth, inflight, wake))
        decoder = mix.ReplyDecoder()
        checker = self.checker
        pending = len(ops)
        while pending:
            chunk = yield conn.s2c.recv(RECV_BYTES)
            if not chunk:
                checker.missing(pending, "connection closed by the server")
                break
            now, wall = engine.now, time.perf_counter()
            for body in decoder.feed(chunk):
                if not inflight:
                    checker.missing(1, f"reply {body[:40]!r} to no request")
                    continue
                op, sent_sim, sent_wall = inflight.popleft()
                pending -= 1
                self.replies += 1
                if raw is not None:
                    raw.append(body)
                    continue
                checker.check(op, body)
                (self.reads if op.is_read else self.writes).append(now - sent_sim)
                self.wall_rtts.append(wall - sent_wall)
            if wake[0] is not None and len(inflight) < depth:
                event, wake[0] = wake[0], None
                event.succeed()
        conn.close()
        return None

    def _sender(self, conn, ops: list, depth: int, inflight: deque,
                wake: list):
        engine = self.engine
        for op in ops:
            if len(inflight) >= depth:
                wake[0] = engine.event()
                yield wake[0]
            inflight.append((op, engine.now, time.perf_counter()))
            yield conn.c2s.send(op.frame)
        return None


def op_lists(seed: int, clients: int, commands: int) -> list:
    return [mix.ClientMix(seed, client).take(commands)
            for client in range(clients)]


def start_server(pool, config):
    from repro.gateway.server import GatewayServer

    server = GatewayServer(pool, config)
    pool.engine.run_process(server.start())
    pool.engine.run()  # park the lanes: the window starts quiescent
    return server


def serve(server, ops: list, depth: int, probe=None, setup_s: float = 0.0,
          lone: list = ()) -> harness.Round:
    """Run the fleet on a started ``server``, then the ``lone`` client's
    commands one at a time; check the replies, stop the server.

    ``probe(phase, pool, server)`` is called at ``"before"`` and
    ``"after"`` the measured window (traced runs read stats there).
    """
    pool, engine = server.pool, server.engine
    checker = mix.Checker()
    fleet = Fleet(server, checker)
    clock = harness.CLOCK
    if probe:
        probe("before", pool, server)
    start = clock.read()
    sim_seconds = fleet.run(ops, depth)
    wall_s = clock.seconds(start)
    if probe:
        probe("after", pool, server)
    ops_done = sum(len(client_ops) for client_ops in ops)
    lone_fleet = Fleet(server, checker)
    start = clock.read()
    if lone:
        lone_fleet.run([lone], 1)  # not timed: wall_rtts only
    host_factor = clock.factor(start)
    attempted = ops_done + len(lone)
    replies = fleet.replies + lone_fleet.replies
    if replies != attempted and not checker.failed:
        checker.missing(attempted - replies, "reply count mismatch")
    problems = checker.check_counters(fleet.read_counters())
    problems += checker.examples
    engine.run_process(server.stop())
    engine.run()
    return harness.Round(setup_s=setup_s, wall_s=wall_s, ops=ops_done,
                         attempted=attempted, failed=checker.failed,
                         wall_rtts=lone_fleet.wall_rtts, sim_seconds=sim_seconds,
                         writes=fleet.writes, reads=fleet.reads,
                         problems=problems, host_factor=host_factor)


def build_warm_pool():
    """The saturation bench's warm-up: a short serving burst on a fresh
    3-device pool, then streams closed and devices drained."""
    from repro.cluster import DevicePool
    from repro.gateway.legs import warm_gateway_pool

    pool = DevicePool(devices=NODES, seed=POOL_SEED)
    warm_gateway_pool(pool, seed=POOL_SEED, devices=NODES)
    return pool


class Window(harness.Window):
    """Probe callback for :func:`serve` (``probe(phase, pool, server)``)."""

    def counts(self, pool, server) -> dict:
        """The gateway stack's public counters (quiescent kernel only)."""
        stats = server.stats()
        commit = stats.get("group_commit", {})
        wal = [leg.wal.stats for shard in server.shards for leg in shard.stream.legs()]
        net = pool.net.stats_dict()
        counts = harness.flatten_stats(pool.collect_stats())
        counts.update({
            "sim.sequence": pool.engine.capture_state()["sequence"],
            "gateway.queue_stalls": stats["queue_stalls"],
            "gateway.refused": stats["refused"],
            "gateway.barriers": commit.get("barriers", 0),
            "gateway.batched": commit.get("commands", 0),
            "cluster.messages": net["messages"],
            "cluster.bytes": net["bytes_sent"],
            "cluster.ba_fallbacks": pool.ba_fallbacks,
            "wal.records": sum(s.appends for s in wal),
            "wal.commits": sum(s.commits for s in wal),
        })
        return counts

    def parts(self, pool, server) -> tuple:
        return pool.engine, [node.platform.api for node in pool.nodes.values()]

    def layer_metrics(self, d: dict, ops: int) -> dict:
        return {
            "gateway.cmds_per_barrier": (d["gateway.batched"] / d["gateway.barriers"]
                                         if d["gateway.barriers"] else 0.0),
            "gateway.queue_stalls_per_op": d["gateway.queue_stalls"] / ops,
            "gateway.queue_wait_p999_us":
                self.histogram_p999_us("gateway.queue.wait"),
            "gateway.refused": d["gateway.refused"],
            "cluster.msgs_per_op": d["cluster.messages"] / ops,
            "cluster.bytes_per_op": d["cluster.bytes"] / ops,
            "cluster.quorum_wait_p999_us":
                self.histogram_p999_us("cluster.quorum_wait"),
            "cluster.ba_fallbacks": d["cluster.ba_fallbacks"],
        }


def user_bytes(ops: list) -> int:
    """Key plus value bytes of every write command (frame minus its
    7-byte length/op/key-length header)."""
    return sum(len(op.frame) - 7 for client_ops in ops
               for op in client_ops if not op.is_read)


def one_round(inputs: tuple, probe=None) -> harness.Round:
    """``inputs`` is ``(fleet ops, lone client ops)``."""
    from repro.gateway.server import GatewayConfig

    ops, lone = inputs
    start = harness.CLOCK.read()
    server = start_server(build_warm_pool(), GatewayConfig(pipeline_depth=DEPTH))
    return serve(server, ops, DEPTH, probe, harness.CLOCK.seconds(start), lone)


def twin(ops: list, depth: int, config, pool_seed: int,
         probe=None) -> harness.Round:
    """Replay ``ops`` on a fresh, unwarmed pool with ``config``: the
    sim-clock twin of a real-socket run."""
    from repro.cluster import DevicePool

    server = start_server(DevicePool(devices=NODES, seed=pool_seed), config)
    return serve(server, ops, depth, probe)


def variant_inputs(seed: int, variant: int) -> tuple:
    """The fleet's ops and the lone client's (a client id the fleet
    does not use, so its keys are its own)."""
    seed = seed * harness.VARIANTS + variant
    return (op_lists(seed, CLIENTS, COMMANDS_PER_CLIENT),
            mix.ClientMix(seed, CLIENTS).take(LONE_COMMANDS))


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
    written = user_bytes(inputs[0])
    metrics, shares, rounds = harness.trace_rounds(
        lambda probe: one_round(inputs, probe),
        lambda probe: Window(probe, written), seconds, PER_LAYER)
    return harness.outcome(rounds, metrics,
                           harness.layer_table("gateway-sim", shares, metrics))


def deterministic(root: str, seed: int) -> dict:
    """Sim metrics and work counts of one instrumented round (no cProfile)."""
    inputs = variant_inputs(seed, 0)
    window = Window(harness.Probe(), user_bytes(inputs[0]))
    r = one_round(inputs, window)
    metrics = window.metrics(r.ops)
    return {**r.sim, **metrics, "failed": r.failed,
            "problems": len(r.problems + window.problems)}
