"""The seeded gateway command mix, with the reply each command must get.

One mix drives ``tcp-serve``, ``gateway-sim`` and the sim-clock twin of
``tcp-serve``.  Its proportions are those of the repository's own mixed
serving load (``repro.gateway.driver``'s command cycle, behind the
saturation bench): per eight commands 3 GET, 2 SET, 1 APPEND, 1 INCR and
1 DEL, drawn at random per command.  Its sizes are that load's defaults
(``GatewayLoad``): 64 B values and a key space of 16.

The cycle's INCR lands on keys that SET and APPEND also write, so one
INCR per client meets a non-integer and gets ERR.  Here INCR goes to one
of :data:`SHARED_COUNTERS` counters that every client shares and nothing
else writes, so no INCR ever fails.  Every other command goes to one of
the client's :data:`PRIVATE_KEYS` private keys.

Nobody else touches a client's private keys and the gateway keeps
per-key order within a connection, so the reply to every private-key
command is fixed when the command is generated: a per-key dict model of
memkv.  A shared counter's reply is any integer; its final value must
equal the number of INCRs acknowledged on it.

The wire format is written out here rather than taken from
``repro.gateway.protocol``, so the benchmark checks the program's
encoding instead of sharing it:

* request ``[len u32][op u8][key_len u16][key][value]``;
* reply ``[len u32][status u8][payload]``; ``VALUE`` payloads carry a
  presence byte (``\\x01`` + value, or ``\\x00`` for a missing key).
"""

from __future__ import annotations

import random
import struct

SET, DEL, APPEND, INCR, GET = 1, 2, 3, 4, 5
OK, VALUE, ERR = 1, 2, 3

#: ``GatewayLoad``'s defaults: its key space and value size.
SHARED_COUNTERS = 16
PRIVATE_KEYS = 16
VALUE_BYTES = 64

#: ``repro.gateway.driver``'s mixed command cycle; each command is drawn
#: uniformly from it.  An APPEND meets a SET or DEL of its key three
#: times as often as another APPEND, so values stay short.
CYCLE = (SET, APPEND, GET, INCR, SET, GET, DEL, GET)

_LEN = struct.Struct("<I")
_HEAD = struct.Struct("<BH")


def request(op: int, key: str, value: bytes = b"") -> bytes:
    """One request frame."""
    key_bytes = key.encode()
    body = _HEAD.pack(op, len(key_bytes)) + key_bytes + value
    return _LEN.pack(len(body)) + body


def shared_key(index: int) -> str:
    return f"shared.{index}"


def shared_counter_value(body: bytes):
    """The integer in a GET reply body of a shared counter (0 if unset),
    or ``None`` when the body is not a well-formed VALUE."""
    if body == bytes((VALUE, 0)):
        return 0
    if len(body) > 2 and body[:2] == bytes((VALUE, 1)) and body[2:].isdigit():
        return int(body[2:])
    return None


def is_incr_ack(body: bytes) -> bool:
    return len(body) > 1 and body[0] == OK and body[1:].isdigit()


class Op:
    """One generated command: frame, class, and the reply it must get.

    ``expect`` is the exact reply body, or ``None`` for a shared-counter
    INCR (``shared`` then names the counter).
    """

    __slots__ = ("frame", "is_read", "expect", "shared")

    def __init__(self, frame: bytes, is_read: bool, expect, shared) -> None:
        self.frame = frame
        self.is_read = is_read
        self.expect = expect
        self.shared = shared


class ClientMix:
    """The endless seeded command stream of one client."""

    def __init__(self, seed: int, client: int) -> None:
        self._rng = random.Random(f"gateway-mix:{seed}:{client}")
        self._keys = [f"c{client}.k{i}" for i in range(PRIVATE_KEYS)]
        self._model: dict = {}

    def __iter__(self):
        return self

    def __next__(self) -> Op:
        rng, model = self._rng, self._model
        op = rng.choice(CYCLE)
        if op == INCR:
            index = rng.randrange(SHARED_COUNTERS)
            return Op(request(INCR, shared_key(index)), False, None, index)
        key = rng.choice(self._keys)
        if op == GET:
            value = model.get(key)
            expect = bytes((VALUE, 0)) if value is None else bytes((VALUE, 1)) + value
            return Op(request(GET, key), True, expect, None)
        if op == DEL:
            model.pop(key, None)
            return Op(request(DEL, key), False, bytes((OK,)), None)
        value = rng.randbytes(VALUE_BYTES // 2).hex().encode()
        model[key] = model.get(key, b"") + value if op == APPEND else value
        return Op(request(op, key, value), False, bytes((OK,)), None)

    def take(self, count: int) -> list:
        return [next(self) for _ in range(count)]


class ReplyDecoder:
    """Splits a reply byte stream into frame bodies across any chunking."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list:
        buffer = self._buffer
        buffer += data
        bodies = []
        start = 0
        while len(buffer) - start >= 4:
            (length,) = _LEN.unpack_from(buffer, start)
            end = start + 4 + length
            if end > len(buffer):
                break
            bodies.append(bytes(buffer[start + 4:end]))
            start = end
        del buffer[:start]
        return bodies


class Checker:
    """Failure accounting shared by every client of one run.

    A reply fails when it is ``ERR``, differs from the model, or is a
    malformed shared-counter ack; a request that never gets a reply
    (missing reply, dropped connection) is added by the caller through
    :meth:`missing`.
    """

    def __init__(self) -> None:
        self.failed = 0
        self.incr_acks = [0] * SHARED_COUNTERS
        self.examples: list = []

    def check(self, op: Op, body: bytes) -> None:
        if op.expect is not None:
            good = body == op.expect
        else:
            good = is_incr_ack(body)
            if good:
                self.incr_acks[op.shared] += 1
        if not good:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(
                    f"request {op.frame[:40]!r}: got {body[:40]!r}, "
                    f"expected {op.expect[:40] if op.expect else 'an INCR ack'!r}")

    def missing(self, count: int, why: str) -> None:
        self.failed += count
        if count and len(self.examples) < 5:
            self.examples.append(f"{count} request(s) without a reply: {why}")

    def check_counters(self, finals: list) -> list:
        """Compare each shared counter's final value with its acked INCRs."""
        problems = []
        finals = list(finals) + [None] * (SHARED_COUNTERS - len(finals))
        for index, (final, acked) in enumerate(zip(finals, self.incr_acks)):
            if final != acked:
                problems.append(f"shared counter {index}: final value "
                                f"{final!r}, acked INCRs {acked}")
        return problems
