"""Dataflow coordination: destination-tagged tuples, punctuation, batching.

Data moving along a sharded edge is announced with per-destination tuples;
each source shard closes its contribution with a single punctuation carrying
a sparse {dst shard: tuple count} map (absent means zero). A destination
shard becomes ready exactly once, when every source shard has punctuated and
the received tuple counts match the punctuated counts. State exists only for
shards with pending input.

Control messages between hosts either bypass batching (critical path) or
are coalesced per destination host and flushed when the batch reaches
max_messages or has waited max_delay.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .config import BatchingConfig
from .simcore import Simulator


class ProtocolViolation(Exception):
    """A tuple arrived after its source shard's punctuation was exhausted."""


@dataclass(frozen=True)
class DataTuple:
    edge: str          # edge id: "<src>-><dst>#<dst_port>"
    instance: str
    src_shard: int
    dst_shard: int


@dataclass(frozen=True)
class Punctuation:
    edge: str
    instance: str
    src_shard: int
    counts: dict       # dst shard -> tuple count; absent key means 0


@dataclass
class _EdgeState:
    expected_srcs: int
    received: dict[int, int] = field(default_factory=dict)      # src -> tuples seen
    punctuated: dict[int, int] = field(default_factory=dict)    # src -> declared count

    def complete(self) -> bool:
        if len(self.punctuated) < self.expected_srcs:
            return False
        return all(self.received.get(s, 0) == c
                   for s, c in self.punctuated.items())


@dataclass
class _ShardState:
    edges: dict[str, _EdgeState] = field(default_factory=dict)


class ProgressTracker:
    """Exactly-once readiness for (instance, node, dst shard) triples.

    edge_srcs declares, per edge id, how many source shards will punctuate.
    ready_cb fires once per shard with (instance, node, shard).
    """

    def __init__(self, ready_cb=None):
        self.ready_cb = ready_cb
        self._pending: dict[tuple[str, str, int], _ShardState] = {}
        self._fired: dict[tuple[str, str], set[int]] = {}
        self._expected: dict[tuple[str, str], dict[str, int]] = {}

    # -- registration ------------------------------------------------------

    def expect(self, instance: str, node: str, edge: str, src_shards: int) -> None:
        """Declare an inbound edge for a node before any tuple can arrive."""
        self._expected.setdefault((instance, node), {})[edge] = src_shards

    def forget(self, instance: str, node: str) -> None:
        self._expected.pop((instance, node), None)
        self._fired.pop((instance, node), None)
        for key in [k for k in self._pending if k[0] == instance and k[1] == node]:
            del self._pending[key]

    def _shard_state(self, instance: str, node: str, shard: int) -> _ShardState:
        key = (instance, node, shard)
        st = self._pending.get(key)
        if st is None:
            st = _ShardState()
            edges = self._expected.get((instance, node), {})
            for eid, nsrc in edges.items():
                st.edges[eid] = _EdgeState(expected_srcs=nsrc)
            self._pending[key] = st
        return st

    # -- protocol events ---------------------------------------------------

    def on_tuple(self, node: str, t: DataTuple) -> None:
        done = self._fired.get((t.instance, node), set())
        if t.dst_shard in done:
            raise ProtocolViolation(
                f"tuple on {t.edge} for completed shard {t.dst_shard}")
        st = self._shard_state(t.instance, node, t.dst_shard)
        es = st.edges.get(t.edge)
        if es is None:
            raise ProtocolViolation(f"tuple on undeclared edge {t.edge}")
        seen = es.received.get(t.src_shard, 0) + 1
        if t.src_shard in es.punctuated and seen > es.punctuated[t.src_shard]:
            raise ProtocolViolation(
                f"tuple on {t.edge} src {t.src_shard} after punctuation count "
                f"{es.punctuated[t.src_shard]} exhausted")
        es.received[t.src_shard] = seen
        self._maybe_ready(t.instance, node, t.dst_shard, st)

    def on_punctuation(self, node: str, p: Punctuation,
                       local_shards: list[int]) -> None:
        """Apply one source shard's punctuation to the given local dst shards."""
        for shard in local_shards:
            done = self._fired.get((p.instance, node), set())
            if shard in done:
                raise ProtocolViolation(
                    f"punctuation on {p.edge} for completed shard {shard}")
            st = self._shard_state(p.instance, node, shard)
            es = st.edges.get(p.edge)
            if es is None:
                raise ProtocolViolation(f"punctuation on undeclared edge {p.edge}")
            if p.src_shard in es.punctuated:
                raise ProtocolViolation(
                    f"duplicate punctuation {p.edge} src {p.src_shard}")
            declared = p.counts.get(shard, p.counts.get(str(shard), 0))
            if es.received.get(p.src_shard, 0) > declared:
                raise ProtocolViolation(
                    f"{p.edge} src {p.src_shard}: received "
                    f"{es.received.get(p.src_shard, 0)} > declared {declared}")
            es.punctuated[p.src_shard] = declared
            self._maybe_ready(p.instance, node, shard, st)

    def _maybe_ready(self, instance: str, node: str, shard: int,
                     st: _ShardState) -> None:
        if not st.edges or not all(es.complete() for es in st.edges.values()):
            return
        self._fired.setdefault((instance, node), set()).add(shard)
        del self._pending[(instance, node, shard)]
        if self.ready_cb:
            self.ready_cb(instance, node, shard)

    # -- introspection -----------------------------------------------------

    def pending_count(self) -> int:
        """Number of shard states held: memory is O(shards with pending input)."""
        return len(self._pending)


def edge_id(src: str, dst: str, dst_port: int = 0) -> str:
    return f"{src}->{dst}#{dst_port}"


class MessageBatcher:
    """Coalesces non-critical control messages per destination host.

    A batch is sent as one network message (one latency charge); a batch
    addressed to the sender itself is a local handoff and pays no wire
    latency, so an in-flight self-batch can never delay later critical
    messages behind the pair's FIFO channel. Critical messages bypass
    coalescing entirely but share the ordered channel, so a flush never
    reorders against them. Flush triggers: size reaches max_messages, or
    age reaches max_delay.
    """

    def __init__(self, sim: Simulator, src_pid: str, cfg: BatchingConfig,
                 latency_ns: int):
        self.sim = sim
        self.src_pid = src_pid
        self.cfg = cfg
        self.latency_ns = latency_ns
        self._buf: dict[str, list[tuple[str, dict]]] = {}
        self._timer: dict[str, int] = {}        # dst -> event id
        self._gen: dict[str, int] = {}
        self.flushes = 0
        self.batched_sent = 0

    def send(self, dst_pid: str, kind: str, payload: dict,
             critical: bool, latency_ns: int | None = None) -> None:
        if critical:
            lat = self.latency_ns if latency_ns is None else latency_ns
            self.sim.send(self.src_pid, dst_pid, kind, payload, latency=lat)
            return
        buf = self._buf.setdefault(dst_pid, [])
        buf.append((kind, payload))
        self.batched_sent += 1
        if len(buf) >= self.cfg.max_messages:
            self.flush(dst_pid)
        elif len(buf) == 1:
            gen = self._gen.get(dst_pid, 0) + 1
            self._gen[dst_pid] = gen
            self._timer[dst_pid] = self.sim.schedule_in(
                self.cfg.max_delay_ns, self.src_pid, "batch_timeout",
                {"dst": dst_pid, "gen": gen})

    def on_timeout(self, payload: dict) -> None:
        dst = payload["dst"]
        if payload["gen"] == self._gen.get(dst):
            self.flush(dst)

    def flush(self, dst_pid: str) -> None:
        buf = self._buf.pop(dst_pid, None)
        if not buf:
            return
        eid = self._timer.pop(dst_pid, None)
        if eid is not None:
            self.sim.cancel(eid)
        self._gen[dst_pid] = self._gen.get(dst_pid, 0) + 1
        self.flushes += 1
        lat = 0 if dst_pid == self.src_pid else self.latency_ns
        self.sim.send(self.src_pid, dst_pid, "batch",
                      {"messages": [{"kind": k, "payload": p} for k, p in buf]},
                      latency=lat)

    def pending(self, dst_pid: str) -> int:
        return len(self._buf.get(dst_pid, []))
