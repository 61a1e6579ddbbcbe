"""Dataflow coordination: destination-tagged tuples, punctuation, batching.

Data moving along a sharded edge is announced with per-destination tuples;
each source shard closes its contribution with a single punctuation carrying
a sparse {dst shard: tuple count} map (absent means zero). Each destination
shard expects punctuations from a declared number of source shards per
edge: on most hosts only the sources its reshard pairs read from, so
progress messages flow only where data does; on a node's home host every
source shard, which makes its readiness an all-sources gate before the gang
is submitted. A destination shard becomes ready exactly once, when every
expected source has punctuated and the received tuple counts match the
punctuated counts. State exists only for shards with pending input.

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


@dataclass
class _ShardState:
    # expected punctuations not yet received, plus punctuated sources whose
    # tuples have not all arrived; the shard is ready when this reaches 0
    outstanding: int
    edges: dict[str, _EdgeState] = field(default_factory=dict)


class ProgressTracker:
    """Exactly-once readiness for (instance, node, dst shard) triples.

    expect() declares, per edge id, how many source shards will punctuate
    each destination shard: an int means that many for every shard (a
    node's home host expects every source, its all-sources gate), a dict
    maps a shard to its own count (absent means none), as the static
    reshard pairs give it on other hosts. A shard keeps a count of what is
    still outstanding, so each event costs O(1) beyond its own bookkeeping.
    ready_cb fires once per shard with (instance, node, shard).
    """

    def __init__(self, ready_cb=None):
        self.ready_cb = ready_cb
        self._pending: dict[tuple[str, str], dict[int, _ShardState]] = {}
        self._fired: dict[tuple[str, str], set[int]] = {}
        self._expected: dict[tuple[str, str], dict[str, int | dict]] = {}

    # -- registration ------------------------------------------------------

    def expect(self, instance: str, node: str, edge: str,
               src_shards: int | dict[int, int]) -> None:
        """Declare an inbound edge for a node before any tuple can arrive."""
        self._expected.setdefault((instance, node), {})[edge] = src_shards

    def forget(self, instance: str, node: str) -> None:
        self._expected.pop((instance, node), None)
        self._fired.pop((instance, node), None)
        self._pending.pop((instance, node), None)

    def _state(self, instance: str, node: str, shard: int,
               edge: str) -> tuple[_ShardState, _EdgeState]:
        key = (instance, node)
        if shard in self._fired.get(key, ()):
            raise ProtocolViolation(f"traffic on {edge} for completed shard {shard}")
        shards = self._pending.setdefault(key, {})
        st = shards.get(shard)
        if st is None:
            st = _ShardState(0)
            for eid, n in self._expected.get(key, {}).items():
                n = n if isinstance(n, int) else n.get(shard, 0)
                st.edges[eid] = _EdgeState(n)
                st.outstanding += n
            shards[shard] = st
        es = st.edges.get(edge)
        if es is None:
            raise ProtocolViolation(f"traffic on undeclared edge {edge}")
        return st, es

    # -- protocol events ---------------------------------------------------

    def on_tuple(self, node: str, t: DataTuple) -> None:
        st, es = self._state(t.instance, node, t.dst_shard, t.edge)
        seen = es.received.get(t.src_shard, 0) + 1
        declared = es.punctuated.get(t.src_shard)
        if declared is not None and seen > declared:
            raise ProtocolViolation(
                f"tuple on {t.edge} src {t.src_shard} after punctuation count "
                f"{declared} exhausted")
        es.received[t.src_shard] = seen
        if seen == declared:
            self._settle(t.instance, node, t.dst_shard, st)

    def on_punctuation(self, node: str, p: Punctuation,
                       local_shards: list[int]) -> None:
        """Apply one source shard's punctuation to the given local dst shards."""
        for shard in local_shards:
            st, es = self._state(p.instance, node, shard, p.edge)
            if p.src_shard in es.punctuated:
                raise ProtocolViolation(
                    f"duplicate punctuation {p.edge} src {p.src_shard}")
            if len(es.punctuated) == es.expected_srcs:
                raise ProtocolViolation(
                    f"{p.edge} src {p.src_shard}: shard {shard} expects "
                    f"{es.expected_srcs} punctuating sources")
            declared = p.counts.get(shard, p.counts.get(str(shard), 0))
            got = es.received.get(p.src_shard, 0)
            if got > declared:
                raise ProtocolViolation(
                    f"{p.edge} src {p.src_shard}: received {got} > "
                    f"declared {declared}")
            es.punctuated[p.src_shard] = declared
            if got == declared:
                self._settle(p.instance, node, shard, st)

    def _settle(self, instance: str, node: str, shard: int,
                st: _ShardState) -> None:
        """One expected source of the shard is complete."""
        st.outstanding -= 1
        if st.outstanding:
            return
        key = (instance, node)
        self._fired.setdefault(key, set()).add(shard)
        shards = self._pending[key]
        del shards[shard]
        if not shards:
            del self._pending[key]
        if self.ready_cb:
            self.ready_cb(instance, node, shard)

    # -- introspection -----------------------------------------------------

    def pending_count(self) -> int:
        """Number of shard states held: memory is O(shards with pending input)."""
        return sum(len(v) for v in self._pending.values())


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
