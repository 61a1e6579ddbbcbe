"""Dataflow coordination: destination-tagged tuples, punctuation, batching.

Data moving along a sharded edge is announced with per-destination tuples;
each source shard closes its contribution to a host with a single
punctuation carrying a sparse {dst shard: tuple count} map (absent means
zero). Each host of a host-gated node waits for a static number of
(edge, source shard) punctuations, `NodeInfo.waits`: on most hosts only the
sources its reshard pairs read from, so progress messages flow only where
data does; on the node's home host every source shard, which makes its
readiness an all-sources gate before the gang is submitted. A node becomes
ready on a host exactly once, when every expected source has punctuated
and the tuples each declared for that host have arrived. State exists only
for nodes with pending input.

Control messages between hosts either bypass batching (critical path) or
are coalesced per destination host and flushed when the batch reaches
max_messages or has waited max_delay.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .config import BatchingConfig
from .simcore import Simulator


class ProtocolViolation(Exception):
    """Progress traffic broke the tuple and punctuation protocol."""


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
class _NodeState:
    # expected punctuations not yet received, plus punctuated sources whose
    # tuples have not all arrived; the node is ready when this reaches 0
    outstanding: int
    expected: int
    received: dict = field(default_factory=dict)    # (edge, src) -> tuples
    declared: dict = field(default_factory=dict)    # (edge, src) -> count


class ProgressTracker:
    """Exactly-once readiness for (instance, node) pairs on one host.

    sources(instance, node) gives how many (edge, source shard)
    punctuations the node waits for here (0: none, so any traffic for it
    is a violation). The node's first tuple or punctuation opens its count
    through expect(); each event then costs O(1). ready_cb fires once per
    node with (instance, node); forget() drops an instance.
    """

    def __init__(self, ready_cb, sources):
        self.ready_cb = ready_cb
        self.sources = sources
        self._pending: dict[str, dict[str, _NodeState]] = {}
        self._fired: dict[str, set[str]] = {}

    # -- registration ------------------------------------------------------

    def expect(self, instance: str, node: str, sources: int) -> _NodeState:
        """Open the count of a node that waits for `sources` punctuations."""
        st = _NodeState(sources, sources)
        self._pending.setdefault(instance, {})[node] = st
        return st

    def forget(self, instance: str) -> None:
        self._pending.pop(instance, None)
        self._fired.pop(instance, None)

    def _state(self, instance: str, node: str, edge: str) -> _NodeState:
        st = self._pending.get(instance, {}).get(node)
        if st is not None:
            return st
        if node in self._fired.get(instance, ()):
            raise ProtocolViolation(f"traffic on {edge} for ready node {node}")
        n = self.sources(instance, node)
        if not n:
            raise ProtocolViolation(
                f"traffic on {edge} for undeclared node {node}")
        return self.expect(instance, node, n)

    # -- protocol events ---------------------------------------------------

    def on_tuple(self, node: str, t: DataTuple) -> None:
        st = self._state(t.instance, node, t.edge)
        src = (t.edge, t.src_shard)
        seen = st.received.get(src, 0) + 1
        declared = st.declared.get(src)
        if declared is not None and seen > declared:
            raise ProtocolViolation(
                f"tuple on {t.edge} src {t.src_shard} after punctuation count "
                f"{declared} exhausted")
        st.received[src] = seen
        if seen == declared:
            self._settle(t.instance, node, st)

    def on_punctuation(self, node: str, p: Punctuation) -> None:
        st = self._state(p.instance, node, p.edge)
        src = (p.edge, p.src_shard)
        if src in st.declared:
            raise ProtocolViolation(
                f"duplicate punctuation {p.edge} src {p.src_shard}")
        if len(st.declared) == st.expected:
            raise ProtocolViolation(
                f"{p.edge} src {p.src_shard}: node {node} expects "
                f"{st.expected} punctuating sources")
        declared = sum(p.counts.values())
        got = st.received.get(src, 0)
        if got > declared:
            raise ProtocolViolation(
                f"{p.edge} src {p.src_shard}: received {got} > "
                f"declared {declared}")
        st.declared[src] = declared
        if got == declared:
            self._settle(p.instance, node, st)

    def _settle(self, instance: str, node: str, st: _NodeState) -> None:
        """One expected source of the node is complete."""
        st.outstanding -= 1
        if st.outstanding:
            return
        del self._pending[instance][node]
        self._fired.setdefault(instance, set()).add(node)
        self.ready_cb(instance, node)

    # -- introspection -----------------------------------------------------

    def pending_count(self) -> int:
        """Number of node states held: memory is O(nodes with pending input)."""
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
            del self._timer[dst]        # this timer has fired: no cancel
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
