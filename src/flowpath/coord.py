"""Dataflow coordination: host-gated readiness per message, batching.

An edge update is one critical message per (edge, source host, destination
host). It names, sorted, the source shards whose output it closes on the
destination host: their futures in sequential dispatch, their data when the
consumer is data-dependent. The device gates each kernel on its landed
inputs, so readiness needs only which sources are done, not what they
sent. Each host of a host-gated node waits for a static number of (edge,
source shard) closes, `NodeInfo.waits`: on most hosts only the sources its
reshard pairs read from, so progress messages flow only where data does; on
the node's home host every source shard, which makes its readiness an
all-sources gate before the gang is submitted. A node becomes ready on a host exactly once,
when its last expected source shard closes. State exists only for nodes
with pending input.

Control messages between hosts either bypass batching (critical path) or
are coalesced per destination host into one event, scheduled when the batch
opens and sent early only if the batch reaches max_messages.
"""
from __future__ import annotations

from .config import BatchingConfig
from .simcore import Simulator


class ProtocolViolation(Exception):
    """Progress traffic closed a source shard it should not have."""


class ProgressTracker:
    """Exactly-once readiness for (instance, node) pairs on one host.

    sources(instance, node) gives how many (edge, source shard) closes the
    node waits for here (0: none, so any traffic for it is a violation).
    The node's first message opens its state through expect(): the count of
    source shards still to close and the set of (edge, source shard) pairs
    closed so far. Each message then costs O(its shards) and is checked
    whole before it changes the state. ready_cb fires once per node with
    (instance, node); forget() drops an instance.
    """

    def __init__(self, ready_cb, sources):
        self.ready_cb = ready_cb
        self.sources = sources
        # instance -> node -> [shards still to close, closed (edge, shard)]
        self._pending: dict[str, dict[str, list]] = {}
        self._fired: dict[str, set[str]] = {}

    def expect(self, instance: str, node: str, sources: int) -> list:
        """Open the state of a node that waits for `sources` closes."""
        st = [sources, set()]
        self._pending.setdefault(instance, {})[node] = st
        return st

    def forget(self, instance: str) -> None:
        self._pending.pop(instance, None)
        self._fired.pop(instance, None)

    def on_punctuation(self, node: str, instance: str, edge: str,
                       srcs: list[int]) -> None:
        """One edge message: close the source shards `srcs` of `edge` for
        `node` here."""
        st = self._pending.get(instance, {}).get(node)
        if st is None:
            if node in self._fired.get(instance, ()):
                raise ProtocolViolation(
                    f"traffic on {edge} for ready node {node}")
            left = self.sources(instance, node)
            if not left:
                raise ProtocolViolation(
                    f"traffic on {edge} for undeclared node {node}")
            closed = ()
        else:
            left, closed = st
        new = {(edge, s) for s in srcs}
        if len(new) < len(srcs) or not new.isdisjoint(closed):
            raise ProtocolViolation(
                f"source shard of {edge} closed twice: {srcs}")
        if len(new) > left:
            raise ProtocolViolation(
                f"{edge} closes {len(new)} source shards: node {node} has "
                f"{left} left to close")
        if len(new) < left:
            if st is None:
                st = self.expect(instance, node, left)
            st[0] -= len(new)
            st[1] |= new
            return
        if st is not None:
            del self._pending[instance][node]
        self._fired.setdefault(instance, set()).add(node)
        self.ready_cb(instance, node)

    def on_tuple(self, *_args) -> None:
        """No-op: an edge message closes its source shards in one
        on_punctuation call. perfbench still wraps this method by name;
        ROADMAP item 1 deletes the two together."""

    def pending_count(self) -> int:
        """Number of node states held: memory is O(nodes with pending input)."""
        return sum(len(v) for v in self._pending.values())


def edge_id(src: str, dst: str, dst_port: int = 0) -> str:
    return f"{src}->{dst}#{dst_port}"


class MessageBatcher:
    """Coalesces non-critical control messages per destination host.

    A destination's first message opens a batch and schedules its one
    `batch` event at once, due at the close instant (open + max_delay) plus
    latency; a batch to the sender itself is a local handoff and pays none.
    Messages sent before the close instant join it; one sent at or after it
    opens a new batch. A batch that reaches max_messages closes now.
    The batcher sees every send on its channels and keeps them FIFO: a
    critical message landing no earlier than an open batch moves the batch
    behind it, and the first send at or after the close instant raises the
    channel's last delivery to the batch's (not earlier: that would hold
    back critical messages sent while the batch is open).
    """

    def __init__(self, sim: Simulator, src_pid: str, cfg: BatchingConfig,
                 latency_ns: int):
        self.sim = sim
        self.src_pid = src_pid
        self.cfg = cfg
        self.latency_ns = latency_ns
        # dst -> [close ns, delivery ns, event id, messages] of its last
        # batch, kept past the close instant until the next send to dst
        self._batch: dict[str, list] = {}
        self.flushes = 0
        self.batched_sent = 0

    def send(self, dst_pid: str, kind: str, payload: dict,
             critical: bool, latency_ns: int | None = None) -> None:
        chan = (self.src_pid, dst_pid)
        b = self._batch.get(dst_pid)
        if b is not None and self.sim.clock >= b[0]:
            # b has closed: whatever is sent from now on lands after it
            del self._batch[dst_pid]
            self.sim._chan_last[chan] = b[1]
            b = None
        if critical:
            if latency_ns is None:
                latency_ns = 0 if dst_pid == self.src_pid else self.latency_ns
            self.sim.send(self.src_pid, dst_pid, kind, payload, latency_ns)
            if b is not None and self.sim._chan_last[chan] >= b[1]:
                self._schedule(dst_pid, b)
            return
        self.batched_sent += 1
        if b is None:
            b = self._batch[dst_pid] = [
                self.sim.clock + self.cfg.max_delay_ns, 0, 0, []]
            self._schedule(dst_pid, b)
            self.flushes += 1
        b[3].append({"kind": kind, "payload": payload})
        if len(b[3]) >= self.cfg.max_messages:
            self.flush(dst_pid)

    def _schedule(self, dst_pid: str, b: list) -> None:
        """(Re)schedule b at close + latency, never ahead of the channel."""
        if b[2]:
            self.sim.cancel(b[2])
        lat = 0 if dst_pid == self.src_pid else self.latency_ns
        b[1] = max(b[0] + lat,
                   self.sim._chan_last.get((self.src_pid, dst_pid), 0))
        b[2] = self.sim.schedule_at(b[1], dst_pid, "batch",
                                    {"messages": b[3]}, self.src_pid)

    def on_timeout(self, payload: dict) -> None:
        """No-op: batches have no timer. perfbench still wraps this method by
        name; ROADMAP item 1 deletes the two together."""

    def flush(self, dst_pid: str) -> None:
        """Close dst's open batch now and send it without waiting."""
        b = self._batch.get(dst_pid)
        if b is not None and self.sim.clock < b[0]:
            b[0] = self.sim.clock
            self._schedule(dst_pid, b)

    def cancel_open(self) -> None:
        """The sender died: its open batches are never sent nor counted."""
        for dst in [d for d, b in self._batch.items()
                    if b[0] > self.sim.clock]:
            b = self._batch.pop(dst)
            self.sim.cancel(b[2])
            self.flushes -= 1
            self.batched_sent -= len(b[3])
