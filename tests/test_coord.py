"""Readiness tracking against a brute-force oracle; control-message batching."""
import itertools
from pathlib import Path

import pytest

from flowpath import System, small_cluster
from flowpath.config import BatchingConfig
from flowpath.coord import (DataTuple, MessageBatcher, ProgressTracker,
                            ProtocolViolation, Punctuation, edge_id)
from flowpath.ir import deserialize
from flowpath.runtime import StreamJob
from flowpath.simcore import Process, Simulator, us

CHAIN4 = Path(__file__).resolve().parent.parent / "configs/programs/chain4.json"


def test_edge_id_format():
    assert edge_id("a", "b") == "a->b#0"
    assert edge_id("a", "b", 2) == "a->b#2"


# -- progress tracker ------------------------------------------------------

E = edge_id("a", "b")


def tup(s, d):
    return DataTuple(E, "i1", s, d)


def punct(s, counts):
    return Punctuation(E, "i1", s, counts)


def make_tracker(sources=2):
    """A host on which node b of i1 waits for `sources` punctuations."""
    fired = []
    tr = ProgressTracker(lambda inst, node: fired.append((inst, node)),
                         lambda inst, node: sources if node == "b" else 0)
    return tr, fired


def deliver(tr, msg):
    if isinstance(msg, DataTuple):
        tr.on_tuple("b", msg)
    else:
        tr.on_punctuation("b", msg)


def oracle_fire_position(msgs, n_src=2):
    """Independent readiness computation: the node fires at the first
    prefix holding a punctuation from every source and, for each, as many
    tuples as it declared."""
    for i in range(len(msgs)):
        prefix = msgs[:i + 1]
        puncts = {m.src_shard: sum(m.counts.values()) for m in prefix
                  if isinstance(m, Punctuation)}
        tuples = [m.src_shard for m in prefix if isinstance(m, DataTuple)]
        if len(puncts) == n_src and all(
                tuples.count(s) == n for s, n in puncts.items()):
            return i
    return None


def test_all_delivery_orders_fire_exactly_once_after_punctuation():
    # the home host of a 2 -> 2 all-to-all edge: every message is needed
    base = [tup(0, 0), tup(0, 1), tup(1, 0), tup(1, 1),
            punct(0, {0: 1, 1: 1}), punct(1, {0: 1, 1: 1})]
    for perm in itertools.permutations(base):
        tr, _ = make_tracker()
        at = []
        tr.ready_cb = lambda inst, node, at=at, tr=tr: at.append(tr._idx)
        for i, m in enumerate(perm):
            tr._idx = i
            deliver(tr, m)
        assert at == [oracle_fire_position(perm)] == [len(perm) - 1]
        assert tr.pending_count() == 0


def test_more_punctuating_sources_than_expected_rejected():
    tr, _ = make_tracker(sources=1)
    deliver(tr, punct(0, {0: 1}))
    with pytest.raises(ProtocolViolation, match="expects 1 punctuating"):
        deliver(tr, punct(1, {}))


def test_duplicate_punctuation_rejected_per_shard():
    # a source punctuates a host once, whichever shards its counts name
    tr, fired = make_tracker()
    deliver(tr, punct(0, {0: 1}))
    with pytest.raises(ProtocolViolation, match="duplicate punctuation"):
        deliver(tr, punct(0, {1: 1}))
    assert fired == []


def test_shard_without_expected_sources_rejects_traffic():
    # this host's shards of b are paired with no source: it waits for none
    tr, _ = make_tracker(sources=0)
    with pytest.raises(ProtocolViolation, match="undeclared node b"):
        deliver(tr, punct(0, {}))
    with pytest.raises(ProtocolViolation, match="undeclared node b"):
        deliver(tr, tup(0, 1))


def test_sparse_counts_mean_zero():
    tr, fired = make_tracker()
    deliver(tr, punct(0, {0: 1}))           # src 0 sends nothing to shard 1
    deliver(tr, punct(1, {}))               # src 1 sends nothing here
    assert fired == []                      # src 0's tuple is still out
    deliver(tr, tup(0, 0))
    assert fired == [("i1", "b")]


def test_string_count_keys_accepted():
    # counts maps survive JSON round trips, where int keys become strings
    tr, fired = make_tracker(sources=1)
    deliver(tr, punct(0, {"0": 1, "1": 0}))
    deliver(tr, tup(0, 0))
    assert fired == [("i1", "b")]


def test_duplicate_punctuation_rejected():
    tr, _ = make_tracker()
    deliver(tr, punct(0, {0: 1, 1: 1}))
    with pytest.raises(ProtocolViolation, match="duplicate punctuation"):
        deliver(tr, punct(0, {0: 1, 1: 1}))


def test_tuple_beyond_declared_count_rejected():
    tr, _ = make_tracker()
    deliver(tr, punct(0, {0: 1}))
    deliver(tr, tup(0, 0))
    with pytest.raises(ProtocolViolation, match="exhausted"):
        deliver(tr, tup(0, 0))


def test_received_more_than_declared_rejected():
    tr, _ = make_tracker()
    deliver(tr, tup(0, 0))
    deliver(tr, tup(0, 0))
    with pytest.raises(ProtocolViolation, match="received 2 > declared 1"):
        deliver(tr, punct(0, {0: 1}))


def test_undeclared_edge_rejected():
    # an edge into a node this host does not wait on
    tr, _ = make_tracker()
    x = edge_id("x", "c")
    with pytest.raises(ProtocolViolation, match="undeclared node c"):
        tr.on_tuple("c", DataTuple(x, "i1", 0, 0))
    with pytest.raises(ProtocolViolation, match="undeclared node c"):
        tr.on_punctuation("c", Punctuation(x, "i1", 0, {}))


def test_traffic_after_ready_rejected():
    tr, fired = make_tracker(sources=1)
    deliver(tr, punct(0, {0: 1, 1: 1}))
    deliver(tr, tup(0, 0))
    deliver(tr, tup(0, 1))
    assert fired == [("i1", "b")]
    with pytest.raises(ProtocolViolation, match="ready node b"):
        deliver(tr, tup(0, 0))
    with pytest.raises(ProtocolViolation, match="ready node b"):
        deliver(tr, punct(1, {}))


def test_state_exists_only_while_input_pending():
    tr, _ = make_tracker()
    assert tr.pending_count() == 0
    deliver(tr, tup(0, 0))
    assert tr.pending_count() == 1          # one state for the node
    deliver(tr, tup(0, 1))
    assert tr.pending_count() == 1
    deliver(tr, punct(0, {0: 1, 1: 1}))
    deliver(tr, punct(1, {}))
    assert tr.pending_count() == 0


def test_forget_drops_instance_state():
    tr, fired = make_tracker()
    deliver(tr, tup(0, 0))
    tr.forget("i1")
    assert tr.pending_count() == 0
    # a forgotten instance starts over: the count opens again
    deliver(tr, punct(0, {}))
    deliver(tr, punct(1, {}))
    assert fired == [("i1", "b")]


def test_instances_are_independent():
    tr, fired = make_tracker(sources=1)
    tr.on_punctuation("b", Punctuation(E, "i1", 0, {0: 0}))
    assert fired == [("i1", "b")]
    tr.on_punctuation("b", Punctuation(E, "i2", 0, {0: 0}))
    assert fired == [("i1", "b"), ("i2", "b")]
    tr.forget("i1")
    with pytest.raises(ProtocolViolation, match="ready node b"):
        tr.on_punctuation("b", Punctuation(E, "i2", 1, {}))


# -- message batching ------------------------------------------------------

class Host(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.seen = []
        self.batcher = None

    def handle(self, kind, payload, src):
        if kind == "batch_timeout" and self.batcher is not None:
            self.batcher.on_timeout(payload)
        else:
            self.seen.append((self.sim.now(), kind, payload))


def make_batcher(max_messages=3, max_delay_us=100, latency_us=50):
    sim = Simulator()
    owner = Host(sim, "src")
    dst = Host(sim, "h0")
    b = MessageBatcher(sim, "src", BatchingConfig(max_messages,
                                                  us(max_delay_us)),
                       us(latency_us))
    owner.batcher = b
    return sim, b, dst


def pending(b: MessageBatcher, dst: str) -> int:
    """Messages held for dst, not yet flushed."""
    return len(b._buf.get(dst, ()))


def test_critical_messages_bypass_batching():
    sim, b, dst = make_batcher()
    b.send("h0", "grant", {"n": 1}, critical=True)
    sim.run_until_quiescent()
    assert dst.seen == [(us(50), "grant", {"n": 1})]
    assert b.flushes == 0 and pending(b, "h0") == 0


def test_critical_latency_override():
    sim, b, dst = make_batcher()
    b.send("h0", "grant", {}, critical=True, latency_ns=us(7))
    sim.run_until_quiescent()
    assert dst.seen[0][0] == us(7)


def test_size_flush_sends_one_message_in_order():
    sim, b, dst = make_batcher(max_messages=3)
    for i in range(3):
        b.send("h0", "note", {"i": i}, critical=False)
    assert b.flushes == 1 and pending(b, "h0") == 0
    sim.run_until_quiescent()
    (t, kind, payload), = dst.seen
    assert t == us(50) and kind == "batch"
    assert [m["payload"]["i"] for m in payload["messages"]] == [0, 1, 2]


def test_timeout_flush_counts_from_first_message():
    sim, b, dst = make_batcher(max_messages=100, max_delay_us=10)
    b.send("h0", "note", {"i": 0}, critical=False)

    def second(kind, payload, src):
        pass
    # second message 4us later must not push the deadline out
    sim.schedule_in(us(4), "src", "noop")
    orig = b.sim
    sim.run_until_quiescent()
    assert len(dst.seen) == 1
    t, kind, payload = dst.seen[0]
    assert kind == "batch" and t == us(10) + us(50)
    assert len(payload["messages"]) == 1


def test_second_send_does_not_rearm_timer():
    sim, b, dst = make_batcher(max_messages=100, max_delay_us=10)
    b.send("h0", "note", {"i": 0}, critical=False)

    fired = {}

    def later():
        b.send("h0", "note", {"i": 1}, critical=False)
    sim.call_at(us(6), later) if hasattr(sim, "call_at") else None
    # no call_at helper: emulate by sending now; both share the t=0 deadline
    if not hasattr(sim, "call_at"):
        b.send("h0", "note", {"i": 1}, critical=False)
    sim.run_until_quiescent()
    (t, kind, payload), = dst.seen
    assert t == us(10) + us(50)
    assert [m["payload"]["i"] for m in payload["messages"]] == [0, 1]


def test_size_flush_cancels_timer():
    sim, b, dst = make_batcher(max_messages=2, max_delay_us=10)
    b.send("h0", "note", {"i": 0}, critical=False)
    b.send("h0", "note", {"i": 1}, critical=False)
    res = sim.run_until_quiescent()
    assert len(dst.seen) == 1
    assert dst.seen[0][0] == us(50)          # flushed at t=0, not at timeout


def test_stale_timeout_is_ignored():
    sim, b, dst = make_batcher(max_messages=2)
    b.send("h0", "a", {}, critical=False)
    b.send("h0", "b", {}, critical=False)   # size flush; gen advanced
    b.on_timeout({"dst": "h0", "gen": 1})   # stale generation
    assert b.flushes == 1
    sim.run_until_quiescent()
    assert len(dst.seen) == 1


def test_destinations_batch_independently():
    sim, b, dst0 = make_batcher(max_messages=2)
    dst1 = Host(sim, "h1")
    b.send("h0", "a", {}, critical=False)
    b.send("h1", "b", {}, critical=False)
    assert pending(b, "h0") == 1 and pending(b, "h1") == 1
    b.send("h0", "c", {}, critical=False)
    assert pending(b, "h0") == 0 and pending(b, "h1") == 1
    b.flush("h1")
    assert pending(b, "h1") == 0
    sim.run_until_quiescent()
    kinds0 = [m["kind"] for m in dst0.seen[0][2]["messages"]]
    kinds1 = [m["kind"] for m in dst1.seen[0][2]["messages"]]
    assert kinds0 == ["a", "c"] and kinds1 == ["b"]


def test_flush_empty_destination_is_noop():
    sim, b, _ = make_batcher()
    b.flush("h0")
    assert b.flushes == 0


def test_self_batch_is_a_local_handoff():
    # a flush to the sender itself must not ride the wire: otherwise the
    # pair's FIFO channel would hold later zero-latency critical messages
    # behind the in-flight batch
    sim = Simulator()
    owner = Host(sim, "src")
    b = MessageBatcher(sim, "src", BatchingConfig(2, us(100)), us(50))
    owner.batcher = b
    b.send("src", "note", {}, critical=False)
    b.send("src", "note", {}, critical=False)       # size flush at t=0
    b.send("src", "urgent", {}, critical=True, latency_ns=0)
    sim.run_until_quiescent()
    assert [(t, k) for t, k, _ in owner.seen] == [(0, "batch"), (0, "urgent")]


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_timeout_flushes_leave_no_cancelled_event_ids(mode):
    # a timer that fired is not cancelled by the flush it triggers, so the
    # simulator's set of cancelled ids drains with the queue
    system = System(small_cluster(hosts=2, devices_per_host=4),
                    record_log=True)
    system.register_traced("main", deserialize(CHAIN4.read_text()))
    client = system.add_client("c")
    system.start_job(client, StreamJob(system.new_job_id(), "main", count=4,
                                       mode=mode))
    assert system.run().status == "quiescent"
    assert any(kind == "batch_timeout" for *_, kind, _p in system.sim.log)
    assert system.sim._cancelled == set()
