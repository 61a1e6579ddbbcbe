"""Readiness tracking over generated deliveries; control-message batching."""
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowpath import System, small_cluster
from flowpath.config import BatchingConfig
from flowpath.coord import (MessageBatcher, ProgressTracker, ProtocolViolation,
                            edge_id)
from flowpath.ir import deserialize
from flowpath.runtime import StreamJob
from flowpath.simcore import Process, Simulator, us

CHAIN4 = Path(__file__).resolve().parent.parent / "configs/programs/chain4.json"


def test_edge_id_format():
    assert edge_id("a", "b") == "a->b#0"
    assert edge_id("a", "b", 2) == "a->b#2"


# -- progress tracker ------------------------------------------------------
#
# One edge message closes some source shards of one edge for node b on one
# host; b waits for a fixed number of (edge, source shard) closes there.

E = edge_id("a", "b")


def make_tracker(sources=2):
    """A host on which node b of i1 waits for `sources` source shards."""
    fired = []
    tr = ProgressTracker(lambda inst, node: fired.append((inst, node)),
                         lambda inst, node: sources if node == "b" else 0)
    return tr, fired


def close(tr, srcs, edge=E, instance="i1", node="b"):
    tr.on_punctuation(node, instance, edge, srcs)


@st.composite
def deliveries(draw):
    """Every source shard of 1-3 edges into b, each edge's shards split
    into messages of sorted shards, all messages in any order."""
    msgs = []
    for e in range(draw(st.integers(1, 3))):
        shards = draw(st.permutations(range(draw(st.integers(1, 4)))))
        cuts = draw(st.sets(st.integers(1, len(shards) - 1))) \
            if len(shards) > 1 else set()
        bounds = [0, *sorted(cuts), len(shards)]
        msgs += [(edge_id(f"s{e}", "b"), sorted(shards[lo:hi]))
                 for lo, hi in zip(bounds, bounds[1:])]
    return draw(st.permutations(msgs))


@given(deliveries())
def test_all_delivery_orders_fire_exactly_once_after_punctuation(msgs):
    # any partition of the expected closes into messages, in any order,
    # fires once, after the last message
    tr, fired = make_tracker(sources=sum(len(srcs) for _e, srcs in msgs))
    for edge, srcs in msgs:
        assert fired == []
        close(tr, srcs, edge)
    assert fired == [("i1", "b")]
    assert tr.pending_count() == 0


@given(deliveries(), st.data())
def test_a_repeated_source_shard_raises_and_changes_nothing(msgs, data):
    # a shard of message i is closed again, in message i itself or in a
    # later message (after b fired, too): that message raises, and the
    # state is as if it had never arrived
    tr, fired = make_tracker(sources=sum(len(srcs) for _e, srcs in msgs))
    i = data.draw(st.integers(0, len(msgs) - 1), label="first close")
    edge, srcs = msgs[i]
    s = data.draw(st.sampled_from(srcs), label="shard")
    at = data.draw(st.integers(i, len(msgs)), label="repeat at")
    bad = (edge, sorted([*srcs, s]) if at == i else [s])
    for m in [*msgs[:at], bad, *msgs[at:]]:
        if m is bad:
            with pytest.raises(ProtocolViolation):
                close(tr, m[1], m[0])
        else:
            close(tr, m[1], m[0])
    assert fired == [("i1", "b")]
    assert tr.pending_count() == 0


def test_more_punctuating_sources_than_expected_rejected():
    tr, fired = make_tracker(sources=3)
    close(tr, [0])
    with pytest.raises(ProtocolViolation, match="2 left to close"):
        close(tr, [1, 2, 3])
    close(tr, [1, 2])
    assert fired == [("i1", "b")]


def test_duplicate_punctuation_rejected_per_shard():
    # a message naming one closed shard is rejected whole, with its others
    tr, fired = make_tracker(sources=3)
    close(tr, [0])
    with pytest.raises(ProtocolViolation, match="closed twice"):
        close(tr, [0, 1])
    with pytest.raises(ProtocolViolation, match="closed twice"):
        close(tr, [1, 1])
    close(tr, [1])
    close(tr, [0], edge_id("x", "b"))       # another edge's shard 0
    assert fired == [("i1", "b")]


def test_duplicate_punctuation_rejected():
    tr, fired = make_tracker(sources=4)
    close(tr, [0, 1])
    with pytest.raises(ProtocolViolation, match="closed twice"):
        close(tr, [0, 1])
    assert fired == []


def test_shard_without_expected_sources_rejects_traffic():
    # this host's shards of b are paired with no source: it waits for none
    tr, _ = make_tracker(sources=0)
    with pytest.raises(ProtocolViolation, match="undeclared node b"):
        close(tr, [0])
    assert tr.pending_count() == 0


def test_undeclared_edge_rejected():
    # an edge into a node this host does not wait on
    tr, _ = make_tracker()
    with pytest.raises(ProtocolViolation, match="undeclared node c"):
        close(tr, [0], edge_id("x", "c"), node="c")


def test_traffic_after_ready_rejected():
    tr, fired = make_tracker(sources=1)
    close(tr, [0])
    assert fired == [("i1", "b")]
    with pytest.raises(ProtocolViolation, match="ready node b"):
        close(tr, [1])
    assert fired == [("i1", "b")]


def test_state_exists_only_while_input_pending():
    tr, _ = make_tracker(sources=3)
    assert tr.pending_count() == 0
    close(tr, [0])
    assert tr.pending_count() == 1          # one state for the node
    close(tr, [1])
    assert tr.pending_count() == 1
    close(tr, [2])
    assert tr.pending_count() == 0


def test_forget_drops_instance_state():
    tr, fired = make_tracker()
    close(tr, [0])
    tr.forget("i1")
    assert tr.pending_count() == 0
    # a forgotten instance starts over: the count opens again
    close(tr, [0])
    close(tr, [1])
    assert fired == [("i1", "b")]


def test_instances_are_independent():
    tr, fired = make_tracker(sources=1)
    close(tr, [0])
    assert fired == [("i1", "b")]
    close(tr, [0], instance="i2")
    assert fired == [("i1", "b"), ("i2", "b")]
    tr.forget("i1")
    with pytest.raises(ProtocolViolation, match="ready node b"):
        close(tr, [1], instance="i2")


# -- message batching ------------------------------------------------------

class Host(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.seen = []

    def handle(self, kind, payload, src):
        self.seen.append((self.sim.now(), kind, payload))


class Sender(Process):
    """Sends through its batcher when each scheduled "send" event fires."""

    def __init__(self, sim, pid, batcher):
        super().__init__(sim, pid)
        self.batcher = batcher

    def at(self, t_ns, dst, kind, payload, critical=False, latency_ns=None):
        self.sim.schedule_at(t_ns, self.pid, "send", {
            "dst": dst, "kind": kind, "payload": payload,
            "critical": critical, "latency_ns": latency_ns})

    def handle(self, kind, p, src):
        self.batcher.send(p["dst"], p["kind"], p["payload"], p["critical"],
                          latency_ns=p["latency_ns"])


def make_batcher(max_messages=3, max_delay_us=100, latency_us=50):
    sim = Simulator()
    b = MessageBatcher(sim, "src", BatchingConfig(max_messages,
                                                  us(max_delay_us)),
                       us(latency_us))
    Sender(sim, "src", b)
    dst = Host(sim, "h0")
    return sim, b, dst


def pending(b: MessageBatcher, dst: str) -> int:
    """Messages held for dst in a batch that is still open."""
    batch = b._batch.get(dst)
    return len(batch[3]) if batch and b.sim.now() < batch[0] else 0


def seen(dst: Host) -> list:
    """(t, kind, [message payload "i"s] or payload) per delivery."""
    return [(t, k, [m["payload"].get("i") for m in p["messages"]]
             if k == "batch" else p) for t, k, p in dst.seen]


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
    # the second message, 4us in, joins the batch and does not push its
    # delivery out: one batch event, at close (10us) + latency
    sim, b, dst = make_batcher(max_messages=100, max_delay_us=10)
    src = sim._procs["src"]
    src.at(0, "h0", "note", {"i": 0})
    src.at(us(4), "h0", "note", {"i": 1})
    res = sim.run_until_quiescent()
    assert seen(dst) == [(us(60), "batch", [0, 1])]
    assert res.events == 3 and b.flushes == 1


def test_second_send_does_not_rearm_timer():
    sim, b, dst = make_batcher(max_messages=100, max_delay_us=10)
    src = sim._procs["src"]
    for i, t in enumerate((0, us(4), us(6))):
        src.at(t, "h0", "note", {"i": i})
    sim.run_until_quiescent()
    assert seen(dst) == [(us(60), "batch", [0, 1, 2])]
    assert b.flushes == 1 and b.batched_sent == 3


@pytest.mark.parametrize("t_us", [10, 12])
def test_send_at_or_after_close_instant_opens_a_new_batch(t_us):
    # the batch opened at 0 closes at 10us and is still in flight until
    # 60us; a message sent at or after 10us waits for its own batch
    sim, b, dst = make_batcher(max_messages=100, max_delay_us=10)
    src = sim._procs["src"]
    src.at(0, "h0", "note", {"i": 0})
    src.at(us(t_us), "h0", "note", {"i": 1})
    sim.run_until_quiescent()
    assert seen(dst) == [(us(60), "batch", [0]),
                         (us(t_us + 60), "batch", [1])]
    assert b.flushes == 2


@pytest.mark.parametrize("lat_us", [56, 90])
def test_critical_landing_no_earlier_than_an_open_batch_moves_it_behind(
        lat_us):
    # sent at 4us while the batch (due at 60us) is open; the batch must
    # not overtake the critical message on the channel, even at a tie
    sim, b, dst = make_batcher(max_messages=100, max_delay_us=10)
    src = sim._procs["src"]
    src.at(0, "h0", "note", {"i": 0})
    src.at(us(4), "h0", "urgent", {}, critical=True, latency_ns=us(lat_us))
    src.at(us(6), "h0", "note", {"i": 1})
    sim.run_until_quiescent()
    t = us(4 + lat_us)
    assert seen(dst) == [(t, "urgent", {}), (t, "batch", [0, 1])]
    assert sim._cancelled == set()


def test_batch_opened_behind_a_slow_critical_message_lands_after_it():
    sim, b, dst = make_batcher(max_messages=100, max_delay_us=10)
    src = sim._procs["src"]
    src.at(0, "h0", "urgent", {}, critical=True, latency_ns=us(100))
    src.at(us(1), "h0", "note", {"i": 0})
    sim.run_until_quiescent()
    assert seen(dst) == [(us(100), "urgent", {}), (us(100), "batch", [0])]


def test_critical_sent_while_a_batch_is_open_is_not_held_back():
    sim, b, dst = make_batcher(max_messages=100, max_delay_us=10)
    src = sim._procs["src"]
    src.at(0, "h0", "note", {"i": 0})
    src.at(us(4), "h0", "urgent", {}, critical=True, latency_ns=us(5))
    sim.run_until_quiescent()
    assert seen(dst) == [(us(9), "urgent", {}), (us(60), "batch", [0])]


@pytest.mark.parametrize("t_us", [10, 12])
def test_critical_sent_at_or_after_close_instant_lands_after_the_batch(t_us):
    # the closed batch is still in flight (due at 60us): a critical message
    # sent now with a short latency is held behind it on the channel
    sim, b, dst = make_batcher(max_messages=100, max_delay_us=10)
    src = sim._procs["src"]
    src.at(0, "h0", "note", {"i": 0})
    src.at(us(t_us), "h0", "urgent", {}, critical=True, latency_ns=us(5))
    sim.run_until_quiescent()
    assert seen(dst) == [(us(60), "batch", [0]), (us(60), "urgent", {})]


def test_size_flush_cancels_timer():
    sim, b, dst = make_batcher(max_messages=2, max_delay_us=10)
    b.send("h0", "note", {"i": 0}, critical=False)
    b.send("h0", "note", {"i": 1}, critical=False)
    res = sim.run_until_quiescent()
    assert len(dst.seen) == 1
    assert dst.seen[0][0] == us(50)          # flushed at t=0, not at timeout
    assert res.events == 1 and sim._cancelled == set()


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
    b.send("src", "note", {}, critical=False)
    b.send("src", "note", {}, critical=False)       # size flush at t=0
    b.send("src", "urgent", {}, critical=True, latency_ns=0)
    sim.run_until_quiescent()
    assert [(t, k) for t, k, _ in owner.seen] == [(0, "batch"), (0, "urgent")]


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_timeout_flushes_leave_no_cancelled_event_ids(mode):
    # a batch costs one event and no timer, and a size flush's cancelled
    # delivery is dropped when popped: the set of cancelled ids drains
    system = System(small_cluster(hosts=2, devices_per_host=4),
                    record_log=True)
    system.register_traced("main", deserialize(CHAIN4.read_text()))
    client = system.add_client("c")
    system.start_job(client, StreamJob(system.new_job_id(), "main", count=4,
                                       mode=mode))
    assert system.run().status == "quiescent"
    kinds = {kind for *_, kind, _p in system.sim.log}
    assert "batch" in kinds and "batch_timeout" not in kinds
    assert system.sim._cancelled == set()
