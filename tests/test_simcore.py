"""Simulation kernel: ordering, channels, quiescence, deadlock oracle."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpath.simcore import (Process, ScheduleInPastError, SimError,
                              Simulator, find_wait_cycle, payload_digest, us)


class Recorder(Process):
    """Appends (t, kind, payload) for every delivery."""

    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.seen = []

    def handle(self, kind, payload, src):
        self.seen.append((self.sim.now(), kind, payload))


def test_clock_starts_at_zero():
    assert Simulator().now() == 0


def test_events_fire_in_time_then_seq_order():
    sim = Simulator()
    r = Recorder(sim, "r")
    sim.schedule_at(20, "r", "b")
    sim.schedule_at(10, "r", "a")
    sim.schedule_at(20, "r", "c")   # same time as b, scheduled later
    res = sim.run_until_quiescent()
    assert [k for _, k, _ in r.seen] == ["a", "b", "c"]
    assert res.status == "quiescent" and res.clock_ns == 20


def test_schedule_in_is_relative():
    sim = Simulator()
    r = Recorder(sim, "r")
    sim.schedule_at(100, "r", "first")
    sim.schedule_at(100, "r", "chain")

    orig = r.handle

    def chained(kind, payload, src):
        orig(kind, payload, src)
        if kind == "chain" and len(r.seen) < 3:
            sim.schedule_in(5, "r", "later")
    r.handle = chained
    sim.run_until_quiescent()
    assert r.seen[-1] == (105, "later", {})


def test_schedule_in_past_raises():
    sim = Simulator()
    Recorder(sim, "r")
    sim.schedule_at(50, "r", "x")
    sim.run_until_quiescent()
    with pytest.raises(ScheduleInPastError):
        sim.schedule_at(10, "r", "y")


def test_channel_never_reorders():
    """A message sent later on the same channel cannot arrive earlier."""
    sim = Simulator()
    r = Recorder(sim, "r")
    Recorder(sim, "s")
    sim.send("s", "r", "slow", latency=100)
    sim.send("s", "r", "fast", latency=1)
    sim.run_until_quiescent()
    assert [k for _, k, _ in r.seen] == ["slow", "fast"]
    assert [t for t, _, _ in r.seen] == [100, 100]


def test_channels_are_per_sender_receiver_pair():
    sim = Simulator()
    r = Recorder(sim, "r")
    Recorder(sim, "s1")
    Recorder(sim, "s2")
    sim.send("s1", "r", "slow", latency=100)
    sim.send("s2", "r", "fast", latency=1)   # different channel: no clamp
    sim.run_until_quiescent()
    assert [k for _, k, _ in r.seen] == ["fast", "slow"]


def test_cancel_drops_event():
    sim = Simulator()
    r = Recorder(sim, "r")
    eid = sim.schedule_at(10, "r", "gone")
    sim.schedule_at(20, "r", "kept")
    sim.cancel(eid)
    sim.run_until_quiescent()
    assert [k for _, k, _ in r.seen] == ["kept"]
    assert sim._cancelled == set()


def test_duplicate_pid_rejected():
    sim = Simulator()
    Recorder(sim, "p")
    with pytest.raises(SimError):
        Recorder(sim, "p")


def test_obligations_turn_quiescence_into_deadlock():
    class Waiting(Recorder):
        def obligations(self):
            return ["still waiting"]

    sim = Simulator()
    Waiting(sim, "w")
    res = sim.run_until_quiescent()
    assert res.status == "deadlock"
    assert res.blocked == ["w: still waiting"]


def test_max_events_guard():
    class Pinger(Recorder):
        def handle(self, kind, payload, src):
            self.sim.schedule_in(1, self.pid, "ping")

    sim = Simulator()
    Pinger(sim, "p")
    sim.schedule_at(0, "p", "ping")
    with pytest.raises(SimError):
        sim.run_until_quiescent(max_events=100)


def test_event_log_ndjson(tmp_path):
    sim = Simulator(record_log=True)
    Recorder(sim, "r")
    sim.schedule_at(us(1), "r", "x", {"a": 1})
    sim.schedule_at(us(2), "r", "y", {"b": 2})
    sim.run_until_quiescent()
    path = tmp_path / "events.ndjson"
    sim.dump_event_log(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["kind"] for r in rows] == ["x", "y"]
    assert rows[0]["t_ns"] == 1000
    assert all(len(r["payload_digest"]) == 16 for r in rows)


def test_payload_digest_is_order_insensitive():
    assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})
    assert payload_digest({"a": 1}) != payload_digest({"a": 2})


def test_trace_spans_recorded():
    sim = Simulator()
    sim.trace_span(0, 0, "k", 10, 20, "kernel", "i1")
    assert sim.trace[0].end_ns == 20
    quiet = Simulator(record_trace=False)
    quiet.trace_span(0, 0, "k", 10, 20, "kernel")
    assert quiet.trace == []


# -- wait-for-graph oracle ---------------------------------------------------

def test_find_wait_cycle_on_simple_cycle():
    cyc = find_wait_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}})
    assert cyc is not None and set(cyc) == {"a", "b", "c"}


def test_find_wait_cycle_none_on_dag():
    assert find_wait_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None


def test_wait_for_graph_collects_process_edges():
    class Edgy(Recorder):
        def wait_edges(self):
            return [(self.pid, "other")]

    sim = Simulator()
    Edgy(sim, "e")
    Recorder(sim, "other")
    assert sim.wait_for_graph() == {"e": {"other"}}


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 3)),
                min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_delivery_order_matches_time_then_seq(events):
    """Whatever the schedule order, delivery is (fire_at, schedule seq)."""
    sim = Simulator()
    r = Recorder(sim, "r")
    expect = []
    for i, (t, _salt) in enumerate(events):
        sim.schedule_at(t, "r", f"k{i}", {"i": i})
        expect.append((t, i))
    sim.run_until_quiescent()
    got = [(t, p["i"]) for t, _k, p in r.seen]
    assert got == sorted(expect)
    assert all(a[0] <= b[0] for a, b in zip(got, got[1:]))


@given(st.lists(st.integers(0, 200), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_channel_delivery_times_are_monotone(latencies):
    sim = Simulator()
    r = Recorder(sim, "r")
    Recorder(sim, "s")
    for lat in latencies:
        sim.send("s", "r", "m", latency=lat)
    sim.run_until_quiescent()
    times = [t for t, _, _ in r.seen]
    assert times == sorted(times)
    assert len(times) == len(latencies)
