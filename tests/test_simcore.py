"""Simulation kernel: ordering, channels, quiescence, deadlock oracle."""
import json
from dataclasses import dataclass

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


def test_negative_delay_or_latency_raises():
    sim = Simulator()
    Recorder(sim, "r")
    sim.send("s", "r", "slow", latency=100)
    with pytest.raises(ScheduleInPastError):
        sim.schedule_in(-1, "r", "x")
    # a negative latency raises even on a channel with a delivery pending
    with pytest.raises(ScheduleInPastError):
        sim.send("s", "r", "y", latency=-1)
    assert len(sim._heap) == 1


def test_channels_are_per_sender_receiver_pair():
    sim = Simulator()
    r = Recorder(sim, "r")
    Recorder(sim, "s1")
    Recorder(sim, "s2")
    sim.send("s1", "r", "slow", latency=100)
    sim.send("s2", "r", "fast", latency=1)   # another channel
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


def test_max_events_raises_after_exactly_that_many():
    sim = Simulator()
    r = Recorder(sim, "r")
    for t in (1, 2, 3):
        sim.schedule_at(t, "r", "x")
    with pytest.raises(SimError, match="max_events=1"):
        sim.run_until_quiescent(max_events=1)
    assert [t for t, _k, _p in r.seen] == [1]
    # each run counts from zero, and a run below the guard ends cleanly
    assert sim.run_until_quiescent(max_events=3).events == 2
    assert [t for t, _k, _p in r.seen] == [1, 2, 3]
    # exactly that many ends cleanly: a cancelled event left over is no
    # further event
    sim.schedule_at(4, "r", "x")
    sim.schedule_at(5, "r", "x")
    sim.cancel(sim.schedule_at(6, "r", "x"))
    res = sim.run_until_quiescent(max_events=2)
    assert (res.status, res.events) == ("quiescent", 2)
    assert [t for t, _k, _p in r.seen] == [1, 2, 3, 4, 5]


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


def test_payload_digest_reads_a_dataclass_by_its_field_values():
    @dataclass
    class Gang:
        node: str
        devices: tuple

    @dataclass
    class Renamed:
        nid: str
        devs: list

    assert (payload_digest({"g": Gang("n1", (0, 1))})
            == payload_digest({"g": Renamed("n1", [0, 1])})
            == payload_digest({"g": ["n1", [0, 1]]}))
    assert (payload_digest({"g": Gang("n1", (0, 1))})
            != payload_digest({"g": Gang("n1", (1, 0))}))


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


# -- fan-out sends -----------------------------------------------------------

class Hopper(Recorder):
    """Records each delivery; a payload with hops left is passed on to the
    next receiver at zero latency, so events land at the fan-out's instant
    while it is being delivered."""

    def handle(self, kind, payload, src):
        super().handle(kind, payload, src)
        if payload.get("hop"):
            nxt = f"r{(int(self.pid[1:]) + 1) % 4}"
            self.sim.send(self.pid, nxt, kind,
                          dict(payload, hop=payload["hop"] - 1))


class Driver(Process):
    """Runs step i of its script on each `tick`: a plain send or a fan-out
    from one of two senders, either through `send_many` or as the same
    sends made one by one."""

    def __init__(self, sim, script, fan_out):
        super().__init__(sim, "drv")
        self.script, self.fan_out = script, fan_out

    def handle(self, kind, payload, src):
        i = payload["i"]
        sender, dsts, latency, hop = self.script[i]
        src = f"s{sender}"
        msg = {"step": i, "hop": hop}
        sends = [(src, f"r{d}", msg) for d in dsts]
        if self.fan_out:
            self.sim.send_many("m", sends, latency)
        else:
            for s, d, p in sends:
                self.sim.send(s, d, "m", p, latency)


def run_script(ticks, script, fan_out, max_events=None):
    sim = Simulator(record_log=True)
    rs = [Hopper(sim, f"r{d}") for d in range(4)]
    Driver(sim, script, fan_out)
    for i, t in enumerate(ticks):
        sim.schedule_at(t, "drv", "tick", {"i": i})
    if max_events is not None:
        with pytest.raises(SimError, match=f"max_events={max_events}"):
            sim.run_until_quiescent(max_events=max_events)
        assert len(sim.log) == max_events
    sim.run_until_quiescent()
    log = [(t, seq, target, kind, payload_digest(p))
           for t, seq, target, kind, p in sim.log]
    order = [(r.pid, t, p["step"], p["hop"]) for r in rs for t, _k, p in r.seen]
    sent = {}           # each step's receivers share its one payload
    for r in rs:
        for _t, _k, p in r.seen:
            if p["hop"] == script[p["step"]][3]:
                assert sent.setdefault(p["step"], p) is p
    return log, order


STEPS = st.tuples(st.integers(0, 1),                         # sender
                  st.lists(st.integers(0, 3), min_size=1, max_size=4,
                           unique=True),                     # destinations
                  st.sampled_from([0, 0, 5, 40]),            # latency
                  st.integers(0, 2))                         # hops


@given(st.lists(st.tuples(st.integers(0, 60), STEPS), min_size=1,
                max_size=25))
@settings(max_examples=80, deadline=None)
def test_fan_out_delivers_as_the_same_sends_one_by_one(steps):
    """Same (t, seq, target, kind, payload digest) log and the same delivery
    order per receiver, with fan-outs landing among plain sends, zero-latency
    follow-ups and sends at other latencies."""
    ticks = [t for t, _s in steps]
    script = [s for _t, s in steps]
    assert run_script(ticks, script, True) == run_script(ticks, script, False)


@given(st.integers(0, 3), st.integers(2, 4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_max_events_inside_a_fan_out_resumes_in_order(before, fan, inside):
    """A limit that falls inside a fan-out raises after exactly that many
    deliveries; the next run delivers the rest in seq order."""
    # `before` plain sends and their ticks, the fan-out's tick, then the
    # fan-out; the limit stops it after `inside` of its deliveries
    ticks = [0] * before + [1]
    script = [(0, [0], 0, 0)] * before + [(1, list(range(fan)), 3, 0)]
    limit = 2 * before + 1 + min(inside, fan - 1)
    full = run_script(ticks, script, True)
    assert len(full[0]) == 2 * before + 1 + fan
    assert run_script(ticks, script, True, max_events=limit) == full
    assert full == run_script(ticks, script, False)
