"""Gang ordering: tickets, atomic memory reservation, proportional share."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpath.config import CostModel, Policy, small_cluster
from flowpath.hardware import Cluster
from flowpath.sched import GangRequest, IslandScheduler, _StridePolicy
from flowpath.simcore import Process, Simulator, us

MB = 1 << 20


def make_sched(policy=None, hbm=64 * MB, devices_per_host=2):
    sim = Simulator()
    cl = Cluster(sim, small_cluster(hosts=1, devices_per_host=devices_per_host,
                                    hbm_bytes=hbm))
    s = IslandScheduler(sim, cl, 0, CostModel(), policy or Policy(),
                        control_latency_ns=us(50))
    return sim, cl, s


def gang(inst, client="c0", devices=(0,), hbm_each=0, dur=us(100), hosts=(0,),
         reply_to=None):
    return GangRequest(instance=inst, node="n", client=client,
                       devices=tuple(devices), hosts=tuple(hosts),
                       hbm={d: hbm_each for d in devices}, duration_ns=dur,
                       reply_to=reply_to)


class Sink(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.seen = []

    def handle(self, kind, payload, src):
        self.seen.append((self.sim.now(), kind, payload))


# -- ticket order ----------------------------------------------------------

def test_fifo_orders_by_submission():
    sim, _, s = make_sched()
    Sink(sim, "host0")
    s.submit([gang("i1"), gang("i2"), gang("i3")], "client.c0",
             latency_ns=us(500))
    sim.run_until_quiescent()
    assert s.ticket_log() == [(1, "i1", "n"), (2, "i2", "n"), (3, "i3", "n")]


def test_decision_and_send_occupancy_serialize_grants():
    sim, _, s = make_sched()
    host = Sink(sim, "host0")
    s.submit([gang("i1"), gang("i2")], "client.c0", latency_ns=us(500))
    sim.run_until_quiescent()
    # arrival 500; decide 10us each, dispatch send 5us per message
    t1, t2 = (t for _seq, t, *_ in s.dispatched)
    assert t1 == us(510)
    assert t2 == us(525)
    # go messages leave when the dispatch task completes, ride control latency
    assert [t for t, k, _ in host.seen if k == "go"] == [us(565), us(580)]


def test_shared_devices_get_one_consistent_order():
    sim, _, s = make_sched()
    Sink(sim, "host0")
    s.submit([gang("i1", devices=(0, 1)), gang("i2", devices=(1, 0))],
             "client.c0", latency_ns=0)
    sim.run_until_quiescent()
    rows = {seq: inst for seq, inst, _ in s.ticket_log()}
    assert rows == {1: "i1", 2: "i2"}


def test_handles_reply_targets_client_rpc_latency():
    sim, _, s = make_sched()
    Sink(sim, "host0")
    client = Sink(sim, "client.c0")
    s.submit([gang("i1", reply_to="client.c0")], "client.c0", latency_ns=0)
    sim.run_until_quiescent()
    (t, kind, payload), = client.seen
    assert kind == "handles" and payload["ticket"] == 1
    # decide 10 + dispatch 2 sends * 5 = sent at 20us, +500us client rpc
    assert t == us(20) + us(500)


# -- memory reservation ----------------------------------------------------

def test_reservation_is_all_devices_or_none():
    sim, cl, s = make_sched(hbm=10 * MB)
    Sink(sim, "host0")
    cl.device(1).hbm_try_take(9 * MB)
    s.submit([gang("i1", devices=(0, 1), hbm_each=2 * MB)], "h", latency_ns=0)
    sim.run_until_quiescent()
    # device 1 lacks room, so device 0 must not be touched either
    assert s.dispatched == []
    assert cl.device(0).free_bytes == 10 * MB
    assert s.obligations() == ["1 gangs parked on memory"]
    cl.device(1).hbm_release(9 * MB)
    s.notify_hbm_freed()
    sim.run_until_quiescent()
    assert [i for _, i, _ in s.ticket_log()] == ["i1"]
    assert cl.device(0).free_bytes == 8 * MB
    assert cl.device(1).free_bytes == 8 * MB


def test_no_overtaking_on_shared_device():
    sim, cl, s = make_sched(hbm=10 * MB)
    Sink(sim, "host0")
    cl.device(0).hbm_try_take(9 * MB)
    s.submit([gang("big", devices=(0,), hbm_each=4 * MB),
              gang("small", devices=(0,), hbm_each=1 * MB)], "h", latency_ns=0)
    sim.run_until_quiescent()
    # small would fit, but it is behind big in device 0's reservation queue
    assert s.dispatched == []
    cl.device(0).hbm_release(9 * MB)
    s.notify_hbm_freed()
    sim.run_until_quiescent()
    assert [i for _, i, _ in s.ticket_log()] == ["big", "small"]


def test_disjoint_devices_overtake_parked_gang():
    sim, cl, s = make_sched(hbm=10 * MB)
    Sink(sim, "host0")
    cl.device(0).hbm_try_take(9 * MB)
    s.submit([gang("stuck", devices=(0,), hbm_each=4 * MB),
              gang("free", devices=(1,), hbm_each=1 * MB)], "h", latency_ns=0)
    sim.run_until_quiescent()
    assert [i for _, i, _ in s.ticket_log()] == ["free"]
    assert s.obligations() == ["1 gangs parked on memory"]


def test_parked_gang_holds_nothing_while_waiting():
    sim, cl, s = make_sched(hbm=10 * MB)
    Sink(sim, "host0")
    cl.device(0).hbm_try_take(7 * MB)
    s.submit([gang("w", devices=(0, 1), hbm_each=4 * MB)], "h", latency_ns=0)
    sim.run_until_quiescent()
    assert cl.device(0).free_bytes == 3 * MB
    assert cl.device(1).free_bytes == 10 * MB


# -- client failure --------------------------------------------------------

def test_dead_client_releases_queue_positions():
    sim, cl, s = make_sched(hbm=10 * MB)
    Sink(sim, "host0")
    cl.device(0).hbm_try_take(9 * MB)
    s.submit([gang("doomed", client="bad", devices=(0,), hbm_each=4 * MB),
              gang("next", client="ok", devices=(0,), hbm_each=1 * MB)],
             "h", latency_ns=0)
    sim.run_until_quiescent()
    assert s.dispatched == []
    sim.send("ctl", s.pid, "client_failed", {"client": "bad"})
    sim.run_until_quiescent()
    # dropping the dead head unblocks the gang behind it
    assert [i for _, i, _ in s.ticket_log()] == ["next"]


def test_dead_client_submissions_are_ignored():
    sim, _, s = make_sched()
    Sink(sim, "host0")
    sim.send("ctl", s.pid, "client_failed", {"client": "bad"})
    sim.run_until_quiescent()
    s.submit([gang("x", client="bad"), gang("y", client="ok")], "h",
             latency_ns=0)
    sim.run_until_quiescent()
    assert [i for _, i, _ in s.ticket_log()] == ["y"]


# -- proportional share ----------------------------------------------------

class FractionStride:
    """Stride scheduling in exact fractions: push, pop and the rejoin rule,
    with weights read as _StridePolicy reads them (1 when unnamed)."""

    def __init__(self, weights):
        self.weights = {c: Fraction(w).limit_denominator(10**6)
                        for c, w in weights.items()}
        self.queues, self.passes = {}, {}
        self.global_pass = Fraction(0)

    def push(self, client, busy):
        q = self.queues.setdefault(client, [])
        if not q:
            self.passes[client] = max(self.passes.get(client, Fraction(0)),
                                      self.global_pass)
        q.append(busy)

    def pop(self):
        live = sorted(c for c, q in self.queues.items() if q)
        client = min(live, key=lambda c: (self.passes[c], c))
        busy = self.queues[client].pop(0)
        self.global_pass = self.passes[client]
        self.passes[client] += busy / self.weights.get(client, Fraction(1))
        return client


def test_stride_matches_fraction_reference():
    weights = {"a": 1, "b": 2, "c": 4}
    pol, ref = _StridePolicy(weights), FractionStride(weights)
    n_each = 40
    for client in sorted(weights):
        for i in range(n_each):
            g = gang(f"{client}{i}", client=client, dur=us(100))
            pol.push(g)
            ref.push(client, g.busy_estimate)
    got = [pol.pop(set()).client for _ in range(3 * n_each)]
    assert got == [ref.pop() for _ in range(3 * n_each)]


fractional_weights = st.one_of(
    st.sampled_from([0.1, Fraction(1, 3), 1 / 3, 2.5, 7, 1, 0.3]),
    st.floats(min_value=0.001, max_value=1000))


# rounds of (pushes as (client, busy us), pops); "d" has no named weight
@given(st.fixed_dictionaries({c: fractional_weights for c in "abc"}),
       st.lists(st.tuples(
           st.lists(st.tuples(st.sampled_from("abcd"),
                              st.integers(1, 1000)), max_size=8),
           st.integers(0, 8)), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_integer_passes_match_fraction_reference(weights, rounds):
    pol, ref = _StridePolicy(weights), FractionStride(weights)
    got, want = [], []
    for i, (pushes, pops) in enumerate(rounds + [([], 10**6)]):
        for j, (client, dur_us) in enumerate(pushes):
            g = gang(f"{client}{i}.{j}", client=client, dur=us(dur_us))
            pol.push(g)
            ref.push(client, g.busy_estimate)
        # a round may drain a client, which later rounds rejoin
        for _ in range(min(pops, len(pol))):
            got.append(pol.pop(set()).client)
            want.append(ref.pop())
    assert got == want
    assert len(pol) == 0


def test_backlogged_shares_track_weights():
    weights = {"c0": 1, "c1": 2, "c2": 4, "c3": 8}
    pol = _StridePolicy(weights)
    for client in weights:
        for i in range(2000):
            pol.push(gang(f"{client}-{i}", client=client, dur=us(100)))
    tally = {c: 0 for c in weights}
    for _ in range(3000):
        tally[pol.pop(set()).client] += 1
    total = sum(tally.values())
    for c, w in weights.items():
        assert abs(tally[c] / total - w / 15) < 0.01


def test_rejoining_client_gets_no_banked_credit():
    pol = _StridePolicy({"a": 1, "b": 1})
    for i in range(4):
        pol.push(gang(f"a{i}", client="a"))
    for _ in range(4):
        assert pol.pop(set()).client == "a"
    # b was idle the whole time; it joins at the current virtual time and
    # must not receive a burst of consecutive grants
    for i in range(4):
        pol.push(gang(f"b{i}", client="b"))
        pol.push(gang(f"a{4 + i}", client="a"))
    run = [pol.pop(set()).client for _ in range(8)]
    longest = max(len(list(g)) for _, g in __import__("itertools").groupby(run))
    assert longest <= 2
    assert run.count("a") == run.count("b") == 4


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_stride_pop_always_picks_lowest_pass(pushes, wa, wb, wc):
    weights = {"a": wa, "b": wb, "c": wc}
    pol = _StridePolicy(weights)
    for i, c in enumerate(pushes):
        pol.push(gang(f"{c}{i}", client=c))
    while len(pol):
        live = sorted(c for c, q in pol.queues.items() if q)
        best = min(live, key=lambda c: (pol.passes[c], c))
        assert pol.pop(set()).client == best


def test_scheduler_end_to_end_proportional_counts():
    pol = Policy(kind="proportional", weights={"a": 1, "b": 3})
    sim, _, s = make_sched(policy=pol)
    Sink(sim, "host0")
    gangs = []
    for i in range(40):
        gangs.append(gang(f"a{i}", client="a"))
        gangs.append(gang(f"b{i}", client="b"))
    s.submit(gangs, "h", latency_ns=0)
    sim.run_until_quiescent()
    first = [c for _seq, _t, c, _i, _n in s.dispatched[:40]]
    assert abs(first.count("b") / 40 - 0.75) < 0.05


# -- generated gang mixes --------------------------------------------------

class GiveBack(Process):
    """host0: gives a gang's bytes back `duration_ns` after its `go`."""

    def __init__(self, sim, cluster, sched, gangs):
        super().__init__(sim, "host0")
        self.cluster, self.sched, self.gangs = cluster, sched, gangs

    def handle(self, kind, payload, src):
        if kind == "go":
            g = self.gangs[payload["instance"]]
            self.sim.schedule_in(g.duration_ns, self.pid, "done",
                                 {"instance": g.instance})
        else:
            for d, nbytes in self.gangs[payload["instance"]].hbm.items():
                self.cluster.device(d).hbm_release(nbytes)
            self.sched.notify_hbm_freed()


gang_specs = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.sets(st.integers(0, 3), min_size=1),
              st.integers(0, 8), st.integers(1, 1000), st.integers(0, 100)),
    min_size=1, max_size=12)


@given(gang_specs, st.sampled_from(["fifo", "proportional"]),
       st.one_of(st.none(), st.tuples(st.sampled_from(["a", "b", "c"]),
                                      st.integers(0, 400))))
@settings(max_examples=150, deadline=None)
def test_generated_gangs_keep_ticket_order_and_return_memory(
        specs, kind, failure):
    pol = Policy(kind=kind, weights={"a": 1, "b": 2, "c": 3})
    sim, cl, s = make_sched(policy=pol, hbm=8 * MB, devices_per_host=4)
    gangs = {}
    for i, (client, devs, mb, dur_us, at_us) in enumerate(specs):
        g = gang(f"g{i}", client=client, devices=sorted(devs),
                 hbm_each=mb * MB, dur=us(dur_us))
        gangs[g.instance] = g
        s.submit([g], f"client.{client}", latency_ns=us(at_us))
    GiveBack(sim, cl, s, gangs)
    if failure is not None:
        sim.schedule_at(us(failure[1]), s.pid, "client_failed",
                        {"client": failure[0]})
    sim.run_until_quiescent()
    assert s.obligations() == []
    for d in range(4):
        seqs = [seq for seq, _t, _c, inst, _n in s.dispatched
                if d in gangs[inst].devices]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        assert cl.device(d).free_bytes == 8 * MB
    if failure is not None:
        dead, at = failure
        assert all(t <= us(at) for _seq, t, c, _i, _n in s.dispatched
                   if c == dead)
