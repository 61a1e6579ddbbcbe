"""Sparse progress tracking on the host-gated (sequential, auto) path, and
buffer lifetimes across reshard shapes.

A producer host sends its edge updates only to the consumer hosts its
reshard pairs feed, plus the consumer node's home host, so control traffic
grows with pairs and hosts, not with hosts squared. Each message names the
sorted source shards it closes on its host; each consumer host counts down
a static number of (edge, source shard) closes, `NodeInfo.waits`, and the
node becomes ready there once. Generated reshard
edges, in every dispatch mode and with or without a client failure, check
that the run's invariants hold and that a finished or failed instance
leaves no state on hosts or devices. Each (consuming edge, consumer host) holds one
ref on the producer's buffer, so a fanned-out output is freed by the drain
of the last consumer host.
"""
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowpath import (CompiledFunction, StreamJob, System, Tracer,
                      chain_program, small_cluster)
from flowpath.coord import ProgressTracker
from flowpath.ir import lower
from flowpath.simcore import us
from flowpath.store import audit_leaks, audit_no_double_free

# per-edge logical bytes: divisible by every shard count drawn below; a
# zero-byte edge has no reshard pairs, so only its home host is told
TOTALS = (4096 * 12, 0)


def sequential_chain_events(hosts: int) -> int:
    n = hosts * 4
    fns = [CompiledFunction(f"f{i}", n, (1024,), (1024,), 150.0,
                            collective=True) for i in range(4)]
    system = System(small_cluster(hosts=hosts, devices_per_host=4),
                    record_trace=False)
    system.register_traced("chain", chain_program(fns))
    system.start_job(system.add_client("c0"), StreamJob(
        system.new_job_id(), "chain", 4, window=2, mode="sequential"))
    result = system.run()
    assert result.status == "quiescent"
    return result.events


def test_sequential_events_grow_about_linearly_in_hosts():
    # dense punctuation made this ratio 8.7: each producer host told every
    # consumer host about every source shard
    assert sequential_chain_events(64) < 4.5 * sequential_chain_events(16)


def gather_system(tail_regular: bool = True, record_log: bool = False):
    """A 4 -> 2 gather over 2 hosts x 2 devices: head shards on devices
    0-3, tail shards on devices 1 and 2 (home host 0)."""
    t = Tracer()
    head_s, tail_s = t.virtual_slice([4]), t.virtual_slice([2])
    x = t.arg(4, 4096)
    h = t.call(CompiledFunction("head", 4, (4096,), (4096,), 20.0), x,
               slice_id=head_s)
    o = t.call(CompiledFunction("tail", 2, (8192,), (8192,), 20.0,
                                regular=tail_regular), h, slice_id=tail_s)
    system = System(small_cluster(hosts=2, devices_per_host=2),
                    record_log=record_log)
    info = system.register_program("g", lower(t.finish(results=[o]), {
        head_s: (0, 1, 2, 3), tail_s: (1, 2)}))
    return system, info, h.node, o.node


def test_waits_count_paired_sources_per_host():
    # the tail's home host (0) hears every head shard, host 1 only the two
    # its shard reads from; the head, fed by an arg alone, waits for nothing
    _system, info, head, tail = gather_system()
    assert info.nodes[head].waits == {}
    assert info.nodes[tail].waits == {0: 4, 1: 2}


@pytest.mark.parametrize("mode", ["sequential", "auto"])
def test_each_edge_message_closes_its_sorted_source_shards_once(
        mode, monkeypatch):
    # the same 4 -> 2 gather: its tail runs on futures in sequential
    # dispatch and on data in auto dispatch (where it is data-dependent)
    calls = []
    on_punctuation = ProgressTracker.on_punctuation

    def counted(self, *a):
        calls.append(a)
        return on_punctuation(self, *a)

    monkeypatch.setattr(ProgressTracker, "on_punctuation", counted)
    system, info, _head, tail = gather_system(
        tail_regular=(mode == "sequential"), record_log=True)
    system.start_job(system.add_client("c0"), StreamJob(
        system.new_job_id(), "g", 3, window=2, mode=mode))
    assert system.run().status == "quiescent"
    kind = "edge_fut" if mode == "sequential" else "edge_dat"
    closed: dict[tuple, list] = {}
    n_msgs = 0
    for _t, _seq, target, k, payload in system.sim.log:
        if k not in ("edge_fut", "edge_dat"):
            continue
        assert k == kind
        assert set(payload) == {"instance", "edge", "srcs"}
        assert payload["srcs"] == sorted(payload["srcs"])
        n_msgs += 1
        dst = info.edges[payload["edge"]].dst
        closed.setdefault((int(target[4:]), payload["instance"], dst),
                          []).extend((payload["edge"], s)
                                     for s in payload["srcs"])
    assert sorted(closed) == [(host, inst, tail) for host in (0, 1)
                              for inst in ("i1", "i2", "i3")]
    for (host, _inst, nid), pairs in closed.items():
        assert len(pairs) == len(set(pairs)) == info.nodes[nid].waits[host]
    # per instance: a sequential host announces its head shards' futures at
    # once, to home host 0 and (from host 1) to host 1: 3 messages; in auto
    # each head kernel's data goes to host 0 and, from host 1, to host 1: 6
    assert len(calls) == n_msgs == 3 * (3 if mode == "sequential" else 6)


def run_reshard_chain(src: int, dst: int, total: int, hosts: int, dph: int,
                      mode: str, fail_us: int | None = None) -> System:
    """head (src shards) -> mid (dst shards) -> tail (src shards)."""
    a, b = total // src, total // dst
    fns = [CompiledFunction("head", src, (a,), (a,), 20.0),
           CompiledFunction("mid", dst, (b,), (b,), 30.0,
                            regular=(mode == "parallel")),
           CompiledFunction("tail", src, (a,), (a,), 25.0)]
    system = System(small_cluster(hosts=hosts, devices_per_host=dph),
                    record_trace=False)
    system.register_traced("chain", chain_program(fns))
    client = system.add_client("c0")
    system.start_job(client, StreamJob(
        system.new_job_id(), "chain", 2, window=2, mode=mode))
    if fail_us is not None:
        system.fail_client(client, at_ns=us(fail_us))
    assert system.run().status == "quiescent"
    return system


@settings(max_examples=60, deadline=None)
@given(src=st.integers(1, 4), dst=st.integers(1, 4),
       total=st.sampled_from(TOTALS), hosts=st.integers(1, 4),
       dph=st.integers(1, 2),
       mode=st.sampled_from(["parallel", "sequential", "auto"]),
       fail_us=st.none() | st.integers(400, 2400))
# a failure that lands after the tail's prep sent its addresses but before
# the head's kernel finished: its inputs must not stay on a device
@example(src=1, dst=1, total=4096 * 12, hosts=2, dph=2, mode="sequential",
         fail_us=700)
def test_reshard_edges_keep_invariants(src, dst, total, hosts, dph, mode,
                                       fail_us):
    # identity (src == dst), gather, scatter and all-to-all edges, each
    # spread over as many hosts as the cluster allows; a run takes about
    # 2-3 ms, so a failure lands anywhere from before the first grant to
    # after the last result
    assume(max(src, dst) <= hosts * dph)
    system = run_reshard_chain(src, dst, total, hosts, dph, mode, fail_us)
    assert audit_leaks(system.cluster) == {}
    assert audit_no_double_free(system.audit) == []
    for h in system.hosts.values():
        assert h.tracker.pending_count() == 0
        assert h.inst == {}
    assert [d._arrivals for d in system.cluster.devices if d._arrivals] == []
    if fail_us is None:
        ref = run_reshard_chain(src, dst, total, hosts, dph, "parallel")
        assert system.inst_digests == ref.inst_digests


def drains_to(system: System, host: int) -> list[tuple[int, dict]]:
    """(t_ns, payload) of every drain report the host handled."""
    out = []
    for t, _seq, target, kind, payload in system.sim.log:
        if target != f"host{host}":
            continue
        msgs = (payload["messages"] if kind == "batch"
                else [{"kind": kind, "payload": payload}])
        out += [(t, m["payload"]) for m in msgs if m["kind"] == "drain"]
    return out


@pytest.mark.parametrize("mode", ["parallel", "sequential", "auto"])
def test_fan_out_buffer_is_freed_by_the_last_consumer_hosts_drain(mode):
    # head runs on host 0; b reads its output on host 1, c on hosts 0 and
    # 2. Hosts 1 and 2 drain as their transfers land, host 0 only after c's
    # kernel has read its shard in place, so the drains come at two instants
    t = Tracer()
    slices = [t.virtual_slice([2]) for _ in range(3)]
    x = t.arg(2, 4096)
    h = t.call(CompiledFunction("head", 2, (4096,), (4096,), 20.0), x,
               slice_id=slices[0])
    b = t.call(CompiledFunction("b", 2, (4096,), (4096,), 30.0), h,
               slice_id=slices[1])
    c = t.call(CompiledFunction("c", 2, (4096,), (4096,), 40.0), h,
               slice_id=slices[2])
    prog = t.finish(results=[b, c])
    system = System(small_cluster(hosts=3, devices_per_host=2),
                    record_log=True)
    info = system.register_program("f", lower(prog, dict(zip(
        slices, [(0, 1), (2, 3), (0, 4)]))))
    system.start_job(system.add_client("c0"), StreamJob(
        system.new_job_id(), "f", 3, window=2, mode=mode))
    assert system.run().status == "quiescent"
    assert audit_leaks(system.cluster) == {}
    drains = drains_to(system, info.nodes[h.node].home_host)
    for inst in ("i1", "i2", "i3"):
        handle = info.out_handle(inst, h.node, 0)
        mine = [(t_ns, d) for t_ns, d in drains if d["instance"] == inst
                and info.edges[d["edge"]].src == h.node]
        assert sorted((info.edges[d["edge"]].dst, d["from_host"])
                      for _t, d in mine) == \
            [(b.node, 1), (c.node, 0), (c.node, 2)]
        times = sorted(t_ns for t_ns, _d in mine)
        assert times[1] < times[2]
        frees = {row[5] for row in system.audit
                 if row[0] == "free" and row[1] == handle}
        assert frees == {times[2]}
