"""Device model: FIFO kernels, collectives, DMA, HBM accounting."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpath.config import small_cluster
from flowpath.hardware import (Cluster, HBMError, KernelExec,
                               PermanentAllocationError, enqueue_kernel,
                               transfer_ns)
from flowpath.ir import CompiledFunction, Tracer, chain_program
from flowpath.runtime import StreamJob, System
from flowpath.simcore import Process, Simulator, find_wait_cycle, us
from flowpath.store import audit_leaks, audit_no_double_free

MB = 1 << 20


def make_cluster(**kw):
    sim = Simulator()
    return sim, Cluster(sim, small_cluster(**kw))


def k(inst, node, devices=(0,), dur=us(10), key=None, group=(), srcs=None,
      shards=None):
    """One record over `devices`; shard d runs on device d unless `shards`
    says otherwise."""
    return KernelExec(inst, node, devices if shards is None else shards,
                      devices, dur, srcs or {}, collective_key=key,
                      group=group)


# -- kernel queue ------------------------------------------------------------

def test_kernels_run_serially_in_fifo_order():
    sim, cl = make_cluster(hosts=1, devices_per_host=1)
    enqueue_kernel(sim, k("i", "a", dur=us(10)), at=0)
    enqueue_kernel(sim, k("i", "b", dur=us(5)), at=0)
    enqueue_kernel(sim, k("i", "c", dur=us(1)), at=0)
    assert sim.run_until_quiescent().status == "quiescent"
    spans = [(t.name, t.start_ns, t.end_ns) for t in sim.trace]
    assert spans == [("a[0]", 0, us(10)), ("b[0]", us(10), us(15)),
                     ("c[0]", us(15), us(16))]


def test_kernel_waits_for_expected_inputs():
    sim, cl = make_cluster(hosts=1, devices_per_host=2)
    enqueue_kernel(sim, k("i", "n", (1,), shards=(0,), srcs={1: (0,)}), at=0)
    sim.schedule_at(us(3), "dev0", "noop_probe", {})  # placeholder time marker

    # without the transfer the run deadlocks on the queued kernel
    class Probe:
        pass
    sim._procs["dev0"].handle = lambda kind, payload, src: None  # absorb probe
    cl.transfer(0, 1, 1000, "i", "n", 0)
    res = sim.run_until_quiescent()
    assert res.status == "quiescent"
    kernel = [t for t in sim.trace if t.category == "kernel"][0]
    arrive = transfer_ns(cl.spec.islands[0].ici, 1000)
    assert kernel.start_ns == arrive


def test_missing_input_is_deadlock_with_wait_edge():
    sim, cl = make_cluster(hosts=1, devices_per_host=2)
    enqueue_kernel(sim, k("i", "n", (1,), shards=(0,), srcs={1: (0,)}), at=0)
    res = sim.run_until_quiescent()
    assert res.status == "deadlock"
    assert ("dev1", "dev0") in [(a, b) for a, e in sim.wait_for_graph().items()
                                for b in e]


# -- transfers ---------------------------------------------------------------

def test_a_landing_after_its_abort_is_dropped():
    """A transfer that lands after its device was told to abort the node
    counts for nothing; one for another node still counts."""
    sim, cl = make_cluster(hosts=1, devices_per_host=2)
    sim.schedule_at(0, "dev1", "abort_kernel", {"instance": "i", "node": "n"})
    cl.transfer(0, 1, 1000, "i", "n", 0)
    cl.transfer(0, 1, 1000, "i", "m", 0)
    res = sim.run_until_quiescent()
    assert cl.devices[1]._arrivals == {("i", "m"): 1}
    assert res.blocked == ["dev1: stray inputs landed for 1 nodes"]


def test_transfer_ns_latency_plus_ceil_serialization():
    link = small_cluster().islands[0].ici  # 1us, 100 GB/s
    assert transfer_ns(link, 0) == 1000
    assert transfer_ns(link, 100) == 1000 + 1   # 1ns per 100 bytes
    assert transfer_ns(link, 101) == 1000 + 2   # rounds up
    with pytest.raises(ValueError):
        transfer_ns(link, -1)


def test_link_selection_ici_within_island_dcn_across():
    sim, cl = make_cluster(hosts=2, devices_per_host=2, islands=2)
    kind, _ = cl.link_between(0, 3)   # both in island 0
    assert kind == "ici"
    kind, _ = cl.link_between(0, 4)   # island 0 -> island 1
    assert kind == "dcn"


def test_same_device_transfer_is_instant():
    sim, cl = make_cluster(hosts=1, devices_per_host=1)
    assert cl.transfer(0, 0, 10**9, "i", "n", 0) == 0
    sim.run_until_quiescent()


def test_transfers_overlap_compute():
    sim, cl = make_cluster(hosts=1, devices_per_host=2)
    enqueue_kernel(sim, k("i", "busy", dur=us(100)), at=0)
    arrive = cl.transfer(0, 1, 10**6, "i", "other", 0)
    assert arrive < us(100)   # did not wait for the kernel
    sim.run_until_quiescent()


# -- collectives -------------------------------------------------------------

def test_collective_completes_together_at_last_arrival():
    sim, cl = make_cluster(hosts=1, devices_per_host=2)
    enqueue_kernel(sim, k("i", "c", (0,), us(10), key="g", group=(0, 1)), at=0)
    enqueue_kernel(sim, k("i", "c", (1,), us(10), key="g", group=(0, 1)),
                   at=us(7))
    assert sim.run_until_quiescent().status == "quiescent"
    ends = sorted((t.tid, t.end_ns) for t in sim.trace)
    assert ends == [(0, us(17)), (1, us(17))]   # last arrival 7us + 10us


def test_collective_finishes_every_member_in_one_event():
    """Staggered arrivals over 2 hosts x 2 devices, one record per device:
    one completion event ends the group, each member keeps its own span and
    busy time, and the cluster hook hears every record in one call, in
    arrival order."""
    sim = Simulator(record_log=True)
    cl = Cluster(sim, small_cluster(hosts=2, devices_per_host=2))
    reports = []
    cl.on_kernels_done = lambda ks, shards: reports.append(
        [(kk.devices, s) for kk, s in zip(ks, shards)])
    group = (0, 1, 2, 3)
    for d, at in ((2, us(1)), (0, us(3)), (3, us(4)), (1, us(6))):
        enqueue_kernel(sim, k("i", "c", (d,), us(10), key="g", group=group),
                       at=at)
    assert sim.run_until_quiescent().status == "quiescent"
    done = [(t, target, kind) for t, _seq, target, kind, _p in sim.log
            if kind in ("kernel_done", "collective_done")]
    assert done == [(us(16), "dev1", "collective_done")]
    assert reports == [[((2,), [2]), ((0,), [0]), ((3,), [3]),
                        ((1,), [1])]]               # one call, arrival order
    spans = sorted((t.tid, t.start_ns, t.end_ns) for t in sim.trace)
    assert spans == [(0, us(3), us(16)), (1, us(6), us(16)),
                     (2, us(1), us(16)), (3, us(4), us(16))]
    assert [d.busy_ns for d in cl.devices] == [us(13), us(10), us(15), us(12)]
    assert all(d.executing is None and not d.queue for d in cl.devices)


def test_collective_tells_each_member_host_once_with_its_shards():
    """Each member host hears its shards' end once; the home host alone
    reports the result, naming every shard, and drains the in-place arg
    edge for all members."""
    sys_ = System(small_cluster(hosts=2, devices_per_host=2), record_log=True,
                  record_trace=True)
    f = CompiledFunction("allreduce", 4, (1024,), (1024,), 10.0,
                         collective=True)
    sys_.register_traced("p", chain_program([f]))
    c = sys_.add_client("c0")
    results = []

    def spy(kind, p, src, handle=c.handle):
        if kind == "result":
            results.append((src, p["shards"]))
        handle(kind, p, src)

    c.handle = spy
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=1))
    assert sys_.run().status == "quiescent"
    rows = [(target, kind, p) for _t, _seq, target, kind, p in sys_.sim.log]
    kinds = [kind for _target, kind, _p in rows]
    assert kinds.count("collective_done") == 1
    assert [(target, p["shards"]) for target, kind, p in rows
            if kind == "kernel_done"] == [("host0", [0, 1]), ("host1", [2, 3])]
    assert [target for target, kind, _p in rows
            if kind == "enqueue_kernel"] == ["dev0", "dev2"]   # one per host
    assert results == [("host0", [0, 1, 2, 3])]
    # the arg edge is read in place on all 4 devices: one drain, home to
    # home, for the instance
    assert [(target, m["payload"]["from_host"])
            for _t, _seq, target, kind, p in sys_.sim.log if kind == "batch"
            for m in p["messages"] if m["kind"] == "drain"] == [("host0", 0)]
    spans = sorted((t.tid, t.end_ns - t.start_ns) for t in sys_.sim.trace
                   if t.category == "kernel")
    assert spans == [(d, us(10)) for d in range(4)]
    assert [d.busy_ns for d in sys_.cluster.devices] == [us(10)] * 4
    assert len(sys_.sim.completions) == 1
    assert audit_leaks(sys_.cluster) == {}


def test_host_record_runs_each_device_when_it_is_free():
    """One host's record over devices 0 and 1 while device 1 still runs an
    earlier kernel: device 0 starts at once and waits at the rendezvous,
    device 1 starts when it is free, the group finishes 10us after that last
    arrival, and the host hears one report with both shards."""
    sim = Simulator(record_log=True)
    cl = Cluster(sim, small_cluster(hosts=1, devices_per_host=2))
    reports = []
    cl.on_kernels_done = lambda ks, shards: reports.extend(
        (kk.node, s) for kk, s in zip(ks, shards))
    enqueue_kernel(sim, k("i", "busy", (1,), dur=us(4)), at=0)
    enqueue_kernel(sim, k("i", "c", (0, 1), us(10), key="g", group=(0, 1)),
                   at=0)
    assert sim.run_until_quiescent().status == "quiescent"
    spans = sorted((t.name, t.start_ns, t.end_ns) for t in sim.trace)
    assert spans == [("busy[1]", 0, us(4)), ("c[0]", 0, us(14)),
                     ("c[1]", us(4), us(14))]
    assert reports == [("busy", [1]), ("c", [0, 1])]
    assert [kind for _t, _seq, _target, kind, _p in sim.log
            if kind == "collective_done"] == ["collective_done"]
    assert [d.busy_ns for d in cl.devices] == [us(14), us(14)]


def one_slice_program(name: str, devices: int, t_us: float,
                      collective: bool = False):
    t = Tracer()
    sid = t.virtual_slice([devices])
    fn = CompiledFunction(name, devices, (MB,), (MB,), t_us,
                          collective=collective)
    return t.finish([t.call(fn, t.arg(devices, MB), slice_id=sid)]), sid


def queue_exits(cl, instance, node):
    """[(device, event kind, now)] for each time a record of (instance,
    node) leaves a device's queue, read after every event at a device."""
    exits = []

    def count(d):
        return sum((r.instance, r.node) == (instance, node) for r in d.queue)

    def spy(kind, payload, src, handle):
        before = [count(d) for d in cl.devices]
        handle(kind, payload, src)
        for d, n in zip(cl.devices, before):
            left = n - count(d)
            exits.extend([(d.device_id, kind, cl.sim.now())] * max(left, 0))

    for dev in cl.devices:
        dev.handle = (lambda kind, payload, src, handle=dev.handle:
                      spy(kind, payload, src, handle))
    return exits


def test_failure_drops_a_record_queued_behind_a_busy_kernel():
    """Client b's collective record reaches device 0, which waits at the
    rendezvous, and queues on device 1 behind client a's 1ms kernel; b dies
    meanwhile. Device 0 drops the record when its abort lands, device 1
    once its kernel ends, each once, and a's run is untouched."""
    sys_ = System(small_cluster(hosts=1, devices_per_host=2),
                  record_trace=True)
    prog_a, sid_a = one_slice_program("long", 1, 1000.0)
    prog_b, sid_b = one_slice_program("ar", 2, 50.0, collective=True)
    sys_.register_traced("a", prog_a, {sid_a: (1,)})
    info_b = sys_.register_traced("b", prog_b, {sid_b: (0, 1)})
    a, b = sys_.add_client("a"), sys_.add_client("b")
    job_a = StreamJob(sys_.new_job_id(), "a", count=1)
    sys_.start_job(a, job_a)
    sys_.start_job(b, StreamJob(sys_.new_job_id(), "b", count=1),
                   at_ns=us(100))
    sys_.fail_client(b, at_ns=us(900))
    exits = queue_exits(sys_.cluster, "i2", info_b.order[0])
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    (long_span,) = [t for t in sys_.sim.trace if t.category == "kernel"]
    assert long_span.tid == 1 and long_span.instance in a.completed_at
    assert sys_.instances["i2"].client == "b"
    assert [(d, kind) for d, kind, _t in exits] == [(0, "abort_kernel"),
                                                    (1, "kernel_done")]
    assert us(900) < exits[0][2] < long_span.end_ns == exits[1][2]
    assert job_a.done and b.completed_at == {}
    assert audit_leaks(sys_.cluster) == {}
    assert audit_no_double_free(sys_.audit) == []
    assert not any(d._arrivals or d.queue for d in sys_.cluster.devices)
    assert sys_.cluster._rendezvous == {}


def test_a_dead_clients_running_gang_is_not_noted_as_a_completion():
    """Client b's 1ms gang runs on device 0 when b dies at 900us. A kernel
    cannot be preempted, so it runs to its end and keeps its span and busy
    time, but its host stopped counting the gang when it heard of the
    failure: only client a's gang is noted as a completion."""
    sys_ = System(small_cluster(hosts=1, devices_per_host=2),
                  record_trace=True)
    prog_a, sid_a = one_slice_program("short", 1, 100.0)
    prog_b, sid_b = one_slice_program("long", 1, 1000.0)
    sys_.register_traced("a", prog_a, {sid_a: (1,)})
    sys_.register_traced("b", prog_b, {sid_b: (0,)})
    a, b = sys_.add_client("a"), sys_.add_client("b")
    sys_.start_job(a, StreamJob(sys_.new_job_id(), "a", count=1))
    sys_.start_job(b, StreamJob(sys_.new_job_id(), "b", count=1))
    sys_.fail_client(b, at_ns=us(900))
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    assert audit_leaks(sys_.cluster) == {}
    assert audit_no_double_free(sys_.audit) == []
    assert sys_.gang_left == {}
    assert sys_.instances["i2"].client == "b" and b.completed_at == {}
    assert sys_.sim.completions == [(680_000, "i1", "n1")]
    spans = [(t.tid, t.start_ns, t.end_ns, t.instance) for t in sys_.sim.trace
             if t.category == "kernel"]
    assert (0, 595_000, 1_595_000, "i2") in spans
    assert sys_.cluster.devices[0].busy_ns == us(1000)


class Probe(Process):
    """Calls `look` whenever an event reaches it."""

    def __init__(self, sim, look):
        super().__init__(sim, "probe")
        self.look = look

    def handle(self, kind, payload, src):
        self.look()


def rendezvous_state(cl):
    """key -> (devices still to arrive, [(record devices, arrived)])."""
    return {key: (missing, [(r.devices, n) for r, n in records.items()])
            for key, (missing, records) in cl._rendezvous.items()}


def test_failure_with_a_host_record_partly_at_the_rendezvous():
    """Client b's collective spans 2 hosts x 2 devices. Host 0's record
    reaches the rendezvous on device 0 only, because device 1 runs client
    a's 1ms kernel; host 1's record arrives on both devices. b dies then:
    each arrival is cancelled and no rendezvous is left behind."""
    sys_ = System(small_cluster(hosts=2, devices_per_host=2))
    prog_a, sid_a = one_slice_program("long", 1, 1000.0)
    prog_b, sid_b = one_slice_program("ar", 4, 50.0, collective=True)
    sys_.register_traced("a", prog_a, {sid_a: (1,)})
    info_b = sys_.register_traced("b", prog_b, {sid_b: (0, 1, 2, 3)})
    a, b = sys_.add_client("a"), sys_.add_client("b")
    job_a = StreamJob(sys_.new_job_id(), "a", count=1)
    sys_.start_job(a, job_a)
    sys_.start_job(b, StreamJob(sys_.new_job_id(), "b", count=1),
                   at_ns=us(100))
    sys_.fail_client(b, at_ns=us(900))
    seen = []
    Probe(sys_.sim, lambda: seen.append(rendezvous_state(sys_.cluster)))
    sys_.sim.schedule_at(us(850), "probe", "look")
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    (inst_b,) = [i for i, m in sys_.instances.items() if m.client == "b"]
    assert seen == [{f"{inst_b}/{info_b.order[0]}":
                     (1, [((0, 1), 1), ((2, 3), 2)])}]
    assert sys_.cluster._rendezvous == {}
    assert job_a.done and b.completed_at == {}
    assert audit_leaks(sys_.cluster) == {}
    assert audit_no_double_free(sys_.audit) == []
    assert not any(d.queue or d._arrivals or d.executing
                   for d in sys_.cluster.devices)


def test_deadlocked_collective_names_its_missing_member_devices():
    """Host records (0, 1) and (2, 3) of one collective; device 3 first
    queues a kernel whose input never comes, so host 1's record is at the
    rendezvous on device 2 only, and every arrived member waits on dev3."""
    sim, cl = make_cluster(hosts=2, devices_per_host=2)
    group = (0, 1, 2, 3)
    enqueue_kernel(sim, k("i", "stuck", (3,), shards=(0,), srcs={3: (0,)}),
                   at=0)
    enqueue_kernel(sim, k("i", "ar", (0, 1), key="ar", group=group), at=0)
    enqueue_kernel(sim, k("i", "ar", (2, 3), key="ar", group=group), at=0)
    assert sim.run_until_quiescent().status == "deadlock"
    assert rendezvous_state(cl) == {"ar": (1, [((0, 1), 2), ((2, 3), 1)])}
    graph = {p: e for p, e in sim.wait_for_graph().items() if e}
    assert graph == {"dev0": {"dev3"}, "dev1": {"dev3"}, "dev2": {"dev3"},
                     "dev3": {"dev0"}}


def test_crossed_collectives_deadlock_and_cycle_is_found():
    """dev0 queues A then B; dev1 queues B then A: classic rendezvous wedge."""
    sim, cl = make_cluster(hosts=1, devices_per_host=2)
    enqueue_kernel(sim, k("i", "A", (0,), key="A", group=(0, 1)), at=0)
    enqueue_kernel(sim, k("i", "B", (0,), key="B", group=(0, 1)), at=0)
    enqueue_kernel(sim, k("i", "B", (1,), key="B", group=(0, 1)), at=0)
    enqueue_kernel(sim, k("i", "A", (1,), key="A", group=(0, 1)), at=0)
    res = sim.run_until_quiescent()
    assert res.status == "deadlock"
    cycle = find_wait_cycle(sim.wait_for_graph())
    assert cycle is not None and set(cycle) == {"dev0", "dev1"}
    # the verdict names the cycle too
    assert res.blocked[-1] == "wait-for cycle: dev1 -> dev0 -> dev1"


def test_identically_ordered_collectives_run_clean():
    sim, cl = make_cluster(hosts=1, devices_per_host=2)
    for d in (0, 1):
        enqueue_kernel(sim, k("i", "A", (d,), key="A", group=(0, 1)), at=0)
        enqueue_kernel(sim, k("i", "B", (d,), key="B", group=(0, 1)), at=0)
    res = sim.run_until_quiescent()
    assert res.status == "quiescent"
    assert len([t for t in sim.trace if t.category == "kernel"]) == 4


def test_abort_releases_a_parked_rendezvous():
    """dev0 waits at a rendezvous its peer will never reach; the abort frees
    the device for the next queued kernel."""
    sim, cl = make_cluster(hosts=1, devices_per_host=2)
    exits = queue_exits(cl, "i", "A")
    enqueue_kernel(sim, k("i", "A", (0,), key="A", group=(0, 1)), at=0)
    enqueue_kernel(sim, k("i", "tail", dur=us(3)), at=0)
    sim.schedule_at(us(10), "dev0", "abort_kernel",
                    {"instance": "i", "node": "A"})
    res = sim.run_until_quiescent()
    assert res.status == "quiescent"
    assert [(t.name, t.start_ns, t.end_ns) for t in sim.trace] == \
        [("tail[0]", us(10), us(13))]
    assert exits == [(0, "abort_kernel", us(10))]
    assert cl._rendezvous == {}


def test_abort_skips_a_still_queued_kernel():
    """An abort for a record queued behind a running kernel drops it when
    it reaches the head, as the running kernel ends."""
    sim, cl = make_cluster(hosts=1, devices_per_host=1)
    exits = queue_exits(cl, "i", "doomed")
    enqueue_kernel(sim, k("i", "busy", dur=us(20)), at=0)
    enqueue_kernel(sim, k("i", "doomed", dur=us(5)), at=0)
    enqueue_kernel(sim, k("i", "after", dur=us(5)), at=0)
    sim.schedule_at(us(5), "dev0", "abort_kernel",
                    {"instance": "i", "node": "doomed"})
    res = sim.run_until_quiescent()
    assert res.status == "quiescent"
    names = [t.name for t in sim.trace if t.category == "kernel"]
    assert names == ["busy[0]", "after[0]"]
    assert exits == [(0, "kernel_done", us(20))]


def test_an_abort_before_its_record_drops_the_record_at_the_head():
    """A device aborts by key: an abort that lands before the record of its
    (instance, node) is enqueued still drops that record when it reaches
    the head of the queue, and the next queued kernel runs."""
    sim, cl = make_cluster(hosts=1, devices_per_host=1)
    exits = queue_exits(cl, "i", "late")
    sim.schedule_at(0, "dev0", "abort_kernel", {"instance": "i", "node": "late"})
    enqueue_kernel(sim, k("i", "busy", dur=us(10)), at=us(1))
    enqueue_kernel(sim, k("i", "late", dur=us(5)), at=us(1))
    enqueue_kernel(sim, k("i", "after", dur=us(5)), at=us(1))
    res = sim.run_until_quiescent()
    assert res.status == "quiescent"
    assert [(t.name, t.start_ns, t.end_ns) for t in sim.trace] == \
        [("busy[0]", us(1), us(11)), ("after[0]", us(11), us(16))]
    assert exits == [(0, "kernel_done", us(11))]


# -- HBM ---------------------------------------------------------------------

def test_hbm_try_take_and_release():
    sim, cl = make_cluster(hosts=1, devices_per_host=1, hbm_bytes=1000)
    dev = cl.device(0)
    assert dev.hbm_try_take(600)
    assert not dev.hbm_try_take(600)
    assert dev.free_bytes == 400
    cl.release_hbm([(0, 600)])
    assert dev.free_bytes == 1000


def test_hbm_release_above_capacity_raises():
    sim, cl = make_cluster(hosts=1, devices_per_host=1, hbm_bytes=1000)
    with pytest.raises(HBMError):
        cl.release_hbm([(0, 1)])


def test_hbm_request_exceeding_capacity_raises():
    sim, cl = make_cluster(hosts=1, devices_per_host=1, hbm_bytes=1000)
    with pytest.raises(PermanentAllocationError):
        cl.device(0).hbm_try_take(1001)


# -- topology ----------------------------------------------------------------

def test_cluster_layout_maps_hosts_and_islands():
    sim, cl = make_cluster(hosts=2, devices_per_host=4, islands=2)
    assert cl.host_devices[0] == [0, 1, 2, 3]
    assert cl.host_devices[3] == [12, 13, 14, 15]
    assert cl.island_devices[1] == [8, 9, 10, 11, 12, 13, 14, 15]
    assert cl.device(9).host_id == 2


@given(st.integers(2, 3), st.integers(2, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_single_global_order_never_deadlocks(n_dev, n_gang, data):
    """Any one total order of collective gangs, applied on every device,
    runs to completion; rendezvous needs order divergence to wedge."""
    order = data.draw(st.permutations(range(n_gang)))
    sim, cl = make_cluster(hosts=1, devices_per_host=n_dev)
    group = tuple(range(n_dev))
    for d in range(n_dev):
        for g in order:
            enqueue_kernel(sim, k("i", f"g{g}", (d,), key=f"g{g}",
                                  group=group), at=0)
    assert sim.run_until_quiescent().status == "quiescent"
