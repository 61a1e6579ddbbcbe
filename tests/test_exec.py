"""End-to-end execution timing against closed-form oracles, plus content
digests across dispatch modes and store hygiene after client failure.

Timing constants trace to the default cost model: client rpc 500us,
scheduler decision 10us, scheduler send 5us, control hop 50us, host prep
5us, enqueue 5us per kernel, pcie 5us. First kernel of a submitted chain
reaches an idle device at 580us; see the per-test derivations.
"""
import pytest

from flowpath.config import small_cluster
from flowpath.executor import HostExecutor
from flowpath.hardware import transfer_ns
from flowpath.ir import CompiledFunction, Tracer, chain_program
from flowpath.runtime import SerialChainJob, StreamJob, System, steady_rate
from flowpath.simcore import us
from flowpath.store import (StoreError, UnknownHandleError, audit_leaks,
                            audit_no_double_free)

MB = 1 << 20


def run_chain(k, t_us, mode, hosts=1, devices_per_host=1, apply_count=1,
              fn_name=None):
    sys_ = System(small_cluster(hosts=hosts,
                                devices_per_host=devices_per_host))
    fns = [CompiledFunction(fn_name or f"f{i}", 1, (MB,), (MB,), t_us,
                            apply_count=apply_count) for i in range(k)]
    sys_.register_traced("p", chain_program(fns, arg_bytes=MB))
    c = sys_.add_client("c0")
    job = StreamJob(sys_.new_job_id(), "p", count=1, mode=mode)
    sys_.start_job(c, job)
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    ends = sorted(t.end_ns for t in sys_.sim.trace if t.category == "kernel")
    return sys_, c, ends


def kernel_spans(sys_):
    return sorted((t.name, t.start_ns, t.end_ns) for t in sys_.sim.trace
                  if t.category == "kernel")


# -- single-controller chain timing ----------------------------------------
#
# Submission reaches the scheduler at 500 (client rpc). Each gang costs one
# 10us decision plus one 5us send task; the go rides a 50us control hop,
# then prep 5, enqueue 5, pcie 5: kernel i of a parallel chain reaches the
# device at 580 + 15(i-1) us and runs after its predecessor.

def test_parallel_chain_timing_closed_form():
    for k, t in [(1, 100), (4, 100), (4, 330), (8, 50), (5, 200), (3, 15)]:
        _, _, ends = run_chain(k, t, "parallel")
        assert ends == [us(580) + i * us(t) for i in range(1, k + 1)], (k, t)


def test_parallel_chain_timing_arrival_limited():
    # below 15us per kernel the grant pipeline is the bottleneck
    for k, t in [(4, 10), (2, 7), (6, 1)]:
        _, _, ends = run_chain(k, t, "parallel")
        pred, e = [], 0
        for i in range(k):
            e = max(us(580) + us(15) * i, e) + us(t)
            pred.append(e)
        assert ends == pred, (k, t)


def test_sequential_chain_timing_closed_form():
    # each hop pays enqueue 5 + future announcement processing, one
    # scheduler round trip (50 + 10 + 5 + 50) and prep/enqueue again:
    # 125us from enqueue to enqueue, overlapped with the kernel itself
    for k, t in [(1, 100), (4, 100), (4, 10), (6, 125), (3, 15), (5, 200)]:
        _, _, ends = run_chain(k, t, "sequential")
        assert ends == [us(580) + us(t) + i * max(us(125), us(t))
                        for i in range(k)], (k, t)


def test_client_learns_completion_one_rpc_after_last_kernel():
    for mode in ("parallel", "sequential"):
        sys_, c, ends = run_chain(3, 100, mode)
        assert c.completed_at["i1"] == ends[-1] + us(5) + us(500)


def test_cross_host_hop_pays_drain_and_transfer():
    spec = small_cluster(hosts=2, devices_per_host=1)
    sys_ = System(spec)
    fns = [CompiledFunction(f"f{i}", 1, (MB,), (MB,), 100) for i in range(2)]
    sys_.register_traced("p", chain_program(fns, arg_bytes=MB))
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=1))
    assert sys_.run().status == "quiescent"
    spans = kernel_spans(sys_)
    assert [n for n, _, _ in spans] == ["n1[0]", "n2[0]"]
    e1 = spans[0][2]
    assert e1 == us(680)
    # producer host learns after one pcie hop, then launches the DMA
    hop = transfer_ns(spec.islands[0].ici, MB)
    assert spans[1][2] == e1 + us(5) + hop + us(100) == 796486
    assert c.completed_at["i1"] == 796486 + us(505)


def test_collective_gang_finishes_in_lockstep():
    sys_ = System(small_cluster(hosts=1, devices_per_host=4))
    f = CompiledFunction("allreduce", 4, (MB,), (MB,), 80, collective=True)
    sys_.register_traced("p", chain_program([f], arg_bytes=MB))
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=1))
    assert sys_.run().status == "quiescent"
    spans = kernel_spans(sys_)
    assert len(spans) == 4
    assert len({e for _, _, e in spans}) == 1     # one rendezvous, one finish
    assert len(sys_.sim.completions) == 1



def test_paper_scale_collective_chain_costs_per_gang():
    # the paper's 2048-device SPMD scale: 512 hosts x 4 devices run a
    # 4-node chain of collectives; a gang's enqueue and completion cost per
    # host and per group, not per device
    n = 512 * 4
    sys_ = System(small_cluster(hosts=512, devices_per_host=4),
                  record_trace=False)
    fns = [CompiledFunction(f"f{i}", n, (1024,), (1024,), 150.0,
                            collective=True) for i in range(4)]
    sys_.register_traced("chain", chain_program(fns))
    sys_.start_job(sys_.add_client("c0"), StreamJob(
        sys_.new_job_id(), "chain", count=4, window=2))
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    assert stats.clock_ns == 42_955_000
    assert len(sys_.sim.completions) == 16
    assert stats.events <= 2.5 * 16 * n          # events per device-kernel
    assert audit_leaks(sys_.cluster) == {}


# -- content digests -------------------------------------------------------

def test_all_dispatch_modes_compute_the_same_value():
    digests = {}
    for mode in ("parallel", "sequential", "auto"):
        sys_, _, _ = run_chain(4, 50, mode)
        digests[mode] = sys_.inst_digests["i1"]
    assert digests["parallel"] == digests["sequential"] == digests["auto"]


def test_fused_chain_matches_op_by_op():
    # one kernel applying the op 4 times vs four kernels applying it once
    sys_a, _, _ = run_chain(4, 50, "parallel", fn_name="step")
    sys_b, _, _ = run_chain(1, 200, "parallel", apply_count=4,
                            fn_name="step")
    assert sys_a.inst_digests["i1"] == sys_b.inst_digests["i1"]


def test_serial_calls_thread_results_through_bindings():
    sys_ = System(small_cluster(hosts=1, devices_per_host=1))
    step = CompiledFunction("f0", 1, (MB,), (MB,), 50)
    sys_.register_traced("first", chain_program([step], arg_bytes=MB))
    sys_.register_traced("rest", chain_program([step], arg_bytes=MB,
                                               arg_handle="bound"))
    c = sys_.add_client("c0")
    job = SerialChainJob(sys_.new_job_id(), "first", "rest", count=4)
    sys_.start_job(c, job)
    assert sys_.run().status == "quiescent"
    assert job.completed == 4
    per_call = [sys_.inst_digests[i][0] for i in job.instances]
    assert len(set(per_call)) == 4                # value evolves every call
    chained, _, _ = run_chain(4, 50, "parallel", fn_name="f0")
    assert per_call[-1] == chained.inst_digests["i1"][0]


def test_chain_name_changes_the_digest():
    sys_a, _, _ = run_chain(2, 50, "parallel")
    sys_b = System(small_cluster(hosts=1, devices_per_host=1))
    fns = [CompiledFunction("g0", 1, (MB,), (MB,), 50),
           CompiledFunction("g1", 1, (MB,), (MB,), 50)]
    sys_b.register_traced("p", chain_program(fns, arg_bytes=MB))
    c = sys_b.add_client("c0")
    sys_b.start_job(c, StreamJob(sys_b.new_job_id(), "p", count=1))
    assert sys_b.run().status == "quiescent"
    assert sys_a.inst_digests["i1"] != sys_b.inst_digests["i1"]


# -- failure hygiene -------------------------------------------------------

@pytest.mark.parametrize("fail_at_us", [200, 800, 1600, 2500, 4000])
def test_client_failure_leaves_every_store_clean(fail_at_us):
    sys_ = System(small_cluster(hosts=2, devices_per_host=2))
    fns = [CompiledFunction(f"f{i}", 2, (MB,), (MB,), 120) for i in range(3)]
    sys_.register_traced("p", chain_program(fns))
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=6, window=2,
                                trigger="handles"))
    sys_.fail_client(c, at_ns=us(fail_at_us))
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    assert audit_no_double_free(sys_.audit) == []
    assert audit_leaks(sys_.cluster) == {}


def test_host_drops_a_failed_clients_late_release():
    # a release batched before the client died lands after client_failed
    # collected the client's buffers: the host drops it; the same release
    # from a live client would be a double free
    sys_ = System(small_cluster(hosts=1, devices_per_host=1))
    host = sys_.hosts[0]
    buf = host.store.put([(0, MB)], owner="c0", handle="o.i1.n1.0")
    host.handle("client_failed", {"client": "c0"}, None)
    assert host.store.buffers == {}
    late = {"messages": [{"kind": "release",
                          "payload": {"handle": buf.handle}}]}
    host.handle("batch", late, "client.c0")
    with pytest.raises(UnknownHandleError):
        host.handle("batch", late, "client.c1")
    assert audit_no_double_free(sys_.audit) == []
    assert audit_leaks(sys_.cluster) == {}


def test_surviving_client_is_untouched_by_anothers_failure():
    sys_ = System(small_cluster(hosts=1, devices_per_host=2))
    f = CompiledFunction("f0", 1, (MB,), (MB,), 60)
    sys_.register_traced("p", chain_program([f], arg_bytes=MB))
    good = sys_.add_client("good")
    bad = sys_.add_client("bad")
    jg = StreamJob(sys_.new_job_id(), "p", count=4)
    sys_.start_job(good, jg)
    sys_.start_job(bad, StreamJob(sys_.new_job_id(), "p", count=4))
    sys_.fail_client(bad, at_ns=us(700))
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    assert jg.done and jg.completed == 4
    assert audit_no_double_free(sys_.audit) == []
    assert audit_leaks(sys_.cluster) == {}


@pytest.mark.parametrize("mode", ["parallel", "sequential", "auto"])
def test_value_returned_twice_is_freed_by_its_one_release(mode):
    # both results name one buffer; the client releases each handle once
    t = Tracer()
    a = t.call(CompiledFunction("f0", 1, (4096,), (4096,), 20.0),
               t.arg(1, 4096))
    sys_ = System(small_cluster(hosts=1, devices_per_host=1))
    sys_.register_traced("p", t.finish(results=[a, a]))
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=3, mode=mode))
    assert sys_.run().status == "quiescent"
    assert len(c.completed_at) == 3
    assert audit_no_double_free(sys_.audit) == []
    assert audit_leaks(sys_.cluster) == {}


def test_client_failure_sweep_reaches_late_landings_and_unprepped_grants(
        monkeypatch):
    # a cross-host chain, slices (0,1) (2,3) (0,1) on 2 hosts x 2 devices,
    # with the client dying every 7us: some deaths catch a transfer in
    # flight (it lands after the instance is gone, so the host tells the
    # device to drop it) and some a granted gang not yet prepped (its
    # grant-time reservation is given back)
    hits = {"late_landing": 0, "unprepped_grant": 0}
    failing = []
    on_xfer = HostExecutor._on_xfer_arrived
    fail_instance = HostExecutor._fail_instance
    give_back = HostExecutor._release_grant_reservation

    def count_late(self, payload):
        hits["late_landing"] += payload["instance"] not in self.inst
        return on_xfer(self, payload)

    def mark_failing(self, instance):
        failing.append(instance)
        try:
            return fail_instance(self, instance)
        finally:
            failing.pop()

    def count_give_back(self, *args):
        hits["unprepped_grant"] += bool(failing)
        return give_back(self, *args)

    monkeypatch.setattr(HostExecutor, "_on_xfer_arrived", count_late)
    monkeypatch.setattr(HostExecutor, "_fail_instance", mark_failing)
    monkeypatch.setattr(HostExecutor, "_release_grant_reservation",
                        count_give_back)
    for mode in ("parallel", "sequential"):
        for fail_at_us in range(0, 3001, 7):
            t = Tracer()
            slices = [t.virtual_slice([2]) for _ in range(3)]
            v = t.arg(2, MB)
            for i, sid in enumerate(slices):
                v = t.call(CompiledFunction(f"f{i}", 2, (MB,), (MB,), 120), v,
                           slice_id=sid)
            sys_ = System(small_cluster(hosts=2, devices_per_host=2),
                          record_trace=False)
            sys_.register_traced("p", t.finish([v]), dict(
                zip(slices, [(0, 1), (2, 3), (0, 1)])))
            c = sys_.add_client("c0")
            sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=4,
                                        window=2, mode=mode))
            sys_.fail_client(c, at_ns=us(fail_at_us))
            stats = sys_.run()
            where = (mode, fail_at_us)
            assert stats.status == "quiescent", (where, stats.blocked)
            assert audit_no_double_free(sys_.audit) == [], where
            assert audit_leaks(sys_.cluster) == {}, where
            assert not any(d._arrivals for d in sys_.cluster.devices), where
    assert hits["late_landing"] > 0 and hits["unprepped_grant"] > 0, hits


def test_output_both_consumed_and_returned_agrees_across_modes():
    # split's port 1 feeds join and is returned: its buffer holds one ref
    # per consuming host plus the client's, and port 0 is counted apart
    t = Tracer()
    left, right = t.call(CompiledFunction("split", 2, (4096,), (2048, 2048),
                                          20.0), t.arg(2, 4096))
    v = t.call(CompiledFunction("left", 2, (2048,), (2048,), 30.0), left)
    j = t.call(CompiledFunction("join", 2, (2048, 2048), (4096,), 10.0),
               v, right)
    prog = t.finish([j, right])
    digests = {}
    for mode in ("parallel", "sequential", "auto"):
        sys_ = System(small_cluster(hosts=2, devices_per_host=2))
        sys_.register_traced("p", prog)
        c = sys_.add_client("c0")
        sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=3,
                                    mode=mode))
        assert sys_.run().status == "quiescent", mode
        assert len(c.completed_at) == 3, mode
        assert audit_no_double_free(sys_.audit) == [], mode
        assert audit_leaks(sys_.cluster) == {}, mode
        digests[mode] = {tuple(d) for d in sys_.inst_digests.values()}
    assert digests["parallel"] == digests["sequential"] == digests["auto"]
    assert len(digests["parallel"]) == 1


# -- known defect: host-gated prep under HBM pressure ----------------------

@pytest.mark.parametrize("mode", [
    "parallel",
    pytest.param("sequential", marks=pytest.mark.xfail(
        strict=True, raises=StoreError,
        reason="host-gated prep draws HBM with store.put(reserve=True), "
               "which raises instead of waiting for memory")),
])
def test_chain_waits_for_memory_under_hbm_pressure(mode):
    # HBM fits three 512 KB outputs: parallel dispatch parks gangs at the
    # scheduler until memory returns, host-gated prep allocates directly
    kb = 1024
    fns = [CompiledFunction("a", 1, (4 * kb,), (512 * kb,), 50),
           CompiledFunction("b", 1, (512 * kb,), (512 * kb,), 50)]
    sys_ = System(small_cluster(hosts=1, devices_per_host=1,
                                hbm_bytes=3 * 512 * kb + 4 * kb),
                  record_trace=False)
    sys_.register_traced("p", chain_program(fns))
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=20, window=4,
                                mode=mode))
    assert sys_.run().status == "quiescent"
    assert len(c.completed_at) == 20
