"""End-to-end execution timing against closed-form oracles, plus content
digests across dispatch modes and store hygiene after client failure.

Timing constants trace to the default cost model: client rpc 500us,
scheduler decision 10us, scheduler send 5us, control hop 50us, host prep
5us, enqueue 5us per kernel, pcie 5us. First kernel of a submitted chain
reaches an idle device at 580us; see the per-test derivations.
"""
import copy

import pytest

from flowpath import executor, ir
from flowpath.bench import one_gang_program, pipeline_program
from flowpath.config import small_cluster
from flowpath.coord import edge_id
from flowpath.executor import HostExecutor
from flowpath.hardware import KernelExec, transfer_ns
from flowpath.ir import (ArgNode, CompiledFunction, Tracer, arg_consumers,
                         chain_program, lower)
from flowpath.runtime import (ClientProcess, SerialChainJob, StreamJob, System,
                              steady_rate)
from flowpath.simcore import us
from flowpath.store import (StoreError, UnknownHandleError, audit_leaks,
                            audit_no_double_free)

KB = 1 << 10
MB = 1 << 20


def run_chain(k, t_us, mode, hosts=1, devices_per_host=1, apply_count=1,
              fn_name=None):
    sys_ = System(small_cluster(hosts=hosts,
                                devices_per_host=devices_per_host),
                  record_trace=True)
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
    sys_ = System(spec, record_trace=True)
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
    sys_ = System(small_cluster(hosts=1, devices_per_host=4),
                  record_trace=True)
    f = CompiledFunction("allreduce", 4, (MB,), (MB,), 80, collective=True)
    sys_.register_traced("p", chain_program([f], arg_bytes=MB))
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=1))
    assert sys_.run().status == "quiescent"
    spans = kernel_spans(sys_)
    assert len(spans) == 4
    assert len({e for _, _, e in spans}) == 1     # one rendezvous, one finish
    assert len(sys_.sim.completions) == 1



def test_paper_scale_collective_chain_costs_per_gang(monkeypatch):
    # the paper's 2048-device SPMD scale: 512 hosts x 4 devices run a
    # 4-node chain of collectives; a gang's enqueue and completion cost per
    # host and per group, not per device: one kernel record per gang and host
    records = 0

    def counted(*args, **kwargs):
        nonlocal records
        records += 1
        return KernelExec(*args, **kwargs)

    monkeypatch.setattr(executor, "KernelExec", counted)
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
    assert records == 16 * 512
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
    assert sys_.gang_left == {}


def test_client_failure_with_thousands_of_queued_kernels():
    # 3,000 one-device gangs are in flight when the client dies, about 1,850
    # of them queued on the one device: it drops them in one pass and finds
    # each aborted record without scanning its queue (dropping them once
    # recursed per aborted head, past Python's stack limit)
    sys_ = System(small_cluster(hosts=1, devices_per_host=1,
                                hbm_bytes=1 << 40))
    sys_.register_traced("g", one_gang_program(1, 50.0, out_kb=1,
                                               collective=False))
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "g", count=3000,
                                window=3000))
    sys_.fail_client(c, at_ns=us(40000))
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    assert c.failed and c.completed_at
    assert audit_leaks(sys_.cluster) == {}
    assert audit_no_double_free(sys_.audit) == []
    assert not any(d._arrivals for d in sys_.cluster.devices)
    # no gang of a failed instance stays behind
    assert sys_.gang_left == {}


def test_dead_client_sends_nothing_from_its_open_batch(monkeypatch):
    # the client dies 1us after its first completion, while the batch of
    # that instance's instance_done messages is open: the batch is dropped,
    # as a dead client's timer was ignored, and the fleet still cleans up
    def fleet():
        sys_ = System(small_cluster(hosts=2, devices_per_host=2))
        fns = [CompiledFunction(f"f{i}", 2, (MB,), (MB,), 120)
               for i in range(3)]
        sys_.register_traced("p", chain_program(fns))
        c = sys_.add_client("c0")
        sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=6,
                                    window=2))
        return sys_, c

    ref, c = fleet()
    assert ref.run().status == "quiescent"
    die_ns = min(c.completed_at.values()) + us(1)
    held, from_client = [], []
    client_handle, host_handle = ClientProcess.handle, HostExecutor.handle

    def on_client(self, kind, payload, src):
        if kind == "die":
            held.extend(m["kind"] for b in self.batcher._batch.values()
                        if b[0] > self.sim.now() for m in b[3])
        return client_handle(self, kind, payload, src)

    def on_host(self, kind, payload, src):
        if src == "client.c0":
            from_client.append((self.sim.now(), kind))
        return host_handle(self, kind, payload, src)

    monkeypatch.setattr(ClientProcess, "handle", on_client)
    monkeypatch.setattr(HostExecutor, "handle", on_host)
    sys_, c = fleet()
    sys_.fail_client(c, at_ns=die_ns)
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    assert c.dead and len(c.completed_at) == 1
    assert sorted(held) == ["instance_done", "instance_done", "release"]
    assert [t for t, _ in from_client if t >= die_ns] == []
    assert c.batcher.flushes == 0 and c.batcher.batched_sent == 0
    assert sys_.sim._cancelled == set()
    assert audit_no_double_free(sys_.audit) == []
    assert audit_leaks(sys_.cluster) == {}
    assert sys_.gang_left == {}


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
            assert sys_.gang_left == {}, where
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


# -- static program tables, one per distinct shape -------------------------

def test_setup_works_once_per_distinct_shape(monkeypatch):
    # 32 stages x 128 microbatches over 4 islands: 4,096 compute nodes, but
    # 32 edge shapes and 32 node placements
    planned, placed = [], []
    plan, by_host = ir.plan_reshard, executor._by_host
    monkeypatch.setattr(ir, "plan_reshard",
                        lambda *a: planned.append(a) or plan(*a))
    monkeypatch.setattr(executor, "_by_host",
                        lambda devs, host_of: placed.append(devs)
                        or by_host(devs, host_of))
    sys_ = System(small_cluster(hosts=2, devices_per_host=4, islands=4))
    prog = pipeline_program(32, 128, 100.0, islands=4)
    lp = lower(prog, sys_.allocate_for(prog))
    assert len(planned) == 32
    assert len({id(le.pairs) for le in lp.edges if le.pairs}) == 32
    info = sys_.register_program("pipe", lp)
    placements = {lp.placement[n.id] for n in prog.compute_nodes}
    assert len(placements) == 32
    assert sorted(placed) == sorted(placements)
    assert len({id(ni.local_shards) for ni in info.nodes.values()}) == 32


def _gather_program():
    # 4 shards on 2 hosts gathered into 2 shards placed across both hosts,
    # which read the arg too (every pair crosses a host), then scattered
    # back. f, e and h share a placement: e reads the arg as f does, but f
    # creates it; h reads other inputs
    t = Tracer()
    a = t.arg(4, KB)
    s4, s2 = t.virtual_slice([4]), t.virtual_slice([2])
    f = t.call(CompiledFunction("f", 4, (KB,), (KB,), 20.0), a, slice_id=s4)
    e = t.call(CompiledFunction("e", 4, (KB,), (KB,), 20.0), a, slice_id=s4)
    g = t.call(CompiledFunction("g", 2, (2 * KB, 2 * KB), (2 * KB,), 20.0),
               f, a, slice_id=s2)
    h = t.call(CompiledFunction("h", 4, (KB,), (KB,), 20.0), g, slice_id=s4)
    return t.finish([h, e]), {s4: (0, 1, 2, 3), s2: (2, 0)}


def _naive_tables(lp, cluster):
    """Each edge's pair groupings and each node's tables, recomputed from
    the lowered edges and the placement alone."""
    p = lp.program
    host_of = {d.device_id: d.host_id for d in cluster.devices}

    def by_chost(pairs):
        out = {}
        for pr in pairs:
            out.setdefault(host_of[pr.dst_dev], []).append(pr)
        return {h: tuple(v) for h, v in out.items()}

    def chosts_by_src(pairs):
        return {s: tuple(sorted({host_of[pr.dst_dev] for pr in pairs
                                 if pr.src_shard == s}))
                for s in {pr.src_shard for pr in pairs}}

    edges = {edge_id(le.edge.src, le.edge.dst, le.edge.dst_port):
             (by_chost(le.pairs), chosts_by_src(le.pairs))
             for le in lp.edges}
    creator = arg_consumers(p)
    nodes = {}
    for n in p.compute_nodes:
        devs = lp.placement[n.id]
        home = host_of[devs[0]]
        local = {}
        for s, d in enumerate(devs):
            local.setdefault(host_of[d], []).append(s)
        waits, sources, recv = {}, {}, {}
        for le in lp.edges:
            if le.edge.dst != n.id:
                continue
            src = p.nodes[le.edge.src]
            if not isinstance(src, ArgNode):
                waits[home] = waits.get(home, 0) + len(lp.placement[src.id])
                for h in local:
                    heard = {pr.src_shard for pr in le.pairs
                             if host_of[pr.dst_dev] == h}
                    if h != home and heard:
                        waits[h] = waits.get(h, 0) + len(heard)
            if isinstance(src, ArgNode) and src.handle is not None:
                continue
            for pr in le.pairs:
                if pr.src_dev != pr.dst_dev:
                    sources.setdefault(pr.dst_dev, []).append(pr.src_dev)
                    recv[pr.dst_shard] = recv.get(pr.dst_shard, 0) + pr.nbytes
        hbm = {d: sum(n.fn.out_bytes) for d in devs}
        for s, nbytes in recv.items():
            hbm[devs[s]] += nbytes
        for aid, first in creator.items():
            if first == n.id and p.nodes[aid].handle is None:
                for d in lp.placement[aid]:
                    hbm[d] += p.nodes[aid].bytes_per_shard
        nodes[n.id] = {
            "local_shards": {h: tuple(ss) for h, ss in local.items()},
            "local_devices": {h: tuple(devs[s] for s in ss)
                              for h, ss in local.items()},
            "waits": waits,
            "input_sources": {d: tuple(v) for d, v in sources.items()},
            "recv_bytes": recv, "hbm_by_device": hbm}
    return edges, nodes


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
@pytest.mark.parametrize("case", ["pipeline", "gather"])
def test_shared_tables_match_a_naive_recompute_and_stay_unwritten(case, mode):
    if case == "pipeline":
        sys_ = System(small_cluster(hosts=1, devices_per_host=4, islands=2))
        prog = pipeline_program(8, 4, 100.0, islands=2)
        dmap, fail_us = sys_.allocate_for(prog), 3000
    else:
        sys_ = System(small_cluster(hosts=2, devices_per_host=2))
        (prog, dmap), fail_us = _gather_program(), 2400
    lp = lower(prog, dmap)
    info = sys_.register_program("p", lp)
    edges, nodes = _naive_tables(lp, sys_.cluster)
    for eid, ei in info.edges.items():
        assert (ei.pairs_by_chost, ei.chosts_by_src) == edges[eid], eid
    # edges with equal pairs share one table
    by_shape = {}
    for le in lp.edges:
        ei = info.edges[edge_id(le.edge.src, le.edge.dst, le.edge.dst_port)]
        assert by_shape.setdefault(le.pairs, ei.chosts_by_src) is ei.chosts_by_src
    assert len(by_shape) < len(lp.edges)
    for nid, ni in info.nodes.items():
        assert {k: getattr(ni, k) for k in nodes[nid]} == nodes[nid], nid
    # the tables are shared between nodes and instances: a run in which
    # the client dies midway writes none of them
    before = copy.deepcopy((info.nodes, info.edges, info.args))
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=6, window=2,
                                mode=mode))
    sys_.fail_client(c, at_ns=us(fail_us))
    assert sys_.run().status == "quiescent"
    assert c.failed and c.completed_at
    assert audit_leaks(sys_.cluster) == {}
    assert (info.nodes, info.edges, info.args) == before


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
