"""End-to-end execution timing against closed-form oracles, plus content
digests across dispatch modes and store hygiene after client failure.

Timing constants trace to the default cost model: client rpc 500us,
scheduler decision 10us, scheduler send 5us, control hop 50us, host prep
5us, enqueue 5us per kernel, pcie 5us. First kernel of a submitted chain
reaches an idle device at 580us; see the per-test derivations.
"""
import copy
import json
from collections import Counter

import pytest

from flowpath import executor, ir, tables
from flowpath.bench import (export_chrome_trace, one_gang_program,
                            pipeline_program)
from flowpath.config import Policy, small_cluster
from flowpath.coord import edge_id
from flowpath.executor import HostExecutor
from flowpath.hardware import DeviceProcess, KernelExec, transfer_ns
from flowpath.ir import (ArgNode, CompiledFunction, ResultNode, Tracer,
                         arg_consumers, chain_program, deserialize, lower,
                         plan_reshard, serialize)
from flowpath.runtime import ClientProcess, StreamJob, System, steady_rate
from flowpath.simcore import Simulator, us
from flowpath.store import (StoreError, UnknownHandleError, audit_leaks,
                            audit_no_double_free)
from flowpath.tables import build_program_info

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


def test_host_task_and_transfer_spans_are_traced_and_exported(tmp_path):
    # a two-island pipeline moves each stage's output over ICI or DCN; every
    # transfer span lasts its link's `transfer_ns`, and the Chrome trace
    # writes every span
    sys_ = System(small_cluster(hosts=1, devices_per_host=4, islands=2),
                  record_trace=True)
    info = sys_.register_traced("p", pipeline_program(4, 2, 50.0, islands=2))
    sys_.start_job(sys_.add_client("c0"), StreamJob(
        sys_.new_job_id(), "p", count=2, window=2, mode="sequential"))
    assert sys_.run().status == "quiescent"
    trace = sys_.sim.trace
    cats = Counter(r.category for r in trace)
    assert cats["prep"] and cats["enqueue"] and cats["transfer"], cats
    links = set()
    for r in trace:
        if r.category == "transfer":
            node = r.name.split()[1].split("[")[0]
            (pr,) = info.edges[info.nodes[node].in_edges[0]].pairs
            kind, link = sys_.cluster.link_between(pr.src_dev, pr.dst_dev)
            assert r.end_ns - r.start_ns == transfer_ns(link, pr.nbytes)
            links.add(kind)
    assert links == {"ici", "dcn"}
    path = tmp_path / "trace.json"
    export_chrome_trace(sys_.sim, str(path))
    assert sorted((e["name"], e["pid"], e["tid"], e["ts"], e["dur"])
                  for e in json.loads(path.read_text())) == sorted(
        (r.name, r.pid, r.tid, r.start_ns / 1000,
         (r.end_ns - r.start_ns) / 1000) for r in trace)


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
    # host and per group, not per device: one kernel record per gang and
    # host, and the home host alone drains the in-place edge and reports
    # the result (5.51 events per gang and host when each member did)
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
    assert stats.events <= 4.5 * 16 * 512        # per (gang, host)
    assert records == 16 * 512
    assert audit_leaks(sys_.cluster) == {}


# -- a collective reports its end once, from its home host -----------------

def _mixed_collective_program(regular):
    # collective c reads a in place and b over transfers (s1 is on hosts 2
    # and 3); a is returned too
    t = Tracer()
    x = t.arg(4, KB)
    s0, s1 = t.virtual_slice([4]), t.virtual_slice([4])
    a = t.call(CompiledFunction("a", 4, (KB,), (KB,), 20.0), x, slice_id=s0)
    b = t.call(CompiledFunction("b", 4, (KB,), (KB,), 20.0), x, slice_id=s1)
    c = t.call(CompiledFunction("c", 4, (KB, KB), (KB,), 20.0,
                                regular=regular, collective=True),
               a, b, slice_id=s0)
    return t.finish([c, a]), {s0: (0, 1, 2, 3), s1: (4, 5, 6, 7)}


def test_collective_reading_in_place_and_over_transfers_runs_the_same_twice(
        tmp_path):
    digests = {}
    for mode in ("parallel", "sequential", "auto"):
        logs = []
        for run in range(2):
            prog, dmap = _mixed_collective_program(
                regular=(mode == "parallel"))
            sys_ = System(small_cluster(hosts=4, devices_per_host=2),
                          record_log=True)
            sys_.register_program("p", lower(prog, dmap))
            sys_.start_job(sys_.add_client("c0"), StreamJob(
                sys_.new_job_id(), "p", count=3, window=2, mode=mode))
            assert sys_.run().status == "quiescent", mode
            assert audit_leaks(sys_.cluster) == {}, mode
            assert audit_no_double_free(sys_.audit) == [], mode
            path = tmp_path / f"{mode}{run}.ndjson"
            sys_.sim.dump_event_log(str(path))
            logs.append(path.read_bytes())
            digests.setdefault(mode, set()).update(
                tuple(d) for d in sys_.inst_digests.values())
        assert logs[0] == logs[1], mode
    assert digests["parallel"] == digests["sequential"] == digests["auto"]
    assert len(digests["parallel"]) == 1


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_collective_home_host_drains_in_place_pairs_it_does_not_read(
        mode, drains):
    # p's shards 0 and 1 swap devices, so c's home host 0 reads both over
    # transfers; host 1 reads shards 2 and 3 in place. Every member's
    # kernel ends in one event, so host 0 alone drains the edge, once
    t = Tracer()
    sp, sc = t.virtual_slice([4]), t.virtual_slice([4])
    p = t.call(CompiledFunction("p", 4, (KB,), (KB,), 20.0), t.arg(4, KB),
               slice_id=sp)
    c = t.call(CompiledFunction("c", 4, (KB,), (KB,), 20.0, collective=True),
               p, slice_id=sc)
    sys_ = System(small_cluster(hosts=2, devices_per_host=2))
    info = sys_.register_program("p", lower(t.finish([c]), {
        sp: (1, 0, 2, 3), sc: (0, 1, 2, 3)}))
    eid = edge_id(p.node, c.node)
    assert info.edges[eid].inbound == {
        0: ((0, ((0, 0, 0, KB), (1, 1, 1, KB))),)}
    assert info.edges[eid].drainers == (0,)
    sys_.start_job(sys_.add_client("c0"), StreamJob(
        sys_.new_job_id(), "p", count=3, window=2, mode=mode))
    assert sys_.run().status == "quiescent"
    assert audit_leaks(sys_.cluster) == {}
    assert audit_no_double_free(sys_.audit) == []
    assert [(tgt, d["from_host"]) for _t, tgt, d in drains
            if d["edge"] == eid] == [("host0", 0)] * 3


@pytest.mark.parametrize("fail_at_us", [1850, 2200, 2900])
def test_client_failure_midway_through_a_collective_chain_ends_clean(
        fail_at_us, drains):
    # each time falls in a kernel of the chain's middle node, after at
    # least one instance has finished
    sys_ = System(small_cluster(hosts=2, devices_per_host=2))
    fns = [CompiledFunction(f"f{i}", 4, (MB,), (MB,), 120, collective=True)
           for i in range(3)]
    sys_.register_traced("p", chain_program(fns))
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=6, window=2,
                                trigger="handles"))
    sys_.fail_client(c, at_ns=us(fail_at_us))
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    assert c.failed and c.completed_at
    assert audit_no_double_free(sys_.audit) == []
    assert audit_leaks(sys_.cluster) == {}
    assert sys_.gang_left == {}
    # every edge is read in place, so only the home host drains, by a call
    assert {(tgt, d["from_host"]) for _t, tgt, d in drains} == {("host0", 0)}


# -- host tasks: a granted gang preps and enqueues in one task --------------

def small_chain(mode, **kw):
    """A 3-node chain of 4 shards on 2 hosts x 2 devices, 3 instances with
    window 2; outside parallel mode its middle node is data-dependent."""
    fns = [CompiledFunction(name, 4, (4 * KB,), (4 * KB,), 20.0,
                            regular=(name != "mid" or mode == "parallel"))
           for name in ("head", "mid", "tail")]
    sys_ = System(small_cluster(hosts=2, devices_per_host=2), **kw)
    sys_.register_traced("chain", chain_program(fns))
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "chain", 3, window=2,
                                mode=mode))
    return sys_, c


def delivered(sys_, kind):
    """(t_ns, target, payload) of each `kind` event delivered."""
    return [(t, target, p) for t, _seq, target, k, p in sys_.sim.log
            if k == kind]


@pytest.mark.parametrize("mode", ["parallel", "sequential", "auto"])
def test_one_host_task_per_granted_gang(mode):
    sys_, _c = small_chain(mode, record_log=True)
    assert sys_.run().status == "quiescent"
    gangs = [(target, p["instance"], p["node"])
             for _t, target, p in delivered(sys_, "go")]
    assert len(set(gangs)) == len(gangs) == 2 * 9
    # a host-gated node preps when its inputs are announced, before its
    # grant, and enqueues on the grant: two tasks on each of its hosts
    gated = Counter(f"host{h}" for meta in sys_.instances.values()
                    for nid, how in meta.modes.items() if how != "go"
                    for h in meta.program.nodes[nid].hosts)
    assert bool(gated) == (mode != "parallel")
    tasks = Counter(target for _t, _seq, target, kind, _p in sys_.sim.log
                    if kind == "task_done")
    assert tasks == Counter(target for target, _i, _n in gangs) + gated
    for h in sys_.hosts.values():
        assert h.stats["preps"] == h.stats["enqueues"] == 9


@pytest.mark.parametrize("mode", ["parallel", "sequential", "auto"])
def test_granted_gang_lane_keeps_prep_then_enqueue(mode):
    sys_, _c = small_chain(mode, record_log=True, record_trace=True)
    assert sys_.run().status == "quiescent"
    lanes = {}
    for t in sys_.sim.trace:
        if t.category in ("prep", "enqueue"):
            assert t.tid == 100_000 + t.pid
            lanes.setdefault(t.pid, []).append(t)
    prep_ns, enqueue_ns = sys_.costs.host_prep_ns, 2 * sys_.costs.pcie_enqueue_ns
    for host, spans in lanes.items():
        spans.sort(key=lambda t: t.start_ns)
        assert all(a.end_ns <= b.start_ns for a, b in zip(spans, spans[1:]))
        by = {(t.category, t.instance, t.name.split()[1]): t for t in spans}
        assert len(by) == len(spans) == 2 * 9
        for (cat, inst, nid), t in by.items():
            if cat == "prep":
                assert t.end_ns - t.start_ns == prep_ns
                continue
            assert t.end_ns - t.start_ns == enqueue_ns
            if sys_.instances[inst].modes[nid] == "go":
                assert by["prep", inst, nid].end_ns == t.start_ns
        # the first grant lands on an idle host at 570us: rpc 500, decision
        # 10, one 5us send per host, control hop 50
        assert [(t.name, t.start_ns, t.end_ns) for t in spans[:2]] == [
            ("prep n1", us(570), us(575)), ("enqueue n1", us(575), us(585))]


def test_client_death_during_a_merged_host_task(monkeypatch):
    """Both hosts start i1/n1's merged task when its grant lands at 570us
    (prep 5us, then 2 enqueues of 5us); the client dies and the fleet hears
    at 580us, before the task ends. Its effects are skipped, and each
    host gives the grant back exactly once."""
    given = []
    give_back = HostExecutor._release_grant_reservation

    def spy(self, info, instance, nid):
        given.append((self.host_id, instance, nid))
        return give_back(self, info, instance, nid)

    monkeypatch.setattr(HostExecutor, "_release_grant_reservation", spy)
    sys_, c = small_chain("parallel", record_log=True)
    sys_.fail_client(c, at_ns=us(580), detect_ns=0)
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    for h in (0, 1):
        host = f"host{h}"
        rows = [(t, kind) for t, _seq, target, kind, _p in sys_.sim.log
                if target == host and kind in ("go", "client_failed",
                                                "task_done")]
        assert rows[:3] == [(us(570), "go"), (us(580), "client_failed"),
                            (us(585), "task_done")]
        assert sys_.hosts[h].stats == {"ctrl_msgs": 0, "preps": 0,
                                       "enqueues": 0}
        assert (h, "i1", "n1") in given
    assert len(set(given)) == len(given)
    assert audit_leaks(sys_.cluster) == {}
    assert audit_no_double_free(sys_.audit) == []
    assert sys_.gang_left == {} and sys_.cluster._rendezvous == {}
    assert not any(d.queue or d._arrivals for d in sys_.cluster.devices)


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


# -- teardown: a host ends its part of an instance by itself ---------------

@pytest.mark.parametrize("collective", [False, True])
@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_each_host_drops_an_instance_at_its_own_last_event(
        mode, collective, monkeypatch):
    # a 4-to-2 gather on 2 hosts x 2 devices: host 1 holds no shard of the
    # narrow node, so its part ends with sourcing remote pairs, once their
    # addresses have come (a host that dropped the instance before would
    # never send them). Each host drops each instance once, while it
    # handles a kernel_done, drain or addr for it, and none comes after.
    # A host's own drain is a call made while it handles a kernel_done.
    handled: dict[tuple[int, str], list[str]] = {}    # (host, inst) -> ends
    open_: list[tuple] = []          # the end being handled, innermost last
    drops: list[tuple] = []
    host_drop = HostExecutor._drop

    def counted(name):
        on_end = getattr(HostExecutor, name)

        def spy(self, payload):
            key = (self.host_id, payload["instance"])
            handled.setdefault(key, []).append(name)
            open_.append(key)
            try:
                return on_end(self, payload)
            finally:
                open_.pop()
        return spy

    def on_drop(self, instance):
        key = (self.host_id, instance)
        drops.append((key, open_[-1] if open_ else None,
                      len(handled.get(key, ()))))
        return host_drop(self, instance)

    for name in ("_on_kernel_done", "_on_drain", "_on_addr"):
        monkeypatch.setattr(HostExecutor, name, counted(name))
    monkeypatch.setattr(HostExecutor, "_drop", on_drop)
    fns = [CompiledFunction(name, n, (16 * KB // n,), (16 * KB // n,), 20.0,
                            collective=collective)
           for name, n in (("wide", 4), ("narrow", 2))]
    sys_ = System(small_cluster(hosts=2, devices_per_host=2), record_log=True)
    sys_.register_traced("p", chain_program(fns))
    job = StreamJob(sys_.new_job_id(), "p", count=3, window=2, mode=mode)
    sys_.start_job(sys_.add_client("c0"), job)
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    assert job.done
    info = sys_.programs["p"]
    assert info.nodes["n2"].hosts == (0,)
    # host 0: 4 local shards, 3 drains (2 if a collective home host drains
    # the arg's in-place pairs for both hosts) and 1 addr; host 1: 2 local
    # shards and 1 addr
    assert info.ends == {0: 8 - collective, 1: 3}
    parts = {(h, i) for i in job.instances for h in info.ends}
    assert sorted(key for key, _at, _n in drops) == sorted(parts)
    assert set(handled) == parts
    for key, at, n in drops:
        assert at == key and n == len(handled[key]), (key, handled[key])
    assert all(not h.inst for h in sys_.hosts.values())
    kinds = {kind for _t, _s, _dst, kind, _p in sys_.sim.log}
    kinds |= {m["kind"] for _t, _s, _dst, kind, p in sys_.sim.log
              if kind == "batch" for m in p["messages"]}
    assert "instance_done" not in kinds
    assert audit_leaks(sys_.cluster) == {}


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
    # of them queued on the one device: it drops them in one pass, each by
    # its key when it reaches the head, without scanning its queue (dropping
    # them once recursed per aborted head, past Python's stack limit)
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
    # no gang of a failed instance stays behind, and no abort key: each
    # went with its record, and none of them expects a landing
    assert sys_.gang_left == {}
    assert sys_.cluster.devices[0]._aborted == {}


def test_dead_client_sends_nothing_from_its_open_batch(monkeypatch):
    # the client dies 1us after its first completion, while the batch of
    # that instance's result release is open: the batch is dropped, as a
    # dead client's timer was ignored, and the fleet still cleans up
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
                        if b[0] > self.sim.now() for m in b[2])
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
    assert held == ["release"]
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
    # flight (it lands after its device was told to abort the node, and
    # the device drops it) and some a granted gang not yet prepped (its
    # grant-time reservation is given back)
    hits = {"late_landing": 0, "unprepped_grant": 0}
    failing = []
    on_device = DeviceProcess.handle
    fail_instance = HostExecutor._fail_instance
    give_back = HostExecutor._release_grant_reservation

    def count_late(self, kind, payload, src):
        if kind == "transfer_arrive":
            hits["late_landing"] += (payload["instance"],
                                     payload["node"]) in self._aborted
        return on_device(self, kind, payload, src)

    def mark_failing(self, instance):
        failing.append(instance)
        try:
            return fail_instance(self, instance)
        finally:
            failing.pop()

    def count_give_back(self, *args):
        hits["unprepped_grant"] += bool(failing)
        return give_back(self, *args)

    monkeypatch.setattr(DeviceProcess, "handle", count_late)
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

# at most one call per distinct shape: the pipeline has 32 plans and node
# shapes and 33 edge tables, its result edges' one among them; the chain
# one plan and two of the rest. A build keyed by function or node
# identity would exceed them on the deserialized pipeline (a function per
# node) and on the chain (a function per stage)
PIPELINE_CALLS = {"plan_reshard": 32, "_pair_tables": 33, "_inputs": 32,
                  "_hbm_ask": 32}
SETUP_CALLS = {"pipeline": PIPELINE_CALLS, "deserialized": PIPELINE_CALLS,
               "chain": {"plan_reshard": 1, "_pair_tables": 2, "_inputs": 2,
                         "_hbm_ask": 2}}


def test_setup_works_once_per_distinct_shape(monkeypatch):
    # 32 stages x 128 microbatches over 4 islands: 4,096 compute nodes, but
    # 32 edge shapes and 32 node placements
    calls, placed = Counter(), []
    # lower's module too, so a plan made there would count
    targets = [(ir, "plan_reshard")] + [(tables, f) for f in PIPELINE_CALLS]
    for mod, name in targets:
        def counted(*a, _name=name, _f=getattr(mod, name)):
            calls[_name] += 1
            return _f(*a)
        monkeypatch.setattr(mod, name, counted)
    by_host = tables._by_host
    monkeypatch.setattr(tables, "_by_host",
                        lambda devs, host_of: placed.append(devs)
                        or by_host(devs, host_of))
    sys_ = System(small_cluster(hosts=2, devices_per_host=4, islands=4))
    prog = pipeline_program(32, 128, 100.0, islands=4)
    lp = lower(prog, sys_.allocate_for(prog))
    assert not calls                  # lower plans no edge
    info = sys_.register_program("pipe", lp)
    assert calls["plan_reshard"] == 32
    assert len({id(ei.pairs) for ei in info.edges.values() if ei.pairs}) == 32
    placements = {lp.placement[n.id] for n in prog.compute_nodes}
    assert len(placements) == 32
    assert sorted(placed) == sorted(placements)
    assert len({id(ni.local_shards) for ni in info.nodes.values()}) == 32
    seen = {"pipeline": dict(calls)}
    # the same pipeline after a round trip, and perfbench's chain: 4
    # collective nodes on all 96 devices of 24 hosts
    calls.clear()
    sys_ = System(small_cluster(hosts=2, devices_per_host=4, islands=4))
    sys_.register_traced("pipe", deserialize(serialize(prog)))
    seen["deserialized"] = dict(calls)
    calls.clear()
    fns = [CompiledFunction(f"f{i}", 96, (KB,), (KB,), 10.0 + i,
                            collective=True) for i in range(4)]
    System(small_cluster(hosts=24, devices_per_host=4)).register_traced(
        "chain", chain_program(fns))
    seen["chain"] = dict(calls)
    for case, bound in SETUP_CALLS.items():
        assert set(seen[case]) == set(bound), case
        for name, n in bound.items():
            assert seen[case][name] <= n, (case, name, seen[case][name])


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


def _fan_program():
    # x creates and reads three args and four nodes read its value, so its
    # in-edges, out-edges and created args each grow past two. Two z nodes
    # on one slice differ only in their third input, so they differ in
    # shape only by its plan
    t = Tracer()
    args = [t.arg(2, KB) for _ in range(3)]
    x = t.call(CompiledFunction("x", 2, (KB,) * 3, (KB,), 20.0), *args)
    ys = [t.call(CompiledFunction(f"y{i}", 2, (KB,), (KB,), 20.0), x)
          for i in range(3)]
    z = CompiledFunction("z", 2, (KB,) * 3, (KB,), 20.0)
    s2 = t.virtual_slice([2])
    return t.finish([t.call(z, *ys[:2], last, slice_id=s2)
                     for last in (ys[2], x)])


def _naive_tables(lp, cluster):
    """Each edge's pairs and their groupings and each node's tables,
    recomputed from the traced edges and the placement alone."""
    p = lp.program
    host_of = {d.device_id: d.host_id for d in cluster.devices}

    def planned(e):
        """The edge's pairs, planned here: none into a result."""
        src, dst = p.nodes[e.src], p.nodes[e.dst]
        if isinstance(dst, ResultNode):
            return ()
        sgeo = ((src.shards, src.bytes_per_shard) if isinstance(src, ArgNode)
                else (src.fn.shard_count, src.fn.out_bytes[e.src_port]))
        sdevs, ddevs = lp.placement[e.src], lp.placement[e.dst]
        return tuple(pr._replace(src_dev=sdevs[pr.src_shard],
                                 dst_dev=ddevs[pr.dst_shard])
                     for pr in plan_reshard(*sgeo, dst.fn.shard_count,
                                            dst.fn.in_bytes[e.dst_port]))

    lowered = [(e, planned(e)) for e in p.edges]

    def inbound(pairs):
        out = {}
        for h in {host_of[pr.dst_dev] for pr in pairs}:
            remote = [pr for pr in pairs
                      if host_of[pr.dst_dev] == h and pr.src_dev != pr.dst_dev]
            if remote:
                out[h] = tuple(
                    (sh, tuple((pr.src_shard, pr.dst_shard, pr.dst_dev,
                                pr.nbytes)
                               for pr in remote if host_of[pr.src_dev] == sh))
                    for sh in sorted({host_of[pr.src_dev] for pr in remote}))
        return out

    def drainers(e, pairs):
        """Every host with a pair, or a collective consumer's home host."""
        dst = p.nodes[e.dst]
        if isinstance(dst, ResultNode):
            return ()
        if dst.fn.collective and len(lp.placement[dst.id]) > 1:
            return (host_of[lp.placement[dst.id][0]],)
        return tuple(sorted({host_of[pr.dst_dev] for pr in pairs}))

    def chosts_by_src(pairs):
        return {s: tuple(sorted({host_of[pr.dst_dev] for pr in pairs
                                 if pr.src_shard == s}))
                for s in {pr.src_shard for pr in pairs}}

    def sends(pairs):
        """Source host -> (its shards with a remote pair, the consumer
        hosts that send it their addr rows)."""
        out = {}
        for pr in pairs:
            if pr.src_dev != pr.dst_dev:
                out.setdefault(host_of[pr.src_dev], []).append(pr)
        return {sh: (frozenset(pr.src_shard for pr in remote),
                     len({host_of[pr.dst_dev] for pr in remote}))
                for sh, remote in out.items()}

    edges = {edge_id(e.src, e.dst, e.dst_port):
             (pairs, inbound(pairs), drainers(e, pairs), chosts_by_src(pairs),
              sends(pairs), host_of[lp.placement[e.src][0]])
             for e, pairs in lowered}

    def refs(nid, port):
        """(refcount, client-held) of one output buffer."""
        rc, held = 0, False
        for e, pairs in lowered:
            if (e.src, e.src_port) != (nid, port):
                continue
            if isinstance(p.nodes[e.dst], ResultNode):
                held = True
            else:
                rc += len(drainers(e, pairs))
        return max(rc + held, 1), held

    args = {}
    for aid, a in p.nodes.items():
        if isinstance(a, ArgNode):
            args[aid] = (tuple((d, a.bytes_per_shard)
                               for d in lp.placement[aid]), *refs(aid, 0))
    creator = arg_consumers(p)
    nodes = {}
    for n in p.compute_nodes:
        devs = lp.placement[n.id]
        home = host_of[devs[0]]
        local = {}
        for s, d in enumerate(devs):
            local.setdefault(host_of[d], []).append(s)
        waits, sources, recv = {}, {}, {}
        for e, pairs in lowered:
            if e.dst != n.id:
                continue
            src = p.nodes[e.src]
            if not isinstance(src, ArgNode):
                waits[home] = waits.get(home, 0) + len(lp.placement[src.id])
                for h in local:
                    heard = {pr.src_shard for pr in pairs
                             if host_of[pr.dst_dev] == h}
                    if h != home and heard:
                        waits[h] = waits.get(h, 0) + len(heard)
            for pr in pairs:
                if pr.src_dev != pr.dst_dev:
                    sources.setdefault(pr.dst_dev, []).append(pr.src_dev)
                    recv[pr.dst_shard] = recv.get(pr.dst_shard, 0) + pr.nbytes
        hbm = {d: sum(n.fn.out_bytes) for d in devs}
        for s, nbytes in recv.items():
            hbm[devs[s]] += nbytes
        for aid, first in creator.items():
            if first == n.id:
                for d in lp.placement[aid]:
                    hbm[d] += p.nodes[aid].bytes_per_shard
        nodes[n.id] = {
            "in_edges": tuple(edge_id(e.src, e.dst, e.dst_port)
                              for e in p.edges if e.dst == n.id),
            "out_edges": tuple(edge_id(e.src, e.dst, e.dst_port)
                               for e in p.edges if e.src == n.id),
            "args_created": tuple(a for a in args if creator.get(a) == n.id),
            "local_shards": {h: tuple(ss) for h, ss in local.items()},
            "local_devices": {h: tuple(devs[s] for s in ss)
                              for h, ss in local.items()},
            "waits": waits,
            "input_sources": {d: tuple(v) for d, v in sources.items()},
            "recv_rows": {h: tuple((devs[s], recv.get(s, 0)) for s in ss)
                          for h, ss in local.items()
                          if any(recv.get(s) for s in ss)},
            "outputs": tuple((tuple((d, nb) for d in devs), *refs(n.id, port))
                             for port, nb in enumerate(n.fn.out_bytes)),
            "hbm_by_device": hbm}
    return edges, nodes, args


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
@pytest.mark.parametrize("case", ["pipeline", "gather", "fan"])
def test_shared_tables_match_a_naive_recompute_and_stay_unwritten(case, mode):
    if case == "pipeline":
        sys_ = System(small_cluster(hosts=1, devices_per_host=4, islands=2))
        prog = pipeline_program(8, 4, 100.0, islands=2)
        dmap, fail_us = sys_.allocate_for(prog), 3000
    elif case == "fan":
        sys_ = System(small_cluster(hosts=2, devices_per_host=2))
        prog = _fan_program()
        dmap, fail_us = sys_.allocate_for(prog), 2000
    else:
        sys_ = System(small_cluster(hosts=2, devices_per_host=2))
        (prog, dmap), fail_us = _gather_program(), 2400
    lp = lower(prog, dmap)
    info = sys_.register_program("p", lp)
    edges, nodes, args = _naive_tables(lp, sys_.cluster)
    assert list(info.edges) == list(edges)
    for eid, ei in info.edges.items():
        assert (ei.pairs, ei.inbound, ei.drainers, ei.chosts_by_src,
                ei.sends, ei.src_home) == edges[eid], eid
    # edges with equal pairs share one table
    by_shape = {}
    for ei in info.edges.values():
        tables = (ei.inbound, ei.drainers, ei.chosts_by_src, ei.sends)
        shared = by_shape.setdefault(ei.pairs, tables)
        assert all(a is b for a, b in zip(shared, tables))
    assert len(by_shape) < len(info.edges)
    made = {}      # handle -> (rows, refcount, client-held), at instance "x"
    for nid, ni in info.nodes.items():
        want = dict(nodes[nid])
        outputs = want.pop("outputs")
        assert {k: getattr(ni, k) for k in want} == want, nid
        assert {type(ni.in_edges), type(ni.out_edges),
                type(ni.args_created)} == {tuple}, nid
        makers = {*ni.hosts, *(info.args[a].home_host for a in ni.args_created)}
        for h in makers:
            made.update((b[0], b[1:]) for b in info.buffers("x", nid, h))
        assert tuple(made[info.out_handle("x", nid, port)]
                     for port in range(len(outputs))) == outputs, nid
    for aid, want in args.items():
        assert made[info.arg_handle("x", aid)] == want, aid
    # output and arg rows: one table per (placement, bytes per shard)
    for h, (rows, _rc, _held) in made.items():
        if not h.startswith("r."):
            assert rows is info.rows[tuple(d for d, _nb in rows), rows[0][1]]
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


def _two_source_program():
    # p's 2 shards sit on hosts 0 and 1; c's one shard, on host 2, gathers
    # both, so host 2 sends one addr to each source host
    t = Tracer()
    a = t.arg(2, KB)
    s2, s1 = t.virtual_slice([2]), t.virtual_slice([1])
    p = t.call(CompiledFunction("p", 2, (KB,), (KB,), 20.0), a, slice_id=s2)
    c = t.call(CompiledFunction("c", 1, (2 * KB,), (2 * KB,), 20.0), p,
               slice_id=s1)
    return t.finish([c]), {s2: (0, 2), s1: (4,)}


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_addr_sends_go_out_by_sorted_source_host(mode):
    prog, dmap = _two_source_program()
    sys_ = System(small_cluster(hosts=3, devices_per_host=2), record_log=True)
    sys_.register_program("p", lower(prog, dmap))
    sys_.start_job(sys_.add_client("c0"), StreamJob(
        sys_.new_job_id(), "p", count=1, mode=mode))
    assert sys_.run().status == "quiescent"
    sent = [(target, p["pairs"]) for _t, target, p in delivered(sys_, "addr")
            if p["from_host"] == 2]
    # (src shard, dst shard, dst device, bytes) per remote pair
    assert sent == [("host0", ((0, 0, 4, KB),)), ("host1", ((1, 0, 4, KB),))]


def test_every_channel_carries_one_latency(monkeypatch):
    # the simulator keeps nothing per channel: a (src, dst) pair stays in
    # order only because every message on it rides the same latency
    lats, kinds = {}, set()
    send, send_many = Simulator.send, Simulator.send_many

    def spy_send(self, src, dst, kind, payload=None, latency=0):
        lats.setdefault((src, dst), set()).add(latency)
        kinds.add(kind)
        return send(self, src, dst, kind, payload, latency)

    def spy_send_many(self, kind, sends, latency=0):
        for src, dst, _p in sends:
            lats.setdefault((src, dst), set()).add(latency)
        kinds.add(kind)
        return send_many(self, kind, sends, latency)

    monkeypatch.setattr(Simulator, "send", spy_send)
    monkeypatch.setattr(Simulator, "send_many", spy_send_many)
    prog, dmap = _two_source_program()
    chain = System(small_cluster(hosts=3, devices_per_host=2))
    chain.register_program("p", lower(prog, dmap))
    chain.start_job(chain.add_client("c0"), StreamJob(
        chain.new_job_id(), "p", count=2, mode="sequential"))
    auto, _c = small_chain("auto")
    handles, c = small_chain("parallel")
    handles.start_job(c, StreamJob(handles.new_job_id(), "chain", 3,
                                   window=2, trigger="handles"))
    failed = System(small_cluster(hosts=1, devices_per_host=1))
    failed.register_traced("g", one_gang_program(1, 50.0, collective=False))
    c = failed.add_client("c0")
    failed.start_job(c, StreamJob(failed.new_job_id(), "g", count=20,
                                  window=20))
    failed.fail_client(c, at_ns=us(700))
    pipe = System(small_cluster(hosts=1, devices_per_host=4, islands=2))
    pipe.register_traced("p", pipeline_program(4, 2, 50.0, islands=2))
    pipe.start_job(pipe.add_client("c0"), StreamJob(
        pipe.new_job_id(), "p", count=2, window=2))
    for sys_ in (chain, auto, handles, failed, pipe):
        assert sys_.run().status == "quiescent"
    assert kinds >= {"submit", "go", "handles", "enqueue_kernel",
                     "kernel_done", "edge_fut", "edge_dat", "addr", "drain",
                     "stage_ready", "result", "abort_kernel"}, kinds
    assert {chan: lat for chan, lat in lats.items() if len(lat) > 1} == {}


def _against_host_order_program(regular):
    # p's one shard, on host 0, feeds both shards of c; c's home host 2 is
    # numbered above its other consumer host 1. p runs long, so in parallel
    # mode both consumer hosts' addresses wait at host 0 when it ends
    t = Tracer()
    a = t.arg(1, 2 * KB)
    s1, s2 = t.virtual_slice([1]), t.virtual_slice([2])
    p = t.call(CompiledFunction("p", 1, (2 * KB,), (2 * KB,), 1000.0), a,
               slice_id=s1)
    c = t.call(CompiledFunction("c", 2, (KB,), (KB,), 20.0, regular=regular),
               p, slice_id=s2)
    return t.finish([c]), {s1: (0,), s2: (4, 2)}, c.node


def test_consumers_placed_against_host_order_run_the_same_twice(tmp_path):
    digests = {}
    for mode in ("parallel", "sequential", "auto"):
        logs = []
        for run in range(2):
            prog, dmap, consumer = _against_host_order_program(
                regular=(mode == "parallel"))
            sys_ = System(small_cluster(hosts=3, devices_per_host=2),
                          record_log=True)
            info = sys_.register_program("p", lower(prog, dmap))
            assert info.nodes[consumer].hosts == (1, 2)
            assert info.nodes[consumer].home_host == 2
            sys_.start_job(sys_.add_client("c0"), StreamJob(
                sys_.new_job_id(), "p", count=3, window=2, mode=mode))
            assert sys_.run().status == "quiescent", mode
            assert audit_leaks(sys_.cluster) == {}
            if mode != "parallel":      # the home host hears first
                assert [tgt for _t, tgt, _p in delivered(sys_, "edge_dat")
                        ][:2] == ["host2", "host1"]
            path = tmp_path / f"{mode}{run}.ndjson"
            sys_.sim.dump_event_log(str(path))
            logs.append(path.read_bytes())
            digests.setdefault(mode, set()).update(
                tuple(d) for d in sys_.inst_digests.values())
        assert logs[0] == logs[1], mode
    assert digests["parallel"] == digests["sequential"] == digests["auto"]
    assert len(digests["parallel"]) == 1


def _tenants():
    """Four weighted clients stream one-device gangs onto a device whose
    HBM fits two of them, so gangs park at the scheduler."""
    gang_bytes = KB + 64 * KB
    sys_ = System(small_cluster(hosts=1, devices_per_host=1,
                                hbm_bytes=2 * gang_bytes + 4 * KB),
                  policy=Policy(kind="proportional",
                                weights={"a": 1, "b": 2, "c": 4, "d": 8}))
    # as `register_traced` does, keeping the lowered program, which the
    # registered tables do not hold
    prog = one_gang_program(1, 50.0, out_kb=64, collective=False)
    lp = lower(prog, sys_.allocate_for(prog))
    sys_.register_program("g", lp)
    for name in "abcd":
        sys_.start_job(sys_.add_client(name), StreamJob(
            sys_.new_job_id(), "g", 12, window=3))
    assert sys_.run().status == "quiescent"
    return sys_, lp


def test_a_tenants_run_leaves_the_shared_hbm_asks_as_built():
    sys_, lp = _tenants()
    assert all(len(c.completed_at) == 12 for c in sys_.clients.values())
    info = sys_.programs["g"]
    fresh = build_program_info("g", lp, sys_.cluster)
    for nid, ni in info.nodes.items():
        assert ni.hbm_by_device == fresh.nodes[nid].hbm_by_device, nid
    assert audit_leaks(sys_.cluster) == {}


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_hosts_hold_only_unfinished_node_and_edge_state(monkeypatch, mode):
    # a cross-island pipeline, 8 stages on 2 hosts: after each kernel_done
    # a host keeps grant and prep marks only for nodes whose kernels there
    # have not all ended, and address state only for edges with a pair
    # still to launch from it
    sys_ = System(small_cluster(hosts=1, devices_per_host=4, islands=2))
    info = sys_.register_traced("p", pipeline_program(8, 32, 100.0,
                                                      islands=2))
    host_of = [d.host_id for d in sys_.cluster.devices]
    in_edge = {nid: ni.in_edges for nid, ni in info.nodes.items()}
    assert all(len(eids) == 1 for eids in in_edge.values())
    remote = Counter((eid, host_of[pr.src_dev])
                     for eid, ei in info.edges.items() for pr in ei.pairs
                     if pr.src_dev != pr.dst_dev)
    assert {h for _e, h in remote} == {0, 1}
    launched, held = Counter(), Counter()
    transfer, kernel_done = sys_.cluster.transfer, HostExecutor._on_kernel_done

    def count(src_dev, dst_dev, nbytes, instance, node, shard):
        launched[instance, in_edge[node][0], host_of[src_dev]] += 1
        return transfer(src_dev, dst_dev, nbytes, instance, node, shard)

    def check(self, payload):
        kernel_done(self, payload)
        h = self.host_id
        for inst, st in self.inst.items():
            for nid in st.ticket | set(st.prep):
                assert (st.kdone.get(nid, 0)
                        < len(info.nodes[nid].local_shards[h])), (inst, nid)
            for eid in set(st.src_done) | set(st.addr):
                assert launched[inst, eid, h] < remote[eid, h], (inst, eid)
            held["nodes"] += len(st.ticket) + len(st.prep)
            held["edges"] += len(st.src_done) + len(st.addr)

    monkeypatch.setattr(sys_.cluster, "transfer", count)
    monkeypatch.setattr(HostExecutor, "_on_kernel_done", check)
    c = sys_.add_client("c0")
    sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=2, window=2,
                                mode=mode))
    assert sys_.run().status == "quiescent"
    assert len(c.completed_at) == 2 and held["nodes"] and held["edges"]
    assert launched == Counter({(i, e, h): n for i in c.completed_at
                                for (e, h), n in remote.items()})


@pytest.mark.parametrize("mode", ["parallel", "sequential", "auto"])
def test_no_memory_retry_without_memory_pressure(mode):
    # the scheduler has no retry event at all: it hears only submits and
    # its own task completions
    sys_, _c = small_chain(mode, record_log=True)
    assert sys_.run().status == "quiescent"
    kinds = Counter(k for _t, _s, tgt, k, _p in sys_.sim.log
                    if tgt.startswith("sched"))
    assert set(kinds) == {"submit", "sched_task_done"}


def test_proportional_share_picks_past_a_head_on_a_parked_device():
    """A (device 0) writes 1 MB that B (device 1) reads; HBM fits two of
    each. Once a later A parks on device 0, the next A heads the client's
    queue on that blocked device, and only the B gangs queued behind it
    free A's outputs: the queue must offer its first gang on a free device,
    as FIFO does, or the run wedges after two completions."""
    t = Tracer()
    v = t.arg(shards=1, bytes_per_shard=KB)
    a = t.call(CompiledFunction("A", 1, (KB,), (MB,), 50), v)
    b = t.call(CompiledFunction("B", 1, (MB,), (KB,), 50), a)
    program = t.finish(results=[a, b])
    dispatched = {}
    for policy in (Policy(), Policy(kind="proportional", weights={"c0": 1})):
        sys_ = System(small_cluster(hosts=2, devices_per_host=1,
                                    hbm_bytes=2 * (MB + KB) + 512),
                      policy=policy, record_trace=False)
        info = sys_.register_traced("p", program)
        assert [info.nodes[n].devices for n in ("n1", "n2")] == [(0,), (1,)]
        c = sys_.add_client("c0")
        sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=8,
                                    window=4, mode="sequential"))
        res = sys_.run()
        assert res.status == "quiescent", res.blocked
        assert len(sys_.sim.completions) == 16
        dispatched[policy.kind] = sys_.scheds[0].dispatched
    assert dispatched["proportional"] == dispatched["fifo"]


def test_a_read_output_is_freed_only_after_its_readers_kernel_ends():
    """A (device 0) writes 1 MB that B (device 1, 1,000 us) reads over a
    transfer; device 0's HBM fits two of A's gangs. B's host drains the
    edge when B's kernel ends, not when the transfer lands, so each A
    output is freed after its instance's B kernel, and memory under
    pressure still comes back."""
    t = Tracer()
    v = t.arg(shards=1, bytes_per_shard=KB)
    a = t.call(CompiledFunction("A", 1, (KB,), (MB,), 50), v)
    b = t.call(CompiledFunction("B", 1, (MB,), (KB,), 1000), a)
    sys_ = System(small_cluster(hosts=2, devices_per_host=1,
                                hbm_bytes=2 * (MB + KB) + 512),
                  record_trace=True)
    info = sys_.register_traced("p", t.finish(results=[b]))
    assert [info.nodes[n].devices for n in ("n1", "n2")] == [(0,), (1,)]
    c = sys_.add_client("c0")
    job = StreamJob(sys_.new_job_id(), "p", count=8, window=4)
    sys_.start_job(c, job)
    res = sys_.run()
    assert res.status == "quiescent", res.blocked
    assert len(c.completed_at) == 8
    assert audit_leaks(sys_.cluster) == {}
    assert audit_no_double_free(sys_.audit) == []
    b_end = {r.instance: r.end_ns for r in sys_.sim.trace
             if r.category == "kernel" and r.name == "n2[0]"}
    freed = {h: t_ns for op, h, *_rest, t_ns in sys_.audit if op == "free"}
    assert sorted(b_end) == sorted(job.instances)
    for inst in job.instances:
        assert freed[info.out_handle(inst, "n1", 0)] > b_end[inst], inst


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
