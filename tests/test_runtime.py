"""Submission validation, dispatch planning, client jobs, the reference rate."""
import pytest

from flowpath.bench import reference_rate
from flowpath.config import CostModel, ValidationError, small_cluster
from flowpath.ir import CompiledFunction, Tracer, chain_program
from flowpath.runtime import StreamJob, System, steady_rate
from flowpath.simcore import us
from flowpath.store import audit_leaks, audit_no_double_free

MB = 1 << 20


def fn(name="f0", shards=1, t=100.0, **kw):
    return CompiledFunction(name, shards, (MB,), (MB,), t, **kw)


def make_system(**kw):
    # the failure tests count the kernels that ran in the trace
    sys_ = System(small_cluster(**{"hosts": 1, "devices_per_host": 1, **kw}),
                  record_trace=True)
    return sys_, sys_.add_client("c0")


# -- submission validation -------------------------------------------------

def test_unknown_mode_rejected():
    sys_, c = make_system()
    sys_.register_traced("p", chain_program([fn()]))
    for _ in range(2):     # a failed plan is not cached
        with pytest.raises(ValidationError, match="unknown dispatch mode"):
            c.submit("p", mode="eager")


def test_parallel_rejects_data_dependent_nodes():
    sys_, c = make_system()
    sys_.register_traced("p", chain_program([fn(), fn("dyn", regular=False)]))
    for _ in range(2):
        with pytest.raises(ValidationError, match="data-dependent"):
            c.submit("p", mode="parallel")


def test_plan_is_made_once_per_program_and_mode():
    sys_, c = make_system()
    sys_.register_traced("p", chain_program([fn(), fn("g")]))
    a, b = (c.submit("p") for _ in range(2))
    seq = c.submit("p", mode="sequential")
    assert sys_.instances[a].modes is sys_.instances[b].modes
    assert sys_.instances[seq].modes is not sys_.instances[a].modes


# -- dispatch planning -----------------------------------------------------

def irregular_sandwich(sys_):
    t = Tracer()
    a = t.arg(shards=1, bytes_per_shard=MB)
    v = t.call(fn("pre"), a)
    v = t.call(fn("dyn", regular=False), v)
    v = t.call(fn("post"), v)
    return sys_.register_traced("p", t.finish(results=[v]))


def test_parallel_plan_is_one_stage_of_scheduled_gangs():
    sys_, _ = make_system()
    info = sys_.register_traced("p", chain_program([fn("a"), fn("b")]))
    modes, stages, triggers = sys_._plan(info, "parallel")
    assert modes == {"n1": "go", "n2": "go"}
    assert stages == [["n1", "n2"]] and triggers == [set()]


def test_sequential_plan_gates_downstream_nodes_on_futures():
    sys_, _ = make_system()
    info = irregular_sandwich(sys_)
    modes, stages, triggers = sys_._plan(info, "sequential")
    assert modes == {"n1": "go", "n2": "dat", "n3": "fut"}
    assert stages == [["n1"]]


def test_auto_plan_splits_stages_at_irregular_nodes():
    sys_, _ = make_system()
    info = irregular_sandwich(sys_)
    modes, stages, triggers = sys_._plan(info, "auto")
    assert modes == {"n1": "go", "n2": "dat", "n3": "go"}
    assert stages == [["n1"], ["n3"]]
    assert triggers == [set(), {"n2"}]


def test_auto_runs_irregular_programs_to_the_same_answer():
    out = {}
    for mode in ("sequential", "auto"):
        sys_, c = make_system()
        irregular_sandwich(sys_)
        job = StreamJob(sys_.new_job_id(), "p", count=1, mode=mode)
        sys_.start_job(c, job)
        stats = sys_.run()
        assert stats.status == "quiescent", stats.blocked
        assert job.done
        out[mode] = sys_.inst_digests["i1"]
    assert out["sequential"] == out["auto"]


def test_auto_submits_a_stage_whose_trigger_reported_first():
    # stage 2 waits on d2, stage 1 on d1; d2 reads only a and reports long
    # before d1, which also waits on the slow s
    out = {}
    for mode in ("sequential", "auto"):
        sys_, c = make_system(devices_per_host=2)
        t = Tracer()
        x = t.arg(2, MB)
        a = t.call(fn("a", 2, 10.0), x)
        s = t.call(fn("s", 2, 500.0), x)
        d1 = t.call(CompiledFunction("d1", 2, (MB, MB), (MB,), 10.0,
                                     regular=False), a, s)
        b = t.call(fn("b", 2, 10.0), d1)
        d2 = t.call(fn("d2", 2, 10.0, regular=False), a)
        c2 = t.call(fn("c", 2, 10.0), d2)
        info = sys_.register_traced("p", t.finish(results=[b, c2]))
        if mode == "auto":
            assert sys_._plan(info, mode)[2] == [set(), {"n3"}, {"n5"}]
        sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", 1, mode=mode))
        stats = sys_.run()
        assert stats.status == "quiescent", stats.blocked
        out[mode] = sys_.inst_digests["i1"]
    assert out["sequential"] == out["auto"]


# -- client jobs -----------------------------------------------------------

def test_handles_trigger_submits_at_grant_time():
    sys_, c = make_system()
    sys_.register_traced("p", chain_program([fn(t=100)]))
    job = StreamJob(sys_.new_job_id(), "p", count=3, trigger="handles")
    sys_.start_job(c, job)
    assert sys_.run().status == "quiescent"
    # grant at 510 + go/handles sends 10 + client rpc 500 = 1020 per round
    assert [c.submitted_at[i] for i in job.instances] == [0, us(1020),
                                                          us(2040)]
    assert job.done and job.completed == 3


def test_complete_trigger_submits_at_completion_time():
    sys_, c = make_system()
    sys_.register_traced("p", chain_program([fn(t=100)]))
    job = StreamJob(sys_.new_job_id(), "p", count=3)
    sys_.start_job(c, job)
    assert sys_.run().status == "quiescent"
    # full round trip: 580 to the device, 100 on it, 505 back
    assert [c.submitted_at[i] for i in job.instances] == [0, us(1185),
                                                          us(2370)]


def test_window_keeps_that_many_instances_in_flight():
    sys_, c = make_system()
    sys_.register_traced("p", chain_program([fn(t=100)]))
    job = StreamJob(sys_.new_job_id(), "p", count=4, window=2)
    sys_.start_job(c, job)
    assert sys_.run().status == "quiescent"
    t = [c.submitted_at[i] for i in job.instances]
    assert t[0] == t[1] == 0
    assert t[2] == us(1185)               # first completion refills the window
    assert t[3] == us(1285)               # second kernel ran 100us later
    assert audit_leaks(sys_.cluster) == {}


def test_client_dead_before_dispatch_runs_nothing():
    sys_, c = make_system()
    sys_.register_traced("p", chain_program([fn(t=100)]))
    job = StreamJob(sys_.new_job_id(), "p", count=2)
    sys_.start_job(c, job)
    sys_.fail_client(c, at_ns=us(100), detect_ns=us(100))
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    assert c.dead and not job.done
    assert c.failed == set(job.instances)
    assert [t for t in sys_.sim.trace if t.category == "kernel"] == []
    assert "c0" in sys_.scheds[0]._dead_clients
    assert audit_no_double_free(sys_.audit) == []
    assert audit_leaks(sys_.cluster) == {}


def test_failure_detection_lag_lets_inflight_work_finish():
    sys_, c = make_system()
    sys_.register_traced("p", chain_program([fn(t=100)]))
    job = StreamJob(sys_.new_job_id(), "p", count=2)
    sys_.start_job(c, job)
    # dies right after the grant; the fleet only learns at 700, by which
    # time the kernel is on the device and runs to completion
    sys_.fail_client(c, at_ns=us(520), detect_ns=us(180))
    stats = sys_.run()
    assert stats.status == "quiescent", stats.blocked
    spans = [t for t in sys_.sim.trace if t.category == "kernel"]
    assert len(spans) == 1
    assert audit_no_double_free(sys_.audit) == []
    assert audit_leaks(sys_.cluster) == {}


def test_state_left_behind_is_no_quiescent_run():
    sys_, c = make_system()
    sys_.register_traced("p", chain_program([fn(t=100)]))
    job = StreamJob(sys_.new_job_id(), "p", count=1)
    sys_.start_job(c, job)
    assert sys_.run().status == "quiescent"
    (inst,) = job.instances
    dev, host = sys_.cluster.device(0), sys_.hosts[0]
    dev.hbm_try_take(4096)                       # bytes nobody gives back
    dev._arrivals[(inst, "n9")] = 1              # an input no kernel reads
    host.tracker.expect(inst, "n9", 2)           # a node that never fires
    host.install(sys_.instances[inst])           # an instance never dropped
    stats = sys_.run()
    assert stats.status == "deadlock"
    assert stats.blocked == [
        "dev0: stray inputs landed for 1 nodes",
        "dev0: 4096 HBM bytes leaked",
        f"host0: {inst}: 2 local kernels, addr and drain messages still to "
        "come",
        "host0: readiness state of 1 nodes left behind"]


def test_default_system_keeps_no_trace():
    sys_ = System(small_cluster(hosts=2, devices_per_host=2))
    sys_.register_traced("p", chain_program([fn(shards=4), fn("f1", 4)]))
    job = StreamJob(sys_.new_job_id(), "p", count=3, window=2)
    sys_.start_job(sys_.add_client("c0"), job)
    assert sys_.run().status == "quiescent"
    assert job.done and len(sys_.sim.completions) == 6
    assert sys_.sim.trace == []


# -- measurement helpers ---------------------------------------------------

def test_steady_rate_of_uniform_series():
    series = [(us(10) * (i + 1), 1) for i in range(100)]
    assert steady_rate(series) == pytest.approx(1e5)


def test_steady_rate_needs_enough_points():
    with pytest.raises(ValueError, match="not enough"):
        steady_rate([(1, 1), (2, 1), (3, 1)])


def test_steady_rate_rejects_degenerate_window():
    with pytest.raises(ValueError, match="degenerate"):
        steady_rate([(us(5), 1)] * 50)


# -- coordinator-free reference --------------------------------------------

def test_reference_rate_is_duration_bound():
    # 50us kernels outlast the 4 x 5us enqueue loop of a 4-device host
    spec = small_cluster(hosts=2, devices_per_host=4)
    assert reference_rate(spec, 50) == 20000.0


def test_reference_rate_is_pcie_bound():
    # 5us kernels wait on the host: 4 enqueues of 5us per computation
    spec = small_cluster(hosts=2, devices_per_host=4)
    assert reference_rate(spec, 5) == 1e9 / us(20) == 50000.0


def test_reference_rate_ties_at_enqueue_occupancy():
    spec = small_cluster(hosts=3, devices_per_host=4)
    tie = CostModel().pcie_enqueue_ns * 4 // 1000
    assert reference_rate(spec, tie) == reference_rate(spec, tie - 1) \
        == 1e9 / us(tie)
    assert reference_rate(spec, tie + 1) == 1e9 / us(tie + 1)
