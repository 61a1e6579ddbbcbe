"""Sparse progress tracking on the host-gated (sequential, auto) path.

A producer host sends its edge updates only to the consumer hosts its
reshard pairs feed, plus the consumer node's home host, so control traffic
grows with pairs and hosts, not with hosts squared. Generated reshard edges
check that this keeps the run's invariants.
"""
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowpath import (CompiledFunction, StreamJob, System, chain_program,
                      small_cluster)
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


def run_reshard_chain(src: int, dst: int, total: int, hosts: int, dph: int,
                      mode: str) -> System:
    """head (src shards) -> mid (dst shards) -> tail (src shards)."""
    a, b = total // src, total // dst
    fns = [CompiledFunction("head", src, (a,), (a,), 20.0),
           CompiledFunction("mid", dst, (b,), (b,), 30.0,
                            regular=(mode == "parallel")),
           CompiledFunction("tail", src, (a,), (a,), 25.0)]
    system = System(small_cluster(hosts=hosts, devices_per_host=dph),
                    record_trace=False)
    system.register_traced("chain", chain_program(fns))
    system.start_job(system.add_client("c0"), StreamJob(
        system.new_job_id(), "chain", 2, window=2, mode=mode))
    assert system.run().status == "quiescent"
    return system


@settings(max_examples=40, deadline=None)
@given(src=st.integers(1, 4), dst=st.integers(1, 4),
       total=st.sampled_from(TOTALS), hosts=st.integers(1, 4),
       dph=st.integers(1, 2), mode=st.sampled_from(["sequential", "auto"]))
def test_host_gated_reshard_edges_keep_invariants(src, dst, total, hosts, dph,
                                                   mode):
    # identity (src == dst), gather, scatter and all-to-all edges, each
    # spread over as many hosts as the cluster allows
    assume(max(src, dst) <= hosts * dph)
    ref = run_reshard_chain(src, dst, total, hosts, dph, "parallel")
    system = run_reshard_chain(src, dst, total, hosts, dph, mode)
    assert audit_leaks(system.cluster) == {}
    assert audit_no_double_free(system.audit) == []
    assert system.inst_digests == ref.inst_digests
    assert [h.tracker.pending_count() for h in system.hosts.values()] == \
        [0] * len(system.hosts)
