"""Tracing, resharding plans, lowering, serialization."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpath.config import small_cluster
from flowpath.hardware import Cluster
from flowpath.ir import (CompiledFunction, LowerError, ShardPair, TraceError,
                         Tracer, chain_program, deserialize, digest, lower,
                         plan_reshard, serialize, validate_regularity)
from flowpath.simcore import Simulator


def fn(name="f", shards=4, nbytes=1024, us_=10.0, **kw):
    return CompiledFunction(name, shards, (nbytes,), (nbytes,), us_, **kw)


# -- graph compactness -------------------------------------------------------
# The dataflow graph must grow with the program, not with the sharding: a
# 2-computation chain at 1024 shards is arg + 2 computes + result = 4 nodes.

def test_two_computation_chain_is_four_nodes_at_1024_shards():
    t = Tracer()
    a = t.arg(shards=1024, bytes_per_shard=1024)
    v = t.call(fn("f1", shards=1024), a)
    v = t.call(fn("f2", shards=1024), v)
    p = t.finish([v])
    assert len(p.nodes) == 4


@given(st.integers(1, 4096), st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_chain_node_count_independent_of_shards(n_shards, k):
    t = Tracer()
    v = t.arg(shards=n_shards, bytes_per_shard=64)
    for i in range(k):
        v = t.call(fn(f"f{i}", shards=n_shards), v)
    p = t.finish([v])
    assert len(p.nodes) == k + 2
    assert len(p.edges) == k + 1


# -- tracer validation -------------------------------------------------------

def test_foreign_value_ref_rejected():
    t1, t2 = Tracer(), Tracer()
    a = t1.arg(4, 64)
    with pytest.raises(TraceError):
        t2.call(fn(), a)


def test_shard_count_must_match_slice():
    t = Tracer()
    s = t.virtual_slice((8,))
    a = t.arg(4, 64)
    with pytest.raises(TraceError):
        t.call(fn(shards=4), a, slice_id=s)


def test_arity_checked():
    t = Tracer()
    a = t.arg(4, 64)
    two_in = CompiledFunction("g", 4, (64, 64), (64,), 1.0)
    with pytest.raises(TraceError):
        t.call(two_in, a)


def test_empty_program_rejected():
    t = Tracer()
    t.arg(4, 64)
    with pytest.raises(TraceError):
        t.finish([])


def test_finished_tracer_is_closed():
    t = Tracer()
    v = t.call(fn(), t.arg(4, 64))
    t.finish([v])
    with pytest.raises(TraceError):
        t.arg(4, 64)


def test_validate_regularity_flags_data_dependent_nodes():
    t = Tracer()
    v = t.call(fn("a"), t.arg(4, 64))
    v = t.call(fn("b", regular=False), v)
    p = t.finish([v])
    rep = validate_regularity(p)
    assert not rep.all_regular
    assert rep.irregular == ["n2"]


# -- resharding oracle -------------------------------------------------------
# Independent interval arithmetic: destination shard j covers bytes
# [j*db, (j+1)*db); the pair list must be exactly the nonempty overlaps with
# source blocks [i*sb, (i+1)*sb).

def oracle_pairs(src, sb, dst, db):
    out = []
    for j in range(dst):
        for i in range(src):
            lo = max(j * db, i * sb)
            hi = min((j + 1) * db, (i + 1) * sb)
            if hi > lo:
                out.append((i, j, hi - lo))
    return sorted(out)


def test_scatter_2_to_4_of_8mb():
    mb = 2 ** 20
    spec = plan_reshard(2, 4 * mb, 4, 2 * mb)
    assert spec.mapping == "scatter"
    assert [(p.src_shard, p.dst_shard, p.nbytes) for p in spec.pairs] == \
        [(0, 0, 2 * mb), (0, 1, 2 * mb), (1, 2, 2 * mb), (1, 3, 2 * mb)]


def test_gather_4_to_1():
    spec = plan_reshard(4, 256, 1, 1024)
    assert spec.mapping == "gather"
    assert sorted((p.src_shard, p.dst_shard, p.nbytes) for p in spec.pairs) == \
        oracle_pairs(4, 256, 1, 1024)


def test_all_to_all_3_to_2():
    spec = plan_reshard(3, 200, 2, 300)
    assert spec.mapping == "all_to_all"
    assert sorted((p.src_shard, p.dst_shard, p.nbytes) for p in spec.pairs) == \
        oracle_pairs(3, 200, 2, 300)
    # middle source shard splits across both destinations
    assert (1, 0, 100) in [(p.src_shard, p.dst_shard, p.nbytes) for p in spec.pairs]


def test_reshard_total_mismatch_raises():
    with pytest.raises(LowerError):
        plan_reshard(2, 100, 3, 100)


@given(st.integers(1, 16), st.integers(1, 64), st.integers(1, 16))
@settings(max_examples=120, deadline=None)
def test_reshard_pairs_match_interval_oracle(src, unit, dst):
    # pick sizes with a common total
    total = src * dst * unit
    spec = plan_reshard(src, total // src, dst, total // dst)
    got = sorted((p.src_shard, p.dst_shard, p.nbytes) for p in spec.pairs)
    assert got == oracle_pairs(src, total // src, dst, total // dst)
    # conservation: every destination shard receives exactly its size
    per_dst = {}
    for _i, j, b in got:
        per_dst[j] = per_dst.get(j, 0) + b
    assert per_dst == {j: total // dst for j in range(dst)}


# -- lowering ----------------------------------------------------------------

def make_cluster():
    sim = Simulator()
    return Cluster(sim, small_cluster())


def test_lower_places_args_on_first_consumer():
    cl = make_cluster()
    p = chain_program([fn("a", shards=2), fn("b", shards=2)])
    lp = lower(p, {"s0": (0, 1), "s1": (4, 5)})
    assert lp.placement["n0"] == (0, 1)          # arg follows first consumer
    assert lp.placement["n1"] == (0, 1)
    assert lp.placement["n2"] == (4, 5)
    assert lp.placement["n3"] == (4, 5)          # result mirrors producer


def test_lower_rejects_wrong_device_count():
    p = chain_program([fn("a", shards=2)])
    with pytest.raises(LowerError):
        lower(p, {"s0": (0, 1, 2)})


def test_lower_computes_cross_device_pairs():
    p = chain_program([fn("a", shards=2), fn("b", shards=2)])
    lp = lower(p, {"s0": (0, 1), "s1": (4, 5)})
    le = next(e for e in lp.edges if e.edge.src == "n1" and e.edge.dst == "n2")
    assert [(pr.src_dev, pr.dst_dev) for pr in le.reshard.pairs] == \
        [(0, 4), (1, 5)]
    assert le.reshard.transfer_bytes == 2048


def test_all_devices_sorted_union():
    p = chain_program([fn("a", shards=2), fn("b", shards=2)])
    lp = lower(p, {"s0": (5, 1), "s1": (0, 3)})
    assert lp.all_devices() == (0, 1, 3, 5)


# -- serialization -----------------------------------------------------------

def test_round_trip_preserves_digest_and_shape():
    p = chain_program([fn("a"), fn("b", us_=3.5, regular=False)])
    text = serialize(p)
    q = deserialize(text)
    assert digest(q) == digest(p)
    assert len(q.nodes) == len(p.nodes)
    assert serialize(q) == text
    qa = q.node("n2")
    assert qa.fn.us_per_shard == 3.5 and qa.fn.regular is False


def test_deserialize_rejects_bad_json():
    with pytest.raises(TraceError):
        deserialize("{nope")


def test_digest_distinguishes_programs():
    p1 = chain_program([fn("a")])
    p2 = chain_program([fn("b")])
    assert digest(p1) != digest(p2)


def test_multi_output_functions_trace_per_port():
    t = Tracer()
    two_out = CompiledFunction("split", 2, (64,), (32, 32), 1.0)
    a = t.arg(2, 64)
    left, right = t.call(two_out, a)
    s = CompiledFunction("join", 2, (32, 32), (64,), 1.0)
    v = t.call(s, left, right)
    p = t.finish([v])
    assert len(p.nodes) == 4
    ports = sorted((e.src_port, e.dst_port) for e in p.edges
                   if e.dst == v.node)
    assert ports == [(0, 0), (1, 1)]
