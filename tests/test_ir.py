"""Tracing, resharding plans, lowering, serialization."""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpath import ir
from flowpath.bench import pipeline_program
from flowpath.config import MAX_DEVICES, small_cluster
from flowpath.hardware import Cluster
from flowpath.ir import (CompiledFunction, LowerError, ShardPair, TraceError,
                         Tracer, chain_program, deserialize, digest, lower,
                         plan_reshard, serialize, validate_regularity)
from flowpath.simcore import Simulator
from flowpath.tables import build_program_info


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


def test_hand_made_ref_to_a_port_its_node_lacks_is_undefined():
    t = Tracer()
    a = t.arg(4, 64)
    two = t.call(CompiledFunction("split", 4, (64,), (32, 32), 1.0), a)
    tid = a.tracer_id
    # a node of this trace without that output port, or no such node
    for ref in (ir.ValueRef(a.node, 1, tid), ir.ValueRef(two[0].node, 2, tid),
                ir.ValueRef(two[0].node, -1, tid), ir.ValueRef("n9", 0, tid)):
        with pytest.raises(TraceError, match=r"^undefined value ValueRef\("):
            t.call(fn(), ref)
        with pytest.raises(TraceError, match="undefined value"):
            t.result(ref)
    # a plain tuple of the same fields is no value ref
    with pytest.raises(TraceError, match="does not belong to this trace"):
        t.call(fn(), (a.node, 0, tid))
    t.call(fn(nbytes=32), ir.ValueRef(two[0].node, 1, tid))     # port 1 is


def test_shard_count_must_match_slice():
    t = Tracer()
    s = t.virtual_slice((8,))
    a = t.arg(4, 64)
    with pytest.raises(TraceError):
        t.call(fn(shards=4), a, slice_id=s)


@pytest.mark.parametrize("shape", [(-2, -2), (4, 1, -1, -1), (4, 0)])
def test_slice_dimension_below_one_rejected(shape):
    with pytest.raises(TraceError, match="a dimension is below 1"):
        Tracer().virtual_slice(shape)


def test_negative_duration_rejected():
    with pytest.raises(TraceError, match="negative duration"):
        CompiledFunction("f", 4, (64,), (64,), -1.0)


@pytest.mark.parametrize("us_", [float("nan"), float("inf")])
def test_non_finite_duration_rejected(us_):
    with pytest.raises(TraceError, match="f: "):
        CompiledFunction("f", 4, (64,), (64,), us_)


def test_duration_past_the_64_bit_clock_rejected():
    assert CompiledFunction("f", 4, (64,), (64,), 9.2e15).duration_ns < 2**63
    with pytest.raises(TraceError, match=r"f: duration .* 2\*\*63 ns"):
        CompiledFunction("f", 4, (64,), (64,), 2**63 / 1000)
    with pytest.raises(TraceError, match=r"f: duration 1e\+300 us"):
        CompiledFunction("f", 4, (64,), (64,), 1e300)


@pytest.mark.parametrize("count", [0, -3])
def test_apply_count_below_one_rejected(count):
    with pytest.raises(TraceError, match="f: apply_count must be >= 1"):
        fn(apply_count=count)


def test_arity_checked():
    t = Tracer()
    a = t.arg(4, 64)
    two_in = CompiledFunction("g", 4, (64, 64), (64,), 1.0)
    with pytest.raises(TraceError):
        t.call(two_in, a)


def test_a_rejected_call_leaves_the_trace_as_it_was():
    # the second input fails after the first passed: no edge, node id or
    # slice is left behind, so tracing goes on and the program lowers
    t = Tracer()
    a = t.arg(4, 64)
    two_in = CompiledFunction("g", 4, (64, 64), (64,), 1.0)
    with pytest.raises(TraceError, match="undefined value"):
        t.call(two_in, a, ir.ValueRef("n9", 0, a.tracer_id))
    with pytest.raises(TraceError, match="does not belong to this trace"):
        t.call(two_in, a, Tracer().arg(4, 64))
    p = t.finish([t.call(fn(nbytes=64), a)])
    assert list(p.nodes) == ["n0", "n1", "n2"] and list(p.slices) == ["s0"]
    assert p.edges == [("n0", "n1", 0, 0), ("n1", "n2", 0, 0)]
    assert lower(p, {"s0": (0, 1, 2, 3)}).placement["n1"] == (0, 1, 2, 3)


@pytest.mark.parametrize("shards", [0, MAX_DEVICES + 1, 10**30])
def test_arg_shards_out_of_range_rejected(shards):
    with pytest.raises(TraceError,
                       match=f"^arg n0: {shards} shards, not 1 to 65536$"):
        Tracer().arg(shards, 64)
    Tracer().arg(MAX_DEVICES, 64)


def test_empty_program_rejected():
    t = Tracer()
    t.arg(4, 64)
    with pytest.raises(TraceError):
        t.finish([])


def test_traced_result_returning_an_arg_rejected():
    t = Tracer()
    a = t.arg(4, 64)
    v = t.call(fn(), a)
    with pytest.raises(TraceError, match="result node n3 returns arg n0"):
        t.finish([v, a])


def test_finish_checks_only_what_tracing_cannot(monkeypatch):
    # call and result check each step, so finish skips the full graph check
    # and still rejects the two whole-program faults
    def no_full_check(p):
        raise AssertionError("finish ran the full graph check")

    monkeypatch.setattr(ir, "_validate_graph", no_full_check)
    t = Tracer()
    t.arg(4, 64)
    with pytest.raises(TraceError, match="no compute node"):
        t.finish([])
    t = Tracer()
    a = t.arg(4, 64)
    v = t.call(fn(), a)
    with pytest.raises(TraceError, match="result node n3 returns arg n0"):
        t.finish([v, a])
    t = Tracer()
    v = t.call(fn(), t.arg(4, 64))
    assert t.finish([v]).results == ["n2"]


@pytest.mark.parametrize("build", [
    lambda: pipeline_program(4, 3, 100.0, islands=2),
    lambda: chain_program([fn("a"), fn("b")]),
])
def test_traced_programs_pass_the_full_graph_check(build):
    ir._validate_graph(build())


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
    pairs = plan_reshard(2, 4 * mb, 4, 2 * mb)
    assert [(p.src_shard, p.dst_shard, p.nbytes) for p in pairs] == \
        [(0, 0, 2 * mb), (0, 1, 2 * mb), (1, 2, 2 * mb), (1, 3, 2 * mb)]


def test_gather_4_to_1():
    pairs = plan_reshard(4, 256, 1, 1024)
    assert sorted((p.src_shard, p.dst_shard, p.nbytes) for p in pairs) == \
        oracle_pairs(4, 256, 1, 1024)


def test_all_to_all_3_to_2():
    pairs = plan_reshard(3, 200, 2, 300)
    assert sorted((p.src_shard, p.dst_shard, p.nbytes) for p in pairs) == \
        oracle_pairs(3, 200, 2, 300)
    # middle source shard splits across both destinations
    assert (1, 0, 100) in [(p.src_shard, p.dst_shard, p.nbytes) for p in pairs]


def test_reshard_total_mismatch_raises():
    with pytest.raises(LowerError):
        plan_reshard(2, 100, 3, 100)


@given(st.integers(1, 16), st.integers(1, 64), st.integers(1, 16))
@settings(max_examples=120, deadline=None)
def test_reshard_pairs_match_interval_oracle(src, unit, dst):
    # pick sizes with a common total
    total = src * dst * unit
    pairs = plan_reshard(src, total // src, dst, total // dst)
    got = sorted((p.src_shard, p.dst_shard, p.nbytes) for p in pairs)
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


def _tables(p, dmap):
    """The program's tables, lowered onto the default small cluster."""
    return build_program_info("p", lower(p, dmap), make_cluster())


def test_lower_places_args_on_first_consumer():
    cl = make_cluster()
    p = chain_program([fn("a", shards=2), fn("b", shards=2)])
    lp = lower(p, {"s0": (0, 1), "s1": (4, 5)})
    assert lp.placement["n0"] == (0, 1)          # arg follows first consumer
    assert lp.placement["n1"] == (0, 1)
    assert lp.placement["n2"] == (4, 5)
    assert "n3" not in lp.placement              # the result is read in place


def test_lower_rejects_wrong_device_count():
    p = chain_program([fn("a", shards=2)])
    with pytest.raises(LowerError):
        lower(p, {"s0": (0, 1, 2)})
    with pytest.raises(LowerError, match="mapped twice"):
        lower(p, {"s0": (1, 1)})        # two devices, but one of them twice


def test_lower_computes_cross_device_pairs():
    # lower places the nodes; the program tables plan each edge's pairs
    p = chain_program([fn("a", shards=2), fn("b", shards=2)])
    edges = _tables(p, {"s0": (0, 1), "s1": (4, 5)}).edges
    ei = edges["n1->n2#0"]
    assert [(pr.src_dev, pr.dst_dev) for pr in ei.pairs] == [(0, 4), (1, 5)]
    assert sum(pr.nbytes for pr in ei.pairs if pr.src_dev != pr.dst_dev) == 2048
    assert edges["n2->n3#0"].pairs == ()         # results are read in place


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


# -- IR records ----------------------------------------------------------------

def _pipeline_and_map():
    p = pipeline_program(8, 4, 100.0, islands=2)
    return p, {sid: (i % 4,) for i, sid in enumerate(sorted(p.slices))}


def test_ir_records_are_immutable():
    p, dmap = _pipeline_and_map()
    ei = next(ei for ei in _tables(p, dmap).edges.values() if ei.pairs)
    t = Tracer()
    for record in (p.edges[0], ei.pairs[0], t.arg(1, 8)):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    with pytest.raises(TypeError):
        ei.pairs[0] = ei.pairs[0]


def test_lowering_twice_gives_equal_edges_and_one_pairs_tuple_per_shape():
    p, dmap = _pipeline_and_map()
    a, b = lower(p, dmap), lower(p, dmap)
    assert a.placement == b.placement and a.arg_consumers == b.arg_consumers
    edges = build_program_info("p", a, make_cluster()).edges
    assert edges == build_program_info("p", b, make_cluster()).edges
    shapes: dict[tuple, tuple] = {}
    for ei in edges.values():
        if not ei.pairs:
            continue
        # every pipeline node has one 1 KB shard, so its placements are
        # the shape of an edge
        pairs = shapes.setdefault(
            (a.placement[ei.src], a.placement[ei.dst]), ei.pairs)
        assert pairs is ei.pairs
    assert len(shapes) < sum(1 for ei in edges.values() if ei.pairs)


RECORDS = (ir.Edge, ir.ShardPair, ir.ValueRef)


def _signature(key, plain: bool):
    """A key's structure: each tuple labelled by its type, or, with plain,
    every record read as a plain tuple."""
    if isinstance(key, tuple):
        label = tuple if plain and isinstance(key, RECORDS) else type(key)
        return label, tuple(_signature(x, plain) for x in key)
    return type(key)


def _keyed_containers(root):
    """The keys of every dict and the members of every set reachable from
    root through dataclass fields, dicts, lists, tuples and sets."""
    seen, stack = set(), [root]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (str, int, float, type(None))):
            continue
        seen.add(id(x))
        if isinstance(x, dict):
            yield list(x)
            stack += [*x, *x.values()]
        elif isinstance(x, (set, frozenset)):
            yield list(x)
            stack += x
        elif isinstance(x, (list, tuple)):
            stack += x
        elif dataclasses.is_dataclass(x):
            stack += [getattr(x, f.name) for f in dataclasses.fields(x)]


def test_no_dict_or_set_mixes_records_with_plain_tuples():
    """A record equals the plain tuple of its fields, so a dict holding
    both could return one for the other: in no container reachable from a
    program's lowering and tables, after a run, may two keys differ only in
    a record standing where a plain tuple stands."""
    from flowpath.runtime import StreamJob, System
    p, _dmap = _pipeline_and_map()
    sys_ = System(small_cluster(hosts=1, devices_per_host=4, islands=2))
    info = sys_.register_traced("p", p)
    for mode in ("parallel", "sequential"):
        sys_.start_job(sys_.add_client(mode), StreamJob(
            sys_.new_job_id(), "p", count=2, mode=mode))
    assert sys_.run().status == "quiescent"

    def mixed(keys) -> bool:
        typed = {_signature(k, plain=False) for k in keys}
        return len({_signature(k, plain=True) for k in keys}) < len(typed)

    assert mixed([ir.ShardPair(0, 0, 8), (0, 1, 8, -1, -1)])
    assert not mixed([(0,), (0, 1), ((0,), 8)])
    containers = list(_keyed_containers(info))
    assert len(containers) > 50
    assert not any(mixed(keys) for keys in containers)
