"""Dataflow program representation.

A traced program is a compact DAG: one Arg node per program input, one
Compute node per call (regardless of how many shards the call runs on), one
Result node per returned value. Lowering binds Compute nodes to physical
devices and attaches a resharding spec to every edge; it is a pure function
of (program, device map).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

from .simcore import us


class TraceError(Exception):
    pass


class LowerError(Exception):
    pass


@dataclass(frozen=True)
class CompiledFunction:
    """A compiled, shardable function with statically declared specs.

    in_bytes / out_bytes are per-shard sizes, one entry per input/output
    port. regular means every spec is known before any input is produced;
    irregular functions force sequential dispatch at their boundary.
    apply_count folds the same logical unit several times in one kernel
    (a fused chain), so content digests line up across execution modes.
    """

    name: str
    shard_count: int
    in_bytes: tuple[int, ...]
    out_bytes: tuple[int, ...]
    us_per_shard: float
    regular: bool = True
    collective: bool = False
    in_layouts: tuple[str, ...] = ()
    out_layouts: tuple[str, ...] = ()
    apply_count: int = 1

    def __post_init__(self):
        if self.shard_count < 1:
            raise TraceError(f"{self.name}: shard_count must be >= 1")
        if any(b < 0 for b in self.in_bytes + self.out_bytes):
            raise TraceError(f"{self.name}: negative byte size")
        if not self.in_layouts:
            object.__setattr__(self, "in_layouts", ("row",) * len(self.in_bytes))
        if not self.out_layouts:
            object.__setattr__(self, "out_layouts", ("row",) * len(self.out_bytes))
        if len(self.in_layouts) != len(self.in_bytes):
            raise TraceError(f"{self.name}: in_layouts/in_bytes length mismatch")
        if len(self.out_layouts) != len(self.out_bytes):
            raise TraceError(f"{self.name}: out_layouts/out_bytes length mismatch")

    @property
    def duration_ns(self) -> int:
        return us(self.us_per_shard)


@dataclass(frozen=True)
class ValueRef:
    """Opaque handle to one output of a traced node."""

    node: str
    port: int
    tracer_id: int


@dataclass(frozen=True)
class SliceRequirement:
    shape: tuple[int, ...]
    island: int | None = None

    @property
    def device_count(self) -> int:
        return math.prod(self.shape)


@dataclass
class ArgNode:
    id: str
    shards: int
    bytes_per_shard: int
    layout: str = "row"
    handle: str | None = None   # bind to an existing store handle
    kind: str = "arg"


@dataclass
class ComputeNode:
    id: str
    fn: CompiledFunction
    slice_id: str
    kind: str = "compute"


@dataclass
class ResultNode:
    id: str
    kind: str = "result"


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    src_port: int = 0
    dst_port: int = 0


@dataclass(frozen=True)
class ShardPair:
    src_shard: int
    dst_shard: int
    nbytes: int
    src_dev: int = -1
    dst_dev: int = -1


@dataclass(frozen=True)
class ReshardingSpec:
    """Block redistribution of a 1-D logical byte range from M to N shards."""

    mapping: str                     # one_to_one | scatter | gather | all_to_all
    src_shards: int
    dst_shards: int
    logical_bytes: int
    pairs: tuple[ShardPair, ...]

    @property
    def transfer_bytes(self) -> int:
        """Bytes that actually cross devices."""
        return sum(p.nbytes for p in self.pairs if p.src_dev != p.dst_dev)


def plan_reshard(src_shards: int, src_bytes_per_shard: int,
                 dst_shards: int, dst_bytes_per_shard: int,
                 src_layout: str = "row", dst_layout: str = "row") -> ReshardingSpec:
    """Compute the contiguous-block overlap pairs between two shardings."""
    total = src_shards * src_bytes_per_shard
    if total != dst_shards * dst_bytes_per_shard:
        raise LowerError(
            f"resharding mismatch: {src_shards}x{src_bytes_per_shard} != "
            f"{dst_shards}x{dst_bytes_per_shard} total bytes")
    pairs = []
    if total > 0:
        for j in range(dst_shards):
            lo = j * dst_bytes_per_shard
            hi = lo + dst_bytes_per_shard
            i0 = lo // src_bytes_per_shard
            i1 = (hi - 1) // src_bytes_per_shard
            for i in range(i0, i1 + 1):
                s_lo = i * src_bytes_per_shard
                s_hi = s_lo + src_bytes_per_shard
                overlap = min(hi, s_hi) - max(lo, s_lo)
                if overlap > 0:
                    pairs.append(ShardPair(i, j, overlap))
    if src_shards == dst_shards and src_layout == dst_layout:
        mapping = "one_to_one"
    elif dst_shards > src_shards and dst_shards % src_shards == 0:
        mapping = "scatter"
    elif src_shards > dst_shards and src_shards % dst_shards == 0:
        mapping = "gather"
    else:
        mapping = "all_to_all"
    return ReshardingSpec(mapping, src_shards, dst_shards, total, tuple(pairs))


@dataclass
class TracedProgram:
    nodes: dict[str, object]             # id -> ArgNode | ComputeNode | ResultNode
    edges: list[Edge]
    results: list[str]                   # Result node ids, in return order
    slices: dict[str, SliceRequirement]

    @property
    def compute_nodes(self) -> list[ComputeNode]:
        return [n for n in self.nodes.values() if isinstance(n, ComputeNode)]

    def node(self, nid: str):
        return self.nodes[nid]

    def in_edges(self, nid: str) -> list[Edge]:
        return [e for e in self.edges if e.dst == nid]


class Tracer:
    """Builds a TracedProgram call by call.

    Values are opaque ValueRefs; using a ref from another tracer, or
    finishing with no calls, is a trace error. Node ids record trace order,
    which is by construction a topological order.
    """

    _ids = 0

    def __init__(self):
        Tracer._ids += 1
        self._tid = Tracer._ids
        self._nodes: dict[str, object] = {}
        self._edges: list[Edge] = []
        self._slices: dict[str, SliceRequirement] = {}
        self._producers: dict[tuple[str, int], tuple[int, str]] = {}
        self._results: list[ValueRef] = []
        self._n = 0
        self._finished = False

    def _next(self, prefix: str) -> str:
        nid = f"{prefix}{self._n}"
        self._n += 1
        return nid

    def virtual_slice(self, shape: list[int] | tuple[int, ...],
                      island: int | None = None) -> str:
        sid = f"s{len(self._slices)}"
        self._slices[sid] = SliceRequirement(tuple(shape), island)
        return sid

    def arg(self, shards: int, bytes_per_shard: int, layout: str = "row",
            handle: str | None = None) -> ValueRef:
        self._check_open()
        nid = self._next("n")
        self._nodes[nid] = ArgNode(nid, shards, bytes_per_shard, layout, handle)
        self._producers[(nid, 0)] = (shards, layout)
        return ValueRef(nid, 0, self._tid)

    def call(self, fn: CompiledFunction, *inputs: ValueRef,
             slice_id: str | None = None) -> ValueRef | tuple[ValueRef, ...]:
        self._check_open()
        if len(inputs) != len(fn.in_bytes):
            raise TraceError(
                f"{fn.name}: expected {len(fn.in_bytes)} inputs, got {len(inputs)}")
        if slice_id is None:
            slice_id = self.virtual_slice([fn.shard_count])
        req = self._slices.get(slice_id)
        if req is None:
            raise TraceError(f"unknown slice {slice_id!r}")
        if req.device_count != fn.shard_count:
            raise TraceError(
                f"{fn.name}: shard_count {fn.shard_count} does not match slice "
                f"{slice_id} with {req.device_count} devices")
        nid = self._next("n")
        for port, ref in enumerate(inputs):
            self._check_ref(ref)
            self._edges.append(Edge(ref.node, nid, ref.port, port))
        self._nodes[nid] = ComputeNode(nid, fn, slice_id)
        for p in range(len(fn.out_bytes)):
            self._producers[(nid, p)] = (fn.shard_count, fn.out_layouts[p])
        if len(fn.out_bytes) == 1:
            return ValueRef(nid, 0, self._tid)
        return tuple(ValueRef(nid, p, self._tid) for p in range(len(fn.out_bytes)))

    def result(self, ref: ValueRef) -> None:
        self._check_open()
        self._check_ref(ref)
        self._results.append(ref)

    def finish(self, results: list[ValueRef] | None = None) -> TracedProgram:
        self._check_open()
        if results:
            for r in results:
                self.result(r)
        if not any(isinstance(n, ComputeNode) for n in self._nodes.values()):
            raise TraceError("empty program: no calls traced")
        for ref in self._results:
            nid = self._next("n")
            self._nodes[nid] = ResultNode(nid)
            self._edges.append(Edge(ref.node, nid, ref.port, 0))
        self._finished = True
        return TracedProgram(
            nodes=self._nodes, edges=self._edges,
            results=[n.id for n in self._nodes.values()
                     if isinstance(n, ResultNode)],
            slices=self._slices)

    def _check_open(self):
        if self._finished:
            raise TraceError("tracer already finished")

    def _check_ref(self, ref: ValueRef):
        if not isinstance(ref, ValueRef) or ref.tracer_id != self._tid:
            raise TraceError(f"value {ref!r} does not belong to this trace")
        if (ref.node, ref.port) not in self._producers:
            raise TraceError(f"undefined value {ref!r}")


@dataclass
class RegularityReport:
    all_regular: bool
    irregular: list[str]


def validate_regularity(p: TracedProgram) -> RegularityReport:
    bad = [n.id for n in p.compute_nodes if not n.fn.regular]
    return RegularityReport(all_regular=not bad, irregular=bad)


# -- lowering ---------------------------------------------------------------

@dataclass(frozen=True)
class LoweredEdge:
    edge: Edge
    reshard: ReshardingSpec


@dataclass
class LoweredProgram:
    program: TracedProgram
    placement: dict[str, tuple[int, ...]]    # node id -> devices, shard order
    edges: list[LoweredEdge]
    device_map: dict[str, tuple[int, ...]]   # slice id -> devices

    def all_devices(self) -> tuple[int, ...]:
        seen = {d for devs in self.placement.values() for d in devs}
        return tuple(sorted(seen))


def _shard_geometry(p: TracedProgram, placement: dict[str, tuple[int, ...]],
                    nid: str, port: int, side: str) -> tuple[int, int, str, tuple[int, ...]]:
    """(shards, bytes_per_shard, layout, devices) for one side of an edge."""
    n = p.node(nid)
    if isinstance(n, ArgNode):
        return n.shards, n.bytes_per_shard, n.layout, placement[nid]
    assert isinstance(n, ComputeNode)
    fn = n.fn
    if side == "out":
        return fn.shard_count, fn.out_bytes[port], fn.out_layouts[port], placement[nid]
    return fn.shard_count, fn.in_bytes[port], fn.in_layouts[port], placement[nid]


def lower(p: TracedProgram,
          device_map: dict[str, tuple[int, ...] | list[int]]) -> LoweredProgram:
    """Bind compute nodes to devices and derive per-edge resharding.

    device_map assigns each virtual slice an ordered device list (shard i of
    a node runs on devices[i]). Arg shards are placed round-robin over the
    first consumer's devices; Result nodes mirror their producer. Pure:
    lowering the same inputs twice gives identical output.
    """
    dmap = {sid: tuple(devs) for sid, devs in device_map.items()}
    for sid, req in p.slices.items():
        if sid not in dmap:
            raise LowerError(f"device map missing slice {sid}")
        if len(dmap[sid]) != req.device_count:
            raise LowerError(
                f"slice {sid}: requirement {req.device_count} devices, map has "
                f"{len(dmap[sid])}")

    placement: dict[str, tuple[int, ...]] = {}
    for n in p.nodes.values():
        if isinstance(n, ComputeNode):
            placement[n.id] = dmap[n.slice_id]
    for n in p.nodes.values():
        if isinstance(n, ArgNode):
            consumers = [e.dst for e in p.edges if e.src == n.id]
            if not consumers:
                raise LowerError(f"arg {n.id} has no consumer")
            devs = placement[consumers[0]]
            placement[n.id] = tuple(devs[i % len(devs)] for i in range(n.shards))
    for n in p.nodes.values():
        if isinstance(n, ResultNode):
            src = [e.src for e in p.edges if e.dst == n.id][0]
            placement[n.id] = placement[src]

    lowered_edges: list[LoweredEdge] = []
    for e in p.edges:
        sm, sb, sl, sdevs = _shard_geometry(p, placement, e.src, e.src_port, "out")
        dst = p.node(e.dst)
        if isinstance(dst, ResultNode):
            dm, db, dl, ddevs = sm, sb, sl, sdevs   # results stay in place
        else:
            dm, db, dl, ddevs = _shard_geometry(p, placement, e.dst, e.dst_port, "in")
        spec = plan_reshard(sm, sb, dm, db, sl, dl)
        pairs = tuple(replace(pr, src_dev=sdevs[pr.src_shard],
                              dst_dev=ddevs[pr.dst_shard])
                      for pr in spec.pairs)
        lowered_edges.append(LoweredEdge(e, replace(spec, pairs=pairs)))
    return LoweredProgram(program=p, placement=placement, edges=lowered_edges,
                          device_map=dmap)


# -- serialization ----------------------------------------------------------

def serialize(p: TracedProgram) -> str:
    nodes = []
    for n in p.nodes.values():
        if isinstance(n, ArgNode):
            row = {"id": n.id, "kind": "arg", "shards": n.shards,
                   "bytes_per_shard": n.bytes_per_shard, "layout": n.layout}
            if n.handle is not None:
                row["handle"] = n.handle
        elif isinstance(n, ComputeNode):
            fn = n.fn
            row = {"id": n.id, "kind": "compute", "slice": n.slice_id,
                   "fn": {"name": fn.name, "shards": fn.shard_count,
                          "in_bytes": list(fn.in_bytes),
                          "out_bytes": list(fn.out_bytes),
                          "us_per_shard": fn.us_per_shard,
                          "regular": fn.regular, "collective": fn.collective,
                          "in_layouts": list(fn.in_layouts),
                          "out_layouts": list(fn.out_layouts),
                          "apply_count": fn.apply_count}}
        else:
            row = {"id": n.id, "kind": "result"}
        nodes.append(row)
    doc = {
        "nodes": nodes,
        "edges": [{"src": e.src, "dst": e.dst, "src_port": e.src_port,
                   "dst_port": e.dst_port} for e in p.edges],
        "results": list(p.results),
        "slices": {sid: {"shape": list(req.shape), "island": req.island}
                   for sid, req in p.slices.items()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def deserialize(text: str) -> TracedProgram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TraceError(f"bad program JSON: {e}") from e
    nodes: dict[str, object] = {}
    try:
        for row in doc["nodes"]:
            nid, kind = row["id"], row["kind"]
            if kind == "arg":
                nodes[nid] = ArgNode(nid, row["shards"], row["bytes_per_shard"],
                                     row.get("layout", "row"), row.get("handle"))
            elif kind == "compute":
                f = row["fn"]
                nodes[nid] = ComputeNode(nid, CompiledFunction(
                    name=f["name"], shard_count=f["shards"],
                    in_bytes=tuple(f["in_bytes"]), out_bytes=tuple(f["out_bytes"]),
                    us_per_shard=f["us_per_shard"], regular=f.get("regular", True),
                    collective=f.get("collective", False),
                    in_layouts=tuple(f.get("in_layouts", ())),
                    out_layouts=tuple(f.get("out_layouts", ())),
                    apply_count=f.get("apply_count", 1)), row["slice"])
            elif kind == "result":
                nodes[nid] = ResultNode(nid)
            else:
                raise TraceError(f"unknown node kind {kind!r}")
        edges = [Edge(e["src"], e["dst"], e.get("src_port", 0), e.get("dst_port", 0))
                 for e in doc["edges"]]
        slices = {sid: SliceRequirement(tuple(s["shape"]), s.get("island"))
                  for sid, s in doc.get("slices", {}).items()}
        results = list(doc["results"])
    except (KeyError, TypeError) as e:
        raise TraceError(f"bad program JSON: missing field {e}") from e
    p = TracedProgram(nodes=nodes, edges=edges, results=results, slices=slices)
    _validate_graph(p)
    return p


def _validate_graph(p: TracedProgram) -> None:
    for e in p.edges:
        if e.src not in p.nodes or e.dst not in p.nodes:
            raise TraceError(f"edge {e} references unknown node")
    for rid in p.results:
        if rid not in p.nodes or not isinstance(p.node(rid), ResultNode):
            raise TraceError(f"results entry {rid} is not a result node")
    for n in p.compute_nodes:
        if n.slice_id not in p.slices:
            raise TraceError(f"node {n.id} references unknown slice {n.slice_id}")
        req = p.slices[n.slice_id]
        if req.device_count != n.fn.shard_count:
            raise TraceError(
                f"node {n.id}: {n.fn.shard_count} shards on slice of "
                f"{req.device_count} devices")
        seen = len(p.in_edges(n.id))
        if seen != len(n.fn.in_bytes):
            raise TraceError(
                f"node {n.id}: {seen} inbound edges for {len(n.fn.in_bytes)} inputs")


def digest(p: TracedProgram) -> str:
    return hashlib.sha256(serialize(p).encode()).hexdigest()[:16]


# -- convenience builders ---------------------------------------------------

def chain_program(fns: list[CompiledFunction], arg_bytes: int | None = None,
                  slices: list[str] | None = None,
                  arg_handle: str | None = None) -> TracedProgram:
    """Arg -> fn1 -> fn2 -> ... -> Result, one slice per node unless given."""
    t = Tracer()
    first = fns[0]
    v = t.arg(shards=first.shard_count,
              bytes_per_shard=first.in_bytes[0] if arg_bytes is None else arg_bytes,
              handle=arg_handle)
    for i, fn in enumerate(fns):
        sid = slices[i] if slices else None
        v = t.call(fn, v, slice_id=sid)
    return t.finish(results=[v])
