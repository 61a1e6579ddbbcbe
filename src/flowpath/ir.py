"""Dataflow program representation.

A traced program is a compact DAG: one Arg node per program input, one
Compute node per call (regardless of how many shards the call runs on), one
Result node per returned value. Lowering binds Compute nodes to physical
devices and attaches its reshard pairs to every edge that moves data; it is
a pure function of (program, device map).
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

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
    apply_count: int = 1

    def __post_init__(self):
        if self.shard_count < 1:
            raise TraceError(f"{self.name}: shard_count must be >= 1")
        if any(b < 0 for b in self.in_bytes + self.out_bytes):
            raise TraceError(f"{self.name}: negative byte size")
        if self.us_per_shard < 0:
            raise TraceError(f"{self.name}: negative duration")
        if not math.isfinite(self.us_per_shard):
            raise TraceError(f"{self.name}: duration {self.us_per_shard!r} "
                             "is not finite")
        if self.duration_ns >= 2**63:        # the clock is a 64-bit integer
            raise TraceError(f"{self.name}: duration {self.us_per_shard!r} "
                             "us is 2**63 ns or more")
        if self.apply_count < 1:
            raise TraceError(f"{self.name}: apply_count must be >= 1")

    @cached_property
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

    def __post_init__(self):
        if any(d < 1 for d in self.shape):
            raise TraceError(f"slice shape {list(self.shape)}: a dimension "
                             "is below 1")

    @property
    def device_count(self) -> int:
        return math.prod(self.shape)


@dataclass
class ArgNode:
    id: str
    shards: int
    bytes_per_shard: int


@dataclass
class ComputeNode:
    id: str
    fn: CompiledFunction
    slice_id: str


@dataclass
class ResultNode:
    id: str


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


def plan_reshard(src_shards: int, src_bytes_per_shard: int,
                 dst_shards: int, dst_bytes_per_shard: int
                 ) -> tuple[ShardPair, ...]:
    """The contiguous-block overlap pairs that redistribute a 1-D logical
    byte range from M to N shards."""
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
    return tuple(pairs)


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


class Tracer:
    """Builds a TracedProgram call by call.

    Values are opaque ValueRefs; using a ref from another tracer is a trace
    error. Node ids record trace order, which is by construction a
    topological order. `call` and `result` check each step, so `finish`
    checks only that a compute node exists and no result returns an arg.
    """

    _ids = 0

    def __init__(self):
        Tracer._ids += 1
        self._tid = Tracer._ids
        self._nodes: dict[str, object] = {}
        self._edges: list[Edge] = []
        self._slices: dict[str, SliceRequirement] = {}
        self._producers: set[tuple[str, int]] = set()
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

    def arg(self, shards: int, bytes_per_shard: int) -> ValueRef:
        self._check_open()
        nid = self._next("n")
        self._nodes[nid] = ArgNode(nid, shards, bytes_per_shard)
        self._producers.add((nid, 0))
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
        self._producers.update((nid, p) for p in range(len(fn.out_bytes)))
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
        self._finished = True
        rids = []
        for ref in self._results:
            nid = self._next("n")
            if isinstance(self._nodes[ref.node], ArgNode):
                raise TraceError(f"result node {nid} returns arg {ref.node}; "
                                 "only a computed value can be returned")
            self._nodes[nid] = ResultNode(nid)
            self._edges.append(Edge(ref.node, nid, ref.port, 0))
            rids.append(nid)
        if not any(isinstance(n, ComputeNode) for n in self._nodes.values()):
            raise TraceError("program has no compute node")
        return TracedProgram(nodes=self._nodes, edges=self._edges,
                             results=rids, slices=self._slices)

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
    pairs: tuple[ShardPair, ...]             # none on an edge into a result


@dataclass
class LoweredProgram:
    program: TracedProgram
    placement: dict[str, tuple[int, ...]]    # arg/compute id -> devices
    edges: list[LoweredEdge]


def _shard_geometry(n, port: int, side: str) -> tuple[int, int]:
    """(shards, bytes_per_shard) for one side of an edge."""
    if isinstance(n, ArgNode):
        return n.shards, n.bytes_per_shard
    sizes = n.fn.out_bytes if side == "out" else n.fn.in_bytes
    return n.fn.shard_count, sizes[port]


def arg_consumers(p: TracedProgram) -> dict[str, str]:
    """Each arg's first consumer in node order, whatever the edge order:
    lower places the arg on its devices and its prep creates the buffer."""
    rank = {nid: i for i, nid in enumerate(p.nodes)}
    first: dict[str, str] = {}
    for e in p.edges:
        if isinstance(p.nodes[e.src], ArgNode):
            cur = first.get(e.src)
            if cur is None or rank[e.dst] < rank[cur]:
                first[e.src] = e.dst
    return first


def lower(p: TracedProgram,
          device_map: dict[str, tuple[int, ...] | list[int]]) -> LoweredProgram:
    """Bind compute nodes to devices and derive per-edge resharding.

    device_map assigns each virtual slice an ordered device list (shard i of
    a node runs on devices[i]). Arg shards are placed round-robin over the
    first consumer's devices. Results are read in place, where their
    producer wrote them, so result nodes get no placement and the edges
    into them no pairs. Edges of one shape (placements and shard
    geometries at both ends) share one read-only pairs tuple, planned
    once. Pure: lowering the same inputs twice gives identical output.
    """
    dmap = {sid: tuple(devs) for sid, devs in device_map.items()}
    for sid, req in p.slices.items():
        if sid not in dmap:
            raise LowerError(f"device map missing slice {sid}")
        if len(dmap[sid]) != req.device_count:
            raise LowerError(
                f"slice {sid}: requirement {req.device_count} devices, map has "
                f"{len(dmap[sid])}")
        if len(set(dmap[sid])) != len(dmap[sid]):
            # a device runs one shard of a node
            raise LowerError(f"slice {sid}: a device is mapped twice")

    consumer = arg_consumers(p)
    placement: dict[str, tuple[int, ...]] = {}
    for n in p.nodes.values():
        if isinstance(n, ComputeNode):
            placement[n.id] = dmap[n.slice_id]
    for n in p.nodes.values():
        if isinstance(n, ArgNode):
            if n.id not in consumer:
                raise LowerError(f"arg {n.id} has no consumer")
            devs = placement[consumer[n.id]]
            placement[n.id] = tuple(devs[i % len(devs)] for i in range(n.shards))

    lowered_edges: list[LoweredEdge] = []
    # edges of one shape (placements and geometries) share one pairs tuple
    shapes: dict[tuple, tuple[ShardPair, ...]] = {}
    for e in p.edges:
        dst = p.node(e.dst)
        if isinstance(dst, ResultNode):
            lowered_edges.append(LoweredEdge(e, ()))
            continue
        sdevs, ddevs = placement[e.src], placement[e.dst]
        sgeo = _shard_geometry(p.node(e.src), e.src_port, "out")
        dgeo = _shard_geometry(dst, e.dst_port, "in")
        key = (sdevs, ddevs, sgeo, dgeo)
        pairs = shapes.get(key)
        if pairs is None:
            pairs = shapes[key] = tuple(
                replace(pr, src_dev=sdevs[pr.src_shard],
                        dst_dev=ddevs[pr.dst_shard])
                for pr in plan_reshard(*sgeo, *dgeo))
        lowered_edges.append(LoweredEdge(e, pairs))
    return LoweredProgram(program=p, placement=placement, edges=lowered_edges)


# -- serialization ----------------------------------------------------------

def serialize(p: TracedProgram) -> str:
    nodes = []
    for n in p.nodes.values():
        if isinstance(n, ArgNode):
            row = {"id": n.id, "kind": "arg", "shards": n.shards,
                   "bytes_per_shard": n.bytes_per_shard}
        elif isinstance(n, ComputeNode):
            fn = n.fn
            row = {"id": n.id, "kind": "compute", "slice": n.slice_id,
                   "fn": {"name": fn.name, "shards": fn.shard_count,
                          "in_bytes": list(fn.in_bytes),
                          "out_bytes": list(fn.out_bytes),
                          "us_per_shard": fn.us_per_shard,
                          "regular": fn.regular, "collective": fn.collective,
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


# the type of each name, count, size, duration and flag in a program's rows
_FIELD_TYPES = {"name": "string", "shards": "int", "bytes_per_shard": "int",
                "apply_count": "int", "us_per_shard": "number",
                "regular": "bool", "collective": "bool",
                "in_bytes": "int list", "out_bytes": "int list",
                "shape": "int list", "island": "int or null"}
_IS = {"int": lambda v: type(v) is int, "bool": lambda v: type(v) is bool,
       "string": lambda v: type(v) is str,
       "number": lambda v: type(v) in (int, float),     # a bool is no number
       "int list": lambda v: type(v) is list and all(type(x) is int for x in v),
       "int or null": lambda v: v is None or type(v) is int}
# the keys each kind of row may carry; any other key is rejected, so a typo
# cannot silently run the default
_KEYS = {"program": {"nodes", "edges", "results", "slices"},
         "arg": {"id", "kind", "shards", "bytes_per_shard"},
         "compute": {"id", "kind", "slice", "fn"},
         "fn": {"name", "shards", "in_bytes", "out_bytes", "us_per_shard",
                "regular", "collective", "apply_count"},
         "result": {"id", "kind"},
         "edge": {"src", "dst", "src_port", "dst_port"},
         "slice": {"shape", "island"}}


def _check_row(row: dict, kind: str, where: str) -> dict:
    if type(row) is not dict:
        raise TraceError(f"{where}: expected an object, not {row!r}")
    unknown = sorted(set(row) - _KEYS[kind])
    if unknown:
        raise TraceError(f"{where}: unknown keys: {', '.join(unknown)}")
    for key, v in row.items():
        t = _FIELD_TYPES.get(key)
        if t and not _IS[t](v):
            raise TraceError(f"{where}: {key!r} must be of type {t}, not {v!r}")
    return row


def deserialize(text: str) -> TracedProgram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TraceError(f"bad program JSON: {e}") from e
    nodes: dict[str, object] = {}
    try:
        _check_row(doc, "program", "program")
        for row in doc["nodes"]:
            nid, kind = row["id"], row["kind"]
            if nid in nodes:
                raise TraceError(f"duplicate node id {nid}")
            if kind not in ("arg", "compute", "result"):
                raise TraceError(f"unknown node kind {kind!r}")
            _check_row(row, kind, f"node {nid}")
            if kind == "arg":
                nodes[nid] = ArgNode(nid, row["shards"], row["bytes_per_shard"])
            elif kind == "compute":
                f = _check_row(row["fn"], "fn", f"node {nid}")
                nodes[nid] = ComputeNode(nid, CompiledFunction(
                    name=f["name"], shard_count=f["shards"],
                    in_bytes=tuple(f["in_bytes"]), out_bytes=tuple(f["out_bytes"]),
                    us_per_shard=f["us_per_shard"], regular=f.get("regular", True),
                    collective=f.get("collective", False),
                    apply_count=f.get("apply_count", 1)), row["slice"])
            else:
                nodes[nid] = ResultNode(nid)
        edges = []
        for i, e in enumerate(doc["edges"]):
            _check_row(e, "edge", f"edges[{i}]")
            edges.append(Edge(e["src"], e["dst"], e.get("src_port", 0),
                              e.get("dst_port", 0)))
        slices = {sid: SliceRequirement(
                      tuple(_check_row(s, "slice", f"slice {sid}")["shape"]),
                      s.get("island"))
                  for sid, s in doc.get("slices", {}).items()}
        p = TracedProgram(nodes=nodes, edges=edges, results=list(doc["results"]),
                          slices=slices)
        _validate_graph(p)       # an id of the wrong type raises TypeError
    except KeyError as e:
        raise TraceError(f"bad program JSON: missing field {e}") from e
    except (TypeError, AttributeError) as e:
        raise TraceError(f"bad program JSON: {e}") from e
    return p


def _ports(n) -> tuple[int, int]:
    """(input ports, output ports) of a node."""
    if isinstance(n, ComputeNode):
        return len(n.fn.in_bytes), len(n.fn.out_bytes)
    return (0, 1) if isinstance(n, ArgNode) else (1, 0)


def _validate_graph(p: TracedProgram) -> None:
    fed: dict[str, dict[int, int]] = {}      # node -> input port -> edges
    producers: dict[str, list[str]] = {}
    for e in p.edges:
        if e.src not in p.nodes or e.dst not in p.nodes:
            raise TraceError(f"edge {e} references unknown node")
        if not (_IS["int"](e.src_port) and _IS["int"](e.dst_port)):
            raise TraceError(f"edge {e}: ports must be integers")
        if not 0 <= e.src_port < _ports(p.nodes[e.src])[1]:
            raise TraceError(
                f"node {e.dst}: edge from {e.src} reads output port "
                f"{e.src_port}, which {e.src} does not have")
        if (isinstance(p.nodes[e.src], ArgNode)
                and isinstance(p.nodes[e.dst], ResultNode)):
            raise TraceError(f"result node {e.dst} returns arg {e.src}; "
                             "only a computed value can be returned")
        ports = fed.setdefault(e.dst, {})
        ports[e.dst_port] = ports.get(e.dst_port, 0) + 1
        producers.setdefault(e.dst, []).append(e.src)
    returned = Counter(p.results)
    # plans, instance state and digests walk the nodes in list order
    listed: set[str] = set()
    for nid, n in p.nodes.items():
        for src in producers.get(nid, ()):
            if src not in listed:
                raise TraceError(
                    f"node {nid} is listed before its producer {src}")
        listed.add(nid)
        # every input port fed by exactly one edge
        ports = fed.get(nid, {})
        n_in = _ports(n)[0]
        for port in sorted(ports):
            if not 0 <= port < n_in:
                raise TraceError(
                    f"node {nid}: an edge feeds input port {port}, which "
                    f"does not exist ({n_in} inputs)")
        for port in range(n_in):
            if ports.get(port, 0) != 1:
                raise TraceError(
                    f"node {nid}: input port {port} is fed by "
                    f"{ports.get(port, 0)} edges, not 1")
        if isinstance(n, ResultNode) and returned[nid] != 1:
            raise TraceError(f"result node {nid} is listed {returned[nid]} "
                             "times in results, not once")
    if not p.compute_nodes:
        raise TraceError("program has no compute node")
    for rid in returned:
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


def digest(p: TracedProgram) -> str:
    return hashlib.sha256(serialize(p).encode()).hexdigest()[:16]


# -- convenience builders ---------------------------------------------------

def chain_program(fns: list[CompiledFunction], arg_bytes: int | None = None,
                  slices: list[str] | None = None) -> TracedProgram:
    """Arg -> fn1 -> fn2 -> ... -> Result, one slice per node unless given."""
    t = Tracer()
    first = fns[0]
    v = t.arg(shards=first.shard_count,
              bytes_per_shard=first.in_bytes[0] if arg_bytes is None else arg_bytes)
    for i, fn in enumerate(fns):
        sid = slices[i] if slices else None
        v = t.call(fn, v, slice_id=sid)
    return t.finish(results=[v])
