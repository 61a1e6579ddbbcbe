"""Per-host executor: prep, enqueue, transfers, and buffer lifecycles.

A host serializes its control work (prep and kernel enqueue run one task at
a time), mirrors its slice of every running program instance, launches DMA
transfers once it holds both the producer data and the consumer addresses,
and keeps the store's logical refcounts honest via drain reports. The prep
and enqueue of a granted gang are one task, which costs both and applies
the prep effects, then the enqueue effects, when it ends; a node prepped on
its inputs (host-gated) enqueues in a task of its own once granted.

Device traffic is per host: a host's share of a gang is one `KernelExec`
record, whose shards, devices and input sources are static per (node,
host) in `NodeInfo`. One PCIe message enqueues it on the host's devices, and
one `kernel_done` lists the shards of a collective on the host, which it
marks done in one pass. A result's shards reach the client in one `result`
per host, a collective's in one from its home host. The host keeps no
record once it is sent: an abort names the (instance, node) alone.

The static tables are built once per distinct shape: edges with one pairs
tuple and consumer kind, and nodes with one placement and in-edges, share
them, so a program of many nodes of few shapes costs the few in setup time
and memory. They are read-only once built. They hold what prep reads per
host, such as each consumer host's addr rows; the (device, bytes) rows of
outputs and args are shared per shape too, in `ProgramInfo.rows`.

What a node allocates where is stated once, by `ProgramInfo.buffers`: its
outputs on its home host, a landing buffer for inbound transfers on each of
its hosts, and the args it creates on their home host. The gang's HBM ask,
prep and the give-back of an unused grant all read it. Each (consuming
edge, drainer) holds one ref on the source buffer, a result edge one client
hold. A drainer is a consumer host with a pair of the edge, or a collective
consumer's home host alone, since all its kernels end in one event
(`EdgeInfo.drainers`). When a host's kernels of a node are done, it frees
the node's landing buffer and sends one `drain` per in-edge it drains, the
one rule for pairs that landed and pairs read in place; the source's home
host turns each drain into one release.

A host drops an instance at the last event of its part, `ProgramInfo.ends`;
a client's `release` reads no instance state. An instance fails only with
its client. Each host then stops counting its unfinished gangs towards
completion (`System.gang_left`), aborts by key what their shards may have
on a device (kernel, landed inputs), gives back grants it never prepped,
and drops the instance. Later messages for it are ignored; a device drops
a late record or landing by its key.

Dispatch triggers per node come from the instance plan:
  "go"  - enqueue when the scheduler grants (parallel dispatch),
  "fut" - home host submits the gang after every predecessor shard announced
          its output futures (sequential dispatch of a regular node),
  "dat" - same, but gated on predecessor data completion (irregular node).
For both, a producer host tells each consumer host its reshard pairs feed,
and the node's home host, which source shards of an edge it closes there:
in one message, or in a call to itself, as with its own addr rows. A host
preps the node once each (edge, source shard) it waits for is closed,
`NodeInfo.waits`: the home host all of them, another only its pairs'.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .config import BatchingConfig, CostModel
from .coord import MessageBatcher, ProgressTracker, edge_id
from .hardware import Cluster, KernelExec
from .ir import (ArgNode, CompiledFunction, ComputeNode, LoweredProgram,
                 ResultNode, ShardPair, arg_consumers)
from .simcore import Process, Simulator
from .store import HostStore, ShardRows


# -- static program tables ---------------------------------------------------

@dataclass(slots=True)
class EdgeInfo:
    src: str
    dst: str
    src_port: int
    dst_port: int
    to_result: bool
    # consumer host -> the addr rows of its remote pairs, by sorted source host
    inbound: dict[int, tuple[tuple[int, tuple], ...]]
    # the consumer hosts that each send one drain when their kernels of the
    # node end: every host with a pair, a collective's home host alone
    drainers: tuple[int, ...]
    chosts_by_src: dict[int, tuple[int, ...]]   # src shard -> consumer hosts
    addr_hosts: frozenset[int]                    # source hosts sent addr rows
    src_home: int                                 # host holding the source
    from_arg: bool                                # source is any arg node


@dataclass(slots=True)
class NodeInfo:
    nid: str
    fn: CompiledFunction
    devices: tuple[int, ...]                     # shard -> device
    hosts: tuple[int, ...]
    home_host: int
    local_shards: dict[int, tuple[int, ...]]     # host -> shard indices
    local_devices: dict[int, tuple[int, ...]]    # host -> their devices
    in_edges: tuple[str, ...]
    out_edges: tuple[str, ...]
    input_sources: dict[int, tuple[int, ...]]    # device -> producer per arrival
    recv_rows: dict[int, tuple[tuple[int, int], ...]]   # host -> landing rows
    args_created: tuple[str, ...]
    waits: dict[int, int]                        # host -> gating source shards
    collective: bool                 # `fn.collective`, on 2 or more devices
    hbm_by_device: dict[int, int] = field(default_factory=dict)  # gang ask


@dataclass(slots=True)
class ArgInfo:
    shards: int
    bytes_per_shard: int
    placement: tuple[int, ...]
    home_host: int
    local_shards: dict[int, tuple[int, ...]]     # host -> shard indices
    out_edges: tuple[str, ...]


@dataclass
class ProgramInfo:
    """A program's static facts, read by every instance and host.

    Nodes and edges of one shape share the same tables (the dicts and
    tuples in `NodeInfo`, `EdgeInfo` and `ArgInfo`), so they are read-only
    once `build_program_info` returns: `submit_gangs` shares the HBM ask
    with the scheduler, which only reads it. Only `plans`, `digests` and
    `rows` fill in as instances run; `digests` on the first finish.
    """

    pid: str
    lowered: LoweredProgram
    order: tuple[str, ...]                        # compute nodes, trace order
    nodes: dict[str, NodeInfo]
    args: dict[str, ArgInfo]
    edges: dict[str, EdgeInfo]
    results: tuple[tuple[str, str, int], ...]     # (result id, src node, port)
    # the distinct (src node, port) of the results: one client hold each
    result_bufs: tuple[tuple[str, int], ...]
    result_shards: int
    # host -> the events of its part of an instance, sorted by host: its
    # kernel shards, and the drains and addr messages it receives
    ends: dict[int, int]
    plans: dict = field(default_factory=dict)     # dispatch mode -> plan
    # result digests, the same for every instance: a value is a pure
    # function of the program graph
    digests: list[str] | None = None
    # (placement, bytes per shard) -> its (device, bytes) row per shard
    rows: dict[tuple, ShardRows] = field(default_factory=dict)

    def out_handle(self, instance: str, nid: str, port: int) -> str:
        return f"o.{instance}.{nid}.{port}"

    def arg_handle(self, instance: str, aid: str) -> str:
        return f"a.{instance}.{aid}"

    def recv_handle(self, instance: str, nid: str, host: int) -> str:
        return f"r.{instance}.{nid}.h{host}"

    def buffers(self, instance: str, nid: str, host: int):
        """The store rows `host` creates when it preps `nid`.

        Yields (handle, [(device, bytes)] per shard, refcount, client-held).
        This is the one statement of what a node allocates where: the gang's
        HBM ask, prep and the give-back of an unused grant all read it.
        The rows are built once per shape and shared; only handles are new.
        """
        ni = self.nodes[nid]
        if host == ni.home_host:
            for port, nbytes in enumerate(ni.fn.out_bytes):
                rc, held = self._refs(ni.out_edges, port)
                yield (self.out_handle(instance, nid, port),
                       self._rows(ni.devices, nbytes), rc, held)
        recv = ni.recv_rows.get(host)
        if recv is not None:
            yield self.recv_handle(instance, nid, host), recv, 1, False
        for aid in ni.args_created:
            a = self.args[aid]
            if host == a.home_host:
                rc, held = self._refs(a.out_edges, 0)
                yield (self.arg_handle(instance, aid),
                       self._rows(a.placement, a.bytes_per_shard), rc, held)

    def _rows(self, devs: tuple[int, ...], nbytes: int) -> ShardRows:
        rows = self.rows.get((devs, nbytes))
        if rows is None:
            rows = self.rows[devs, nbytes] = ShardRows((d, nbytes) for d in devs)
        return rows

    def _refs(self, out_edges: tuple[str, ...], port: int) -> tuple[int, bool]:
        """Each (consuming edge, host in its `drainers`) holds one ref,
        released by that host's drain; the client holds one more, however
        many results name the buffer, and releases its handle once."""
        rc = 0
        held = False
        for eid in out_edges:
            ei = self.edges[eid]
            if ei.src_port != port:
                continue
            if ei.to_result:
                held = True
            else:
                rc += len(ei.drainers)
        return max(rc + held, 1), held


def _shared(memo: dict, key, build, *args):
    """memo[key], built by build(*args) on first use: every node or edge of
    one shape gets the same table."""
    table = memo.get(key)
    if table is None:
        table = memo[key] = build(*args)
    return table


def _by_host(devs: tuple[int, ...], host_of) -> tuple[dict, dict, tuple]:
    """A placement's shard indices by host, their devices by host, and its
    hosts."""
    out: dict[int, list[int]] = {}
    for shard, dev in enumerate(devs):
        out.setdefault(host_of[dev], []).append(shard)
    local = {h: tuple(v) for h, v in sorted(out.items())}
    # a node on one host shares its devices tuple
    local_devs = ({h: devs for h in local} if len(local) == 1 else
                  {h: tuple(devs[s] for s in ss) for h, ss in local.items()})
    return local, local_devs, tuple(local)


def _pair_tables(pairs: tuple[ShardPair, ...], host_of,
                 collective: bool) -> tuple[dict, dict, tuple, frozenset]:
    """An edge's tables: consumer host -> the addr rows of its remote pairs
    grouped by sorted source host, source shard -> its sorted consumer
    hosts, the drainers, and the source hosts that get addr rows. A
    collective's kernels all end in one event, so its home host drains
    alone."""
    by_chost: dict[int, list[ShardPair]] = {}
    for pr in pairs:
        by_chost.setdefault(host_of[pr.dst_dev], []).append(pr)
    inbound: dict[int, tuple] = {}
    chosts: dict[int, list[int]] = {}
    for h in sorted(by_chost):          # each shard's hosts come out sorted
        rows: dict[int, list[tuple]] = {}
        for pr in by_chost[h]:
            hs = chosts.setdefault(pr.src_shard, [])
            if not hs or hs[-1] != h:
                hs.append(h)
            if pr.src_dev != pr.dst_dev:
                rows.setdefault(host_of[pr.src_dev], []).append(
                    (pr.src_shard, pr.dst_shard, pr.dst_dev, pr.nbytes))
        if rows:
            inbound[h] = tuple((sh, tuple(rows[sh])) for sh in sorted(rows))
    # dst shard 0's pairs come first, so the consumer's home host is the
    # first key
    drainers = tuple(by_chost)[:1] if collective else tuple(sorted(by_chost))
    return (inbound, {s: tuple(hs) for s, hs in chosts.items()}, drainers,
            frozenset(sh for by_src in inbound.values() for sh, _r in by_src))


def _inputs(devs: tuple[int, ...], ins: tuple,
            host_of) -> tuple[dict, dict, dict]:
    """What a node's devices and in-edges fix about its inputs: device ->
    producer device per inbound transfer, host -> the (device, landing
    bytes) rows of its shards where any lands, and host -> gating source
    shards.

    `ins` has one (pairs, source shards, from an arg) per in-edge, in edge
    order.
    """
    home = host_of[devs[0]]
    sources: dict[tuple[int, int], list[int]] = {}   # (shard, device) -> srcs
    landing: dict[int, int] = {}
    waits: dict[int, int] = {}
    for pairs, src_shards, from_arg in ins:
        for pr in pairs:
            if pr.src_dev != pr.dst_dev:
                sources.setdefault((pr.dst_shard, pr.dst_dev), []).append(
                    pr.src_dev)
                landing[pr.dst_shard] = (landing.get(pr.dst_shard, 0)
                                         + pr.nbytes)
        if from_arg:
            continue
        # host-gated readiness: the home host hears every source shard of
        # each edge a predecessor gang feeds, another host only the source
        # shards paired with its own shards
        for _s, h in {(pr.src_shard, host_of[pr.dst_dev]) for pr in pairs}:
            if h != home:
                waits[h] = waits.get(h, 0) + 1
        waits[home] = waits.get(home, 0) + src_shards
    recv: dict[int, list[tuple[int, int]]] = {}
    for shard, dev in enumerate(devs):
        recv.setdefault(host_of[dev], []).append((dev, landing.get(shard, 0)))
    return ({d: tuple(v) for (_s, d), v in sorted(sources.items())},
            {h: ShardRows(rows) for h, rows in recv.items()
             if any(nb for _d, nb in rows)}, waits)


def _hbm_ask(info: ProgramInfo, ni: NodeInfo) -> dict[int, int]:
    """The gang's HBM ask: every row any host creates for the node (the
    handles, named for no instance here, go unused)."""
    hbm = dict.fromkeys(ni.devices, 0)
    makers = {*ni.hosts, *(info.args[a].home_host for a in ni.args_created)}
    for host in sorted(makers):
        for _h, shards, _rc, _held in info.buffers("", ni.nid, host):
            for dev, nbytes in shards:
                hbm[dev] = hbm.get(dev, 0) + nbytes
    return hbm


def build_program_info(pid: str, lp: LoweredProgram, cluster: Cluster) -> ProgramInfo:
    p = lp.program
    host_of = {d.device_id: d.host_id for d in cluster.devices}
    nodes: dict[str, NodeInfo] = {}
    args: dict[str, ArgInfo] = {}
    edges: dict[str, EdgeInfo] = {}
    order = tuple(n.id for n in p.nodes.values() if isinstance(n, ComputeNode))
    # a collective's kernels on all its hosts end in one event (`hardware`)
    collective = {nid for nid in order if p.node(nid).fn.collective
                  and len(lp.placement[nid]) > 1}
    in_eids: dict[str, list[str]] = {}
    out_eids: dict[str, list[str]] = {}
    # per consumer node, one (pairs, source shards, from arg) per in-edge
    ins: dict[str, list[tuple]] = {}
    # one table per distinct (pairs tuple, collective consumer), placement,
    # (placement, in-edges) and HBM shape, shared by every edge, arg or node
    # of that shape
    pair_tables: dict[tuple, tuple] = {}
    placed: dict[tuple[int, ...], tuple] = {}
    inputs: dict[tuple, tuple] = {}
    asks: dict[tuple, dict[int, int]] = {}
    shape: dict[str, tuple] = {}          # node -> its key in inputs
    ends: dict[int, int] = {}

    for le in lp.edges:
        e = le.edge
        eid = edge_id(e.src, e.dst, e.dst_port)
        from_arg = isinstance(p.node(e.src), ArgNode)
        key = (le.pairs, e.dst in collective)
        inbound, chosts, drainers, addr_hosts = _shared(
            pair_tables, key, _pair_tables, le.pairs, host_of, key[1])
        home = host_of[lp.placement[e.src][0]]
        edges[eid] = EdgeInfo(
            src=e.src, dst=e.dst, src_port=e.src_port, dst_port=e.dst_port,
            to_result=isinstance(p.node(e.dst), ResultNode),
            inbound=inbound, drainers=drainers, chosts_by_src=chosts,
            addr_hosts=addr_hosts, src_home=home, from_arg=from_arg)
        # a drain per drainer, an addr per (consumer, source) host
        ends[home] = ends.get(home, 0) + len(drainers)
        for by_src in inbound.values():
            for sh, _rows in by_src:
                ends[sh] = ends.get(sh, 0) + 1
        in_eids.setdefault(e.dst, []).append(eid)
        out_eids.setdefault(e.src, []).append(eid)
        ins.setdefault(e.dst, []).append(
            (le.pairs, len(lp.placement[e.src]), from_arg))

    creator = arg_consumers(p)
    created: dict[str, list[str]] = {}
    for n in p.nodes.values():
        if not isinstance(n, ArgNode):
            continue
        outs = tuple(out_eids.get(n.id, ()))
        placement = lp.placement[n.id]
        args[n.id] = ArgInfo(
            shards=n.shards, bytes_per_shard=n.bytes_per_shard,
            placement=placement, home_host=host_of[placement[0]],
            local_shards=_shared(placed, placement, _by_host, placement,
                                 host_of)[0],
            out_edges=outs)
        created.setdefault(creator[n.id], []).append(n.id)

    for n in p.nodes.values():
        if not isinstance(n, ComputeNode):
            continue
        devs = lp.placement[n.id]
        local, local_devs, hosts = _shared(placed, devs, _by_host, devs, host_of)
        for h, mine in local.items():
            ends[h] = ends.get(h, 0) + len(mine)
        key = shape[n.id] = (devs, tuple(ins.get(n.id, ())))
        input_sources, recv_rows, waits = _shared(
            inputs, key, _inputs, *key, host_of)
        nodes[n.id] = NodeInfo(
            nid=n.id, fn=n.fn, devices=devs, hosts=hosts,
            home_host=host_of[devs[0]], local_shards=local,
            local_devices=local_devs,
            in_edges=tuple(in_eids.get(n.id, ())),
            out_edges=tuple(out_eids.get(n.id, ())),
            input_sources=input_sources, recv_rows=recv_rows,
            args_created=tuple(created.get(n.id, ())), waits=waits,
            collective=n.id in collective)

    results = []
    nshards = 0
    for rid in p.results:
        e = edges[in_eids[rid][0]]
        results.append((rid, e.src, e.src_port))
        nshards += len(lp.placement[e.src])
    info = ProgramInfo(
        pid=pid, lowered=lp, order=order, nodes=nodes, args=args, edges=edges,
        results=tuple(results),
        result_bufs=tuple(dict.fromkeys((s, port) for _r, s, port in results)),
        result_shards=nshards, ends=dict(sorted(ends.items())))
    # the ask is fixed by the node's shape, its output sizes and the shapes
    # of the args it creates
    for ni in nodes.values():
        made = tuple((args[a].placement, args[a].bytes_per_shard)
                     for a in ni.args_created)
        ni.hbm_by_device = _shared(asks, (shape[ni.nid], ni.fn.out_bytes, made),
                                   _hbm_ask, info, ni)
    return info


@dataclass(slots=True)
class InstanceMeta:
    instance: str
    client: str
    program: ProgramInfo
    modes: dict[str, str]                        # node -> go | fut | dat
    stages: list[list[str]]                      # client-submitted groups
    triggers: list[set[str]]                     # nodes each stage waits on
    reply_to_client: bool = True
    stage_idx: int = 0                           # next stage to submit
    # the triggers reported; shared and empty until one reports
    stage_seen: frozenset[str] = frozenset()


# -- the host process --------------------------------------------------------

@dataclass(slots=True)
class _InstState:
    meta: InstanceMeta
    left: int               # events of this host's part still to come (`ends`)
    prep: dict[str, str] = field(default_factory=dict)    # node -> queued/done
    ticket: set[str] = field(default_factory=set)         # nodes granted
    kdone: dict[str, int] = field(default_factory=dict)   # node -> local done
    src_done: dict[str, set] = field(default_factory=dict)      # eid -> shards
    # eid -> {(s,d): ...}, the addresses of pairs not yet launched
    addr: dict[str, dict] = field(default_factory=dict)


class HostExecutor(Process):
    """One per host. pid is "host<N>"."""

    def __init__(self, sim: Simulator, cluster: Cluster, host_id: int,
                 costs: CostModel, batching: BatchingConfig,
                 control_latency_ns: int, audit: list, runtime):
        super().__init__(sim, f"host{host_id}")
        self.cluster = cluster
        self.host_id = host_id
        self.costs = costs
        self.control_latency_ns = control_latency_ns
        self.runtime = runtime
        self.store = HostStore(host_id, cluster, audit)
        self.batcher = MessageBatcher(sim, self.pid, batching, control_latency_ns)
        self.tracker = ProgressTracker(self._on_ready, self._waits)
        self.inst: dict[str, _InstState] = {}
        self.failed_clients: set[str] = set()       # client pids
        self._tasks: list[tuple] = []   # the running task is the first
        self.stats = {"ctrl_msgs": 0, "preps": 0, "enqueues": 0}

    # -- plumbing ----------------------------------------------------------

    def install(self, meta: InstanceMeta) -> None:
        """Out-of-band instance registration (program metadata is resident)."""
        self.inst[meta.instance] = _InstState(
            meta, meta.program.ends[self.host_id])

    def _send(self, dst: str, kind: str, payload: dict, critical: bool) -> None:
        if critical and dst == self.pid:    # it lands now: a call, no event
            return self.handle(kind, payload, self.pid)
        self.stats["ctrl_msgs"] += 1
        self.batcher.send(dst, kind, payload, critical)

    # -- serialized host work ----------------------------------------------

    def _push_task(self, instance: str, nid: str, *steps: tuple) -> None:
        """Queue one task of back-to-back ("prep" | "enqueue", ns) steps;
        its cost, their sum, is fixed now."""
        self._tasks.append((instance, nid, steps, sum(ns for _k, ns in steps)))
        if len(self._tasks) == 1:
            self._start_next()

    def _start_next(self) -> None:
        if self._tasks:
            self.sim.schedule_in(self._tasks[0][3], self.pid, "task_done")

    def _finish_task(self) -> None:
        instance, nid, steps, cost = self._tasks[0]
        t = self.sim.now() - cost
        for kind, ns in steps:
            if self.sim.record_trace:
                self.sim.trace_span(self.host_id, 100_000 + self.host_id,
                                    f"{kind} {nid}", t, t + ns, kind, instance)
            t += ns
            if instance in self.inst:
                if kind == "prep":
                    self._prep_effects(instance, nid)
                else:
                    self._enqueue_effects(instance, nid)
        # popped only now, so a task its effects push waits its turn
        self._tasks.pop(0)
        self._start_next()

    # -- dispatch triggers -------------------------------------------------

    def handle(self, kind: str, payload: dict, src: str | None) -> None:
        # the kinds in order of how often they arrive
        if kind == "task_done":
            self._finish_task()
        elif kind == "go":
            self._on_go(payload)
        elif kind == "kernel_done":
            self._on_kernel_done(payload)
        elif kind == "batch":
            for m in payload["messages"]:
                self.handle(m["kind"], m["payload"], src)
        elif kind in ("edge_fut", "edge_dat"):
            self._on_edge_update(payload)
        elif kind == "addr":
            self._on_addr(payload)
        elif kind == "drain":
            self._on_drain(payload)
        elif kind == "release":
            # a dead client's last releases may land after its buffers were
            # collected; a batch carries its sender's pid as src
            if src not in self.failed_clients:
                self.store.release(payload["handle"])
        elif kind == "client_failed":
            self._on_client_failed(payload)
        else:
            raise ValueError(f"host{self.host_id}: unknown message {kind}")

    def _on_go(self, payload: dict) -> None:
        instance, nid = payload["instance"], payload["node"]
        st = self.inst.get(instance)
        if st is None:
            # grant raced a failure: the scheduler reserved memory for a gang
            # that will never be prepped; give back the parts whose buffers
            # this host would have created
            meta = self.runtime.instances[instance]
            if meta.modes[nid] == "go":
                self._release_grant_reservation(meta.program, instance, nid)
            return
        st.ticket.add(nid)
        ni = st.meta.program.nodes[nid]
        enqueue = ("enqueue", self.costs.pcie_enqueue_ns
                   * len(ni.local_shards[self.host_id]))
        if st.prep.get(nid) is None:
            # a granted gang preps and enqueues in one task
            st.prep[nid] = "queued"
            self._push_task(instance, nid, ("prep", self.costs.host_prep_ns),
                            enqueue)
        else:       # prepped, or queued to prep, by its inputs (host-gated)
            self._push_task(instance, nid, enqueue)

    def _waits(self, instance: str, nid: str) -> int:
        """Gating source shards this host expects for a host-gated node."""
        meta = self.inst[instance].meta
        if meta.modes[nid] == "go":
            return 0
        return meta.program.nodes[nid].waits.get(self.host_id, 0)

    def _on_ready(self, instance: str, nid: str) -> None:
        st = self.inst[instance]
        # a node already prepped on `go` ignores its inputs' announcement
        if st.prep.get(nid) is None:
            st.prep[nid] = "queued"
            self._push_task(instance, nid, ("prep", self.costs.host_prep_ns))

    # -- prep: allocate buffers, exchange addresses, maybe submit ----------

    def _prep_effects(self, instance: str, nid: str) -> None:
        st = self.inst[instance]
        info = st.meta.program
        ni = info.nodes[nid]
        self.stats["preps"] += 1
        st.prep[nid] = "done"
        # scheduler-dispatched gangs had their memory reserved atomically at
        # grant time; host-paced nodes allocate as they prepare
        rsv = st.meta.modes[nid] != "go"

        for handle, shards, rc, held in info.buffers(instance, nid,
                                                     self.host_id):
            self.store.put(shards, owner=(st.meta.client if held else instance),
                           refcount=rc, reserve=rsv, handle=handle)
        for aid in ni.args_created:
            mine = info.args[aid].local_shards.get(self.host_id, ())
            for eid in info.args[aid].out_edges:
                self._mark_src_ready(instance, eid, mine)

        for eid in ni.in_edges:
            for sh, rows in info.edges[eid].inbound.get(self.host_id, ()):
                self._send(f"host{sh}", "addr",
                           {"instance": instance, "edge": eid, "pairs": rows,
                            "from_host": self.host_id}, critical=True)

        # no grant comes before this: the home host submits the gang here
        if (st.meta.modes[nid] in ("fut", "dat")
                and self.host_id == ni.home_host):
            self.runtime.submit_gangs(instance, [nid], src_pid=self.pid,
                                      latency_ns=self.control_latency_ns)

    def _release_grant_reservation(self, info: ProgramInfo, instance: str,
                                   nid: str) -> None:
        """Give back the part of a gang reservation that this host's prep
        would have turned into store rows."""
        for _h, shards, _rc, _held in info.buffers(instance, nid, self.host_id):
            self.cluster.release_hbm(shards)

    # -- enqueue: kernels to devices, future handoff downstream -------------

    def _enqueue_effects(self, instance: str, nid: str) -> None:
        st = self.inst[instance]
        info = st.meta.program
        ni = info.nodes[nid]
        self.stats["enqueues"] += 1
        mine = ni.local_shards[self.host_id]
        rec = KernelExec(
            instance, nid, mine, ni.local_devices[self.host_id],
            ni.fn.duration_ns, ni.input_sources,
            collective_key=f"{instance}/{nid}" if ni.collective else None,
            group=ni.devices if ni.collective else ())
        # one PCIe message carries the record to all this host's devices
        self.sim.send(self.pid, f"dev{rec.devices[0]}", "enqueue_kernel",
                      {"kernel": rec}, latency=self.cluster.spec.pcie.latency_ns)
        for eid in ni.out_edges:        # a result node has no mode
            if st.meta.modes.get(info.edges[eid].dst) == "fut":
                self._emit_edge_update(instance, eid, mine, "fut")
        if st.meta.modes[nid] == "dat" and self.host_id == ni.home_host:
            # irregular boundary passed: the next statically plannable stage
            # can be submitted now
            self.sim.send(self.pid, f"client.{st.meta.client}", "stage_ready",
                          {"instance": instance, "node": nid},
                          latency=self.costs.client_rpc_ns)

    # -- edge updates (the source shards each message closes) ---------------

    def _emit_edge_update(self, instance: str, eid: str,
                          src_shards: tuple[int, ...] | list[int],
                          cls: str) -> None:
        """Tell whoever waits on this host's sorted `src_shards` of `eid`."""
        st = self.inst[instance]
        info = st.meta.program
        ei = info.edges[eid]
        if ei.to_result:            # only data reaches a result
            src = info.nodes.get(ei.src)            # None for an arg
            if src is not None and src.collective:
                # all its kernels ended at once: its home host reports
                if self.host_id != src.home_host:
                    return
                src_shards = list(range(len(src.devices)))
            self.sim.send(self.pid, f"client.{st.meta.client}", "result",
                          {"instance": instance, "edge": eid,
                           "shards": src_shards},
                          latency=self.costs.client_rpc_ns)
            return
        if ei.from_arg or st.meta.modes[ei.dst] != cls:
            return
        # the home host hears from every source shard, other consumer hosts
        # only from those paired with their shards
        home = info.nodes[ei.dst].home_host
        out: dict[int, list[int]] = {home: list(src_shards)}
        for s in src_shards:
            for ch in ei.chosts_by_src.get(s, ()):
                if ch != home:
                    out.setdefault(ch, []).append(s)
        for ch in out:
            self._send(f"host{ch}", f"edge_{cls}",
                       {"instance": instance, "edge": eid, "srcs": out[ch]},
                       critical=True)

    def _on_edge_update(self, payload: dict) -> None:
        instance, eid = payload["instance"], payload["edge"]
        st = self.inst.get(instance)
        if st is None:
            return
        self.tracker.on_punctuation(st.meta.program.edges[eid].dst,
                                    instance, eid, payload["srcs"])

    # -- producer-side data movement ---------------------------------------

    def _mark_src_ready(self, instance: str, eid: str,
                        shards: tuple[int, ...] | list[int]) -> None:
        st = self.inst[instance]
        # only a host that holds a source of a remote pair hears its address
        if self.host_id in st.meta.program.edges[eid].addr_hosts:
            st.src_done.setdefault(eid, set()).update(shards)
            self._launch_ready(instance, eid)
        if shards:
            self._emit_edge_update(instance, eid, shards, "dat")

    def _on_addr(self, payload: dict) -> None:
        instance, eid = payload["instance"], payload["edge"]
        st = self.inst.get(instance)
        if st is None:
            return
        amap = st.addr.setdefault(eid, {})
        for src_shard, dst_shard, dst_dev, nbytes in payload["pairs"]:
            amap[(src_shard, dst_shard)] = (dst_dev, nbytes)
        self._launch_ready(instance, eid)
        self._count_down(instance, st, 1)

    def _launch_ready(self, instance: str, eid: str) -> None:
        """Start every pair whose data exists and whose address is known."""
        st = self.inst[instance]
        info = st.meta.program
        ei = info.edges[eid]
        src_devs = info.lowered.placement[ei.src]
        done = st.src_done.get(eid, set())
        amap = st.addr.get(eid, {})
        for (src_shard, dst_shard), (dst_dev, nbytes) in list(amap.items()):
            if src_shard not in done:
                continue
            src_dev = src_devs[src_shard]       # on this host: addr came here
            del amap[(src_shard, dst_shard)]
            self.cluster.transfer(src_dev, dst_dev, nbytes, instance,
                                  ei.dst, dst_shard)

    # -- completions -------------------------------------------------------

    def _on_kernel_done(self, payload: dict) -> None:
        instance, nid, shards = (payload["instance"], payload["node"],
                                 payload["shards"])
        st = self.inst.get(instance)
        if st is None:
            return
        info = st.meta.program
        ni = info.nodes[nid]
        st.kdone[nid] = st.kdone.get(nid, 0) + len(shards)
        for eid in ni.out_edges:
            ei = info.edges[eid]
            # data this host ships, or the client or a `dat` node awaits
            if (ei.to_result or self.host_id in ei.addr_hosts
                    or st.meta.modes[ei.dst] == "dat"):
                self._mark_src_ready(instance, eid, shards)
        if st.kdone[nid] == len(ni.local_shards[self.host_id]):
            # this host's part of the node ended: let go of what it read
            for eid in ni.in_edges:
                ei = info.edges[eid]
                if self.host_id in ei.drainers:
                    self._send(f"host{ei.src_home}", "drain",
                               {"instance": instance, "edge": eid,
                                "from_host": self.host_id}, critical=False)
            if self.host_id in ni.recv_rows:
                self.store.release(info.recv_handle(instance, nid,
                                                    self.host_id))
        self._count_down(instance, st, len(shards))

    def _on_drain(self, payload: dict) -> None:
        instance, eid = payload["instance"], payload["edge"]
        st = self.inst.get(instance)
        if st is None:
            return
        # the buffer the edge reads, which this host (`src_home`) holds
        info = st.meta.program
        ei = info.edges[eid]
        self.store.release(info.arg_handle(instance, ei.src) if ei.from_arg
                           else info.out_handle(instance, ei.src, ei.src_port))
        self._count_down(instance, st, 1)

    # -- teardown ----------------------------------------------------------

    def _count_down(self, instance: str, st: _InstState, n: int) -> None:
        st.left -= n                    # the part's last event drops it
        if not st.left:
            self._drop(instance)

    def _drop(self, instance: str) -> None:
        """Forget an instance here and free the buffers it owns."""
        del self.inst[instance]
        self.tracker.forget(instance)
        self.store.gc_owner(instance)

    def _on_client_failed(self, payload: dict) -> None:
        client = payload["client"]
        self.failed_clients.add(f"client.{client}")
        for instance in sorted(self.inst):
            if self.inst[instance].meta.client == client:
                self._fail_instance(instance)
        self.store.gc_owner(client)

    def _fail_instance(self, instance: str) -> None:
        """Abort its kernels here, give back its unprepped grants, drop it."""
        st = self.inst[instance]
        info = st.meta.program
        for nid in info.nodes:
            # granted but never prepped here: the grant-time reservation is
            # not represented by any store row yet
            if (st.meta.modes[nid] == "go" and nid in st.ticket
                    and st.prep.get(nid) != "done"):
                self._release_grant_reservation(info, instance, nid)
        for nid, ni in info.nodes.items():
            mine = ni.local_shards.get(self.host_id, ())
            if st.kdone.get(nid, 0) >= len(mine):
                continue
            # the gang no longer completes, even if a kernel of it still runs
            self.runtime.gang_left.pop((instance, nid), None)
            if st.prep.get(nid) != "done":
                continue
            # once prepped, a granted shard may have its kernel on the device
            # and a shard with remote inputs may have inputs landing there
            for dev in ni.local_devices[self.host_id]:
                if nid in st.ticket or dev in ni.input_sources:
                    self.sim.send(self.pid, f"dev{dev}", "abort_kernel",
                                  {"instance": instance, "node": nid},
                                  latency=self.cluster.spec.pcie.latency_ns)
        self._drop(instance)

    # -- introspection -----------------------------------------------------

    def obligations(self) -> list[str]:
        out = [f"{len(self._tasks)} queued host tasks"] if self._tasks else []
        out += [f"{i}: {st.left} local kernels, addr and drain messages still"
                " to come" for i, st in sorted(self.inst.items())]
        if n := self.tracker.pending_count():
            out.append(f"readiness state of {n} nodes left behind")
        return out
