"""A program's static tables, built once per distinct shape, looked up by
value: an edge's placements, sizes per shard and consumer kind fix its
reshard pairs, planned here, and their tables; a node's placement, in-edge
plans, output sizes and created args fix its host, input and HBM tables.
So a program of many nodes of few shapes costs the few in setup time and
memory. The tables are read-only once built. They hold what prep reads per
host, such as each consumer host's addr rows; the (device, bytes) rows of
outputs and args are shared per shape too, in `ProgramInfo.rows`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .config import ValidationError
from .coord import edge_id
from .hardware import Cluster
from .ir import (ArgNode, CompiledFunction, LoweredProgram, ResultNode,
                 ShardPair, plan_reshard)
from .store import ShardRows


@dataclass(slots=True)
class EdgeInfo:
    src: str
    dst: str
    src_port: int
    dst_port: int
    to_result: bool
    pairs: tuple[ShardPair, ...]        # planned once per edge shape
    # consumer host -> the addr rows of its remote pairs, by sorted source host
    inbound: dict[int, tuple[tuple[int, tuple], ...]]
    # the consumer hosts that each send one drain when their kernels of the
    # node end: every host with a pair, a collective's home host alone
    drainers: tuple[int, ...]
    chosts_by_src: dict[int, tuple[int, ...]]   # src shard -> consumer hosts
    # source host -> (its source shards with a remote pair, the addr
    # messages it hears): its pairs have all launched once both are in
    sends: dict[int, tuple[frozenset[int], int]]
    src_home: int                                 # host holding the source
    from_arg: bool                                # source is any arg node


@dataclass(slots=True)
class NodeInfo:
    nid: str
    fn: CompiledFunction
    devices: tuple[int, ...]                     # shard -> device
    collective: bool                 # `fn.collective`, on 2 or more devices
    in_edges: tuple[str, ...]
    out_edges: tuple[str, ...]
    args_created: tuple[str, ...]
    # the rest is shared by every node of the shape
    local_shards: dict[int, tuple[int, ...]]     # host -> shard indices
    local_devices: dict[int, tuple[int, ...]]    # host -> their devices
    hosts: tuple[int, ...]
    home_host: int
    input_sources: dict[int, tuple[int, ...]]    # device -> producer per arrival
    recv_rows: dict[int, tuple[tuple[int, int], ...]]   # host -> landing rows
    waits: dict[int, int]                        # host -> gating source shards
    hbm_by_device: dict[int, int]                # the gang's HBM ask


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
    with the scheduler, which only reads it. They hold no traced or
    lowered graph: `irregular` is set once, at registration. Only
    `plans`, `digests` and `rows` fill in as instances run; `digests` on
    the first finish.
    """

    pid: str
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
    # the data-dependent nodes, which parallel dispatch refuses
    irregular: tuple[str, ...] = ()
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
                 collective: bool) -> tuple[dict, tuple, dict, dict]:
    """An edge's tables: consumer host -> the addr rows of its remote pairs
    grouped by sorted source host, the drainers, source shard -> its
    sorted consumer hosts, and source host -> (the shards it sends, the
    addr messages it hears). A collective's kernels all end in one event,
    so its home host drains alone."""
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
    sends: dict[int, tuple[frozenset[int], int]] = {}
    for by_src in inbound.values():
        for sh, rows in by_src:
            shards, heard = sends.get(sh, (frozenset(), 0))
            sends[sh] = shards | {r[0] for r in rows}, heard + 1
    return (inbound, drainers, {s: tuple(hs) for s, hs in chosts.items()},
            sends)


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


def _hbm_ask(info: ProgramInfo, ni: NodeInfo, capacity: int) -> dict[int, int]:
    """The gang's HBM ask: every row any host creates for the node (the
    handles, named for no instance here, go unused). An ask that fits no
    device would park at the scheduler forever: it is bad input."""
    hbm = dict.fromkeys(ni.devices, 0)
    makers = {*ni.hosts, *(info.args[a].home_host for a in ni.args_created)}
    for host in sorted(makers):
        for _h, shards, _rc, _held in info.buffers("", ni.nid, host):
            for dev, nbytes in shards:
                hbm[dev] = hbm.get(dev, 0) + nbytes
    for dev, need in sorted(hbm.items()):
        if need > capacity:
            raise ValidationError(f"node {ni.nid} needs {need} bytes of HBM "
                                  f"on device {dev}, which has {capacity}")
    return hbm


def _edge_shape(key: tuple, host_of, plans: dict, empty: dict) -> tuple:
    """An edge shape's entry: its plan's number, the `EdgeInfo` fields
    from `pairs` to `src_home`, and its `ends` counts (a drain per drainer,
    an addr per consumer and source host). An empty plan is numbered by
    its source shards, all a consumer reads of it."""
    sdevs, ddevs, sbytes, dbytes, collective = key
    plan = plans.get(key[:4])
    if plan is None:
        pairs = ddevs and tuple(       # none into a result, no ddevs
            ShardPair(s, d, nb, sdevs[s], ddevs[d]) for s, d, nb, _sd, _dd
            in plan_reshard(len(sdevs), sbytes, len(ddevs), dbytes))
        plan = plans[key[:4]] = (len(plans) if pairs else -len(sdevs), pairs)
    no, pairs = plan
    if pairs:
        tables = _pair_tables(pairs, host_of, collective)
    else:
        tables = empty.get(collective) or empty.setdefault(
            collective, _pair_tables((), host_of, collective))
    _inbound, drainers, _chosts, sends = tables
    home = host_of[sdevs[0]]
    ends = {home: len(drainers)} if drainers else {}
    for sh, (_shards, heard) in sends.items():
        ends[sh] = ends.get(sh, 0) + heard
    return no, (pairs, *tables, home), tuple(ends.items())


def build_program_info(pid: str, lp: LoweredProgram, cluster: Cluster) -> ProgramInfo:
    """One pass over the edges, then one over the nodes in trace order (an
    arg before its creator), each looking its shape's entry up by value."""
    p = lp.program
    pnodes, placement = p.nodes, lp.placement
    host_of = {d.device_id: d.host_id for d in cluster.devices}
    edges: dict[str, EdgeInfo] = {}
    # node -> its in- and out-edge ids in edge order, and its in-edges'
    # (plan number, from an arg)
    ins: dict[str, tuple[str, ...]] = {}
    outs: dict[str, tuple[str, ...]] = {}
    in_plans: dict[str, tuple] = {}
    grown: list[tuple[dict, str]] = []
    ends: dict[int, int] = {}
    # edge shape -> entry: both placements and sizes per shard and a
    # collective consumer (its kernels end in one event); none for a result
    shapes: dict[tuple, tuple] = {}
    plans: dict[tuple, tuple] = {}
    empty: dict[bool, tuple] = {}
    for e in p.edges:
        src, dst, src_port, dst_port = e
        sn, dn = pnodes[src], pnodes[dst]
        sdevs = placement[src]
        from_arg, to_result = isinstance(sn, ArgNode), isinstance(dn, ResultNode)
        key = (sdevs, (), 0, 0, False) if to_result else (
            sdevs, placement[dst],
            sn.bytes_per_shard if from_arg else sn.fn.out_bytes[src_port],
            dn.fn.in_bytes[dst_port],
            dn.fn.collective and len(placement[dst]) > 1)
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = _edge_shape(key, host_of, plans, empty)
        no, shared, incs = shape
        eid = edge_id(src, dst, dst_port)
        edges[eid] = EdgeInfo(*e, to_result, *shared, from_arg)  # Edge first
        for h, k in incs:
            ends[h] = ends.get(h, 0) + k
        # a node's first edge starts a tuple, its second a list: linear
        # in its edge count, as fast as tuples for one edge
        have = ins.get(dst)
        if have is None:
            ins[dst], in_plans[dst] = (eid,), (no, from_arg)
        elif type(have) is tuple:
            ins[dst] = [*have, eid]
            in_plans[dst] = [*in_plans[dst], no, from_arg]
            grown += (ins, dst), (in_plans, dst)
        else:
            have.append(eid)
            in_plans[dst] += no, from_arg
        have = outs.get(src)
        if have is None:
            outs[src] = (eid,)
        elif type(have) is tuple:
            outs[src] = [*have, eid]
            grown.append((outs, src))
        else:
            have.append(eid)
    for table, nid in grown:        # each list becomes a tuple once
        table[nid] = tuple(table[nid])

    results = tuple((rid, edges[ins[rid][0]].src, edges[ins[rid][0]].src_port)
                    for rid in p.results)
    nodes: dict[str, NodeInfo] = {}
    args: dict[str, ArgInfo] = {}
    # made before the node pass fills it: a node's HBM ask reads its buffers
    info = ProgramInfo(
        pid=pid, order=(), nodes=nodes, args=args, edges=edges,
        results=results, ends=ends,
        result_bufs=tuple(dict.fromkeys((s, port) for _r, s, port in results)),
        result_shards=sum(len(placement[s]) for _r, s, _p in results))
    created: dict[str, tuple[str, ...]] = {}    # node -> the args it creates
    # node shape (placement, in-edge plans, output sizes, created args:
    # what fixes its HBM ask) -> the `NodeInfo` fields its nodes share
    node_shapes: dict[tuple, list] = {}
    placed: dict[tuple[int, ...], tuple] = {}
    inputs: dict[tuple, tuple] = {}
    for nid, n in pnodes.items():
        if isinstance(n, ResultNode):
            continue
        devs = placement[nid]
        if isinstance(n, ArgNode):
            by_host = placed.get(devs) or placed.setdefault(
                devs, _by_host(devs, host_of))
            args[nid] = ArgInfo(n.shards, n.bytes_per_shard, devs,
                                host_of[devs[0]], by_host[0], outs.get(nid, ()))
            maker = lp.arg_consumers[nid]
            have = created.get(maker)           # grown as `ins` is
            if have is None:
                created[maker] = (nid,)
            elif type(have) is tuple:
                created[maker] = [*have, nid]
            else:
                have.append(nid)
            continue
        in_edges, made = ins.get(nid, ()), created.get(nid, ())
        if type(made) is list:
            made = tuple(made)
        key = (devs, in_plans.get(nid, ()), n.fn.out_bytes,
               tuple([(args[a].shards, args[a].bytes_per_shard)
                      for a in made]) if made else ())
        shape = node_shapes.get(key)
        if shape is None:
            by_host = placed.get(devs) or placed.setdefault(
                devs, _by_host(devs, host_of))
            table = inputs.get(key[:2]) or inputs.setdefault(
                key[:2], _inputs(devs, tuple([
                    (ei.pairs, len(placement[ei.src]), ei.from_arg)
                    for ei in map(edges.__getitem__, in_edges)]), host_of))
            shape = node_shapes[key] = [*by_host, host_of[devs[0]], *table,
                                        None]
        ni = nodes[nid] = NodeInfo(nid, n.fn, devs,
                                   n.fn.collective and len(devs) > 1,
                                   in_edges, outs.get(nid, ()), made, *shape)
        if shape[-1] is None:        # its buffers fix the shape's HBM ask
            shape[-1] = ni.hbm_by_device = _hbm_ask(info, ni,
                                                    cluster.spec.hbm_bytes)
        for h, mine in ni.local_shards.items():
            ends[h] = ends.get(h, 0) + len(mine)
    info.order, info.ends = tuple(nodes), dict(sorted(ends.items()))
    return info
