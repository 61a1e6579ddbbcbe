"""Per-host executor: prep, enqueue, transfers, and buffer lifecycles.

A host serializes its control work (prep and kernel enqueue run one task at
a time), mirrors its slice of every running program instance, launches DMA
transfers once it holds both the producer data and the consumer addresses,
and keeps the store's logical refcounts honest via drain reports. It has
one delivery rule: an edge update, `addr` or `drain` to itself is a call,
and one to another host lands a control latency later. Every channel
carries one latency (control to hosts and the scheduler, PCIe to its
devices, client RPC to its clients), which alone keeps it in order: the
simulator delivers by (time, seq) and keeps nothing per channel. The
prep and enqueue of a granted gang are one task, which costs both and
applies the prep effects, then the enqueue effects, when it ends; a node
prepped on its inputs (host-gated) enqueues in a task of its own once
granted.

Device traffic is per host: a host's share of a gang is one `KernelExec`
record, whose shards, devices and input sources are static per (node,
host) in `NodeInfo`. One PCIe message enqueues it on the host's devices, and
one `kernel_done` lists the shards of a collective on the host, which it
marks done in one pass. A result's shards reach the client in one `result`
per host, a collective's in one from its home host. The host keeps no
record once it is sent: an abort names the (instance, node) alone.

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

Per instance a host keeps only unfinished work (`_InstState`): the count
of its part's events still to come, and the ended kernels per node, which
a failure reads. A node's prep mark and grant go when its kernels here
end. An edge's state here, the sending source shards done and the addr
rows heard (the static rows of `EdgeInfo.inbound`), goes as its last pair
from this host launches (`EdgeInfo.sends`). A host drops an instance at
the last event of its part, `ProgramInfo.ends`; a client's `release`
reads no instance state. An instance fails only with
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
and the node's home host, which source shards of an edge it closes there,
in one message. A host preps the node once each (edge, source shard) it
waits for is closed, `NodeInfo.waits`: the home host all of them, another
only its pairs'.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .config import BatchingConfig, CostModel
from .coord import MessageBatcher, ProgressTracker
from .hardware import Cluster, KernelExec
from .simcore import Process, Simulator
from .store import HostStore
from .tables import ProgramInfo


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
    # nodes whose kernels here have not all ended: queued to prep or
    # prepped, and granted
    prep: dict[str, str] = field(default_factory=dict)    # node -> queued/done
    ticket: set[str] = field(default_factory=set)
    kdone: dict[str, int] = field(default_factory=dict)   # node -> local done
    # edges with a pair still to launch from here: the sending source
    # shards done, and the addr rows heard, in order
    src_done: dict[str, set] = field(default_factory=dict)
    addr: dict[str, list] = field(default_factory=dict)


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

    def _send(self, dst: str, kind: str, payload: dict) -> None:
        if dst == self.pid:     # it lands now: a call, no event
            return self.handle(kind, payload, self.pid)
        self.stats["ctrl_msgs"] += 1
        self.sim.send(self.pid, dst, kind, payload, self.control_latency_ns)

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
                            "from_host": self.host_id})

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
                       {"instance": instance, "edge": eid, "srcs": out[ch]})

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
        sends = st.meta.program.edges[eid].sends.get(self.host_id)
        if sends is not None:
            new = [s for s in shards if s in sends[0]]
            if new:
                st.src_done.setdefault(eid, set()).update(new)
                self._launch(instance, st, eid, st.addr.get(eid, ()), new)
        if shards:
            self._emit_edge_update(instance, eid, shards, "dat")

    def _on_addr(self, payload: dict) -> None:
        instance, eid = payload["instance"], payload["edge"]
        st = self.inst.get(instance)
        if st is None:
            return
        rows = payload["pairs"]         # the static rows of `EdgeInfo.inbound`
        st.addr.setdefault(eid, []).append(rows)
        self._launch(instance, st, eid, (rows,), st.src_done.get(eid, ()))
        self._count_down(instance, st, 1)

    def _launch(self, instance: str, st: _InstState, eid: str,
                heard: list | tuple, srcs: set | list) -> None:
        """Start each pair of the `heard` addr rows whose source shard is in
        `srcs`: those that now have both data and address. The edge's state
        goes with its last pair."""
        info = st.meta.program
        ei = info.edges[eid]
        # the sources are on this host: the addr came here
        src_devs = (info.args[ei.src].placement if ei.from_arg
                    else info.nodes[ei.src].devices)
        for rows in heard:
            for src_shard, dst_shard, dst_dev, nbytes in rows:
                if src_shard in srcs:
                    self.cluster.transfer(src_devs[src_shard], dst_dev, nbytes,
                                          instance, ei.dst, dst_shard)
        shards, msgs = ei.sends[self.host_id]
        if (len(st.src_done.get(eid, ())) == len(shards)
                and len(st.addr.get(eid, ())) == msgs):
            del st.src_done[eid], st.addr[eid]

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
            if (ei.to_result or self.host_id in ei.sends
                    or st.meta.modes[ei.dst] == "dat"):
                self._mark_src_ready(instance, eid, shards)
        if st.kdone[nid] == len(ni.local_shards[self.host_id]):
            # this host's part of the node ended: let go of its grant and
            # prep marks and of what it read
            st.ticket.remove(nid)
            del st.prep[nid]
            for eid in ni.in_edges:
                ei = info.edges[eid]
                if self.host_id in ei.drainers:
                    self._send(f"host{ei.src_home}", "drain",
                               {"instance": instance, "edge": eid,
                                "from_host": self.host_id})
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
        out += [f"{i}: ready marks left behind" for i in self.tracker.marked()]
        return out
