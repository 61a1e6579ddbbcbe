"""Accelerator island model: devices, links, kernel queues, HBM.

Devices execute kernels from a FIFO queue, one at a time, non-preemptible.
A host's share of a gang is one `KernelExec` record: one `enqueue_kernel`
message carries it, and each of the host's devices appends it to its own
queue (gangs of different programs interleave per device) and runs its
shard when the record reaches its head. A collective kernel blocks its
device at the head of the queue until every member of the group has
reached the matching kernel. The rendezvous keeps the member hosts'
records, each with a count of its devices arrived so far; the last arrival
schedules one `collective_done` event, which finishes the records one by
one at the same virtual instant, and the cluster hook hears them all in one
call. Data transfers ride DMA paths and overlap compute. A landing tells
only its device, which counts it towards the kernel's inputs; its host
hears nothing until the kernel ends. A device aborts an (instance, node)
by key: it drops the inputs landed and to land, and the record, at the
rendezvous now or else at the head of its queue. HBM is a per-device byte
budget that the gang scheduler reserves from.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from .config import ClusterSpec, LinkSpec
from .simcore import NS_PER_S, Process, Simulator


class HBMError(Exception):
    pass


class PermanentAllocationError(HBMError):
    """Single request exceeds device capacity: can never succeed."""


def transfer_ns(link: LinkSpec, nbytes: int) -> int:
    """Latency plus serialization time, rounded up to whole nanoseconds."""
    if nbytes < 0:
        raise ValueError("negative transfer size")
    if nbytes == 0:
        return link.latency_ns
    bps = link.bytes_per_sec
    return link.latency_ns + (nbytes * NS_PER_S + bps - 1) // bps


@dataclass(slots=True, eq=False)
class KernelExec:
    """A host's share of one gang: the kernel of each of its shards.

    Shard `shards[i]` runs on device `devices[i]`, and every one of those
    devices queues this same record. Compared by identity.
    """

    instance: str
    node: str
    shards: tuple[int, ...]
    devices: tuple[int, ...]
    duration_ns: int
    # device -> producer device per inbound transfer it waits for; a device
    # not named waits for none
    input_sources: dict[int, tuple[int, ...]]
    collective_key: str | None = None   # rendezvous id; None = independent
    group: tuple[int, ...] = ()         # a collective's member devices

    def shard_on(self, device: int) -> int:
        return self.shards[self.devices.index(device)]

    @property
    def group_size(self) -> int:
        return len(self.group)


class DeviceProcess(Process):
    """One accelerator. pid is "dev<N>"."""

    def __init__(self, sim: Simulator, cluster: "Cluster", device_id: int,
                 host_id: int, island_id: int, hbm_capacity: int):
        super().__init__(sim, f"dev{device_id}")
        self.cluster = cluster
        self.device_id = device_id
        self.host_id = host_id
        self.island_id = island_id
        self.hbm_capacity = hbm_capacity
        self.free_bytes = hbm_capacity
        self.queue: deque[KernelExec] = deque()
        self.executing: KernelExec | None = None
        self._exec_start = 0
        # (instance, node) -> inputs landed; a node has one shard per device
        self._arrivals: dict[tuple[str, str], int] = {}
        # the (instance, node) keys told to abort here, whose record or
        # inputs may still come: only a dead client's instances in flight
        self._aborted: set[tuple[str, str]] = set()
        self.busy_ns = 0  # accumulated kernel time, for utilization audits

    # -- kernel queue ------------------------------------------------------

    def handle(self, kind: str, payload: dict, src: str | None) -> None:
        if kind == "enqueue_kernel":
            k = payload["kernel"]
            devices = self.cluster.devices
            for device_id in k.devices:
                dev = devices[device_id]
                dev.queue.append(k)
                if dev.executing is None:
                    dev._try_start()
        elif kind == "transfer_arrive":
            key = (payload["instance"], payload["node"])
            if key not in self._aborted:
                self._arrivals[key] = self._arrivals.get(key, 0) + 1
                self._try_start()
        elif kind == "kernel_done":
            k = self._finish(self.sim.now())
            self.cluster.on_kernels_done([k], [[k.shard_on(self.device_id)]])
            self._try_start()
        elif kind == "collective_done":
            # finish each member record on its devices, report them all at
            # once, then start each member's next kernel
            devices = self.cluster.devices
            end = self.sim.now()
            recs = payload["records"]
            for k in recs:
                for d in k.devices:
                    devices[d]._finish(end)
            self.cluster.on_kernels_done(recs, [list(k.shards) for k in recs])
            for k in recs:
                for d in k.devices:
                    devices[d]._try_start()
        elif kind == "abort_kernel":
            self._abort(payload)
        else:
            raise ValueError(f"device {self.device_id}: unknown message {kind}")

    def _inputs_ready(self, k: KernelExec) -> bool:
        srcs = k.input_sources.get(self.device_id)
        return (srcs is None
                or self._arrivals.get((k.instance, k.node), 0) >= len(srcs))

    def _try_start(self) -> None:
        queue = self.queue
        while self.executing is None and queue:
            head = queue[0]
            if self._aborted and (head.instance, head.node) in self._aborted:
                queue.popleft()
                continue
            if not self._inputs_ready(head):
                return
            self.executing = head
            self._exec_start = self.sim.now()
            if head.collective_key is None:
                self.sim.schedule_in(head.duration_ns, self.pid, "kernel_done")
            else:
                self.cluster.collective_arrive(self, head)

    def _at_rendezvous(self) -> bool:
        """Executing a collective whose group has not all arrived yet."""
        ex = self.executing
        return ex is not None and ex.collective_key in self.cluster._rendezvous

    def _finish(self, end: int) -> KernelExec:
        k = self.executing
        assert k is not None
        self.executing = None
        self.queue.popleft()
        if self._arrivals:
            self._arrivals.pop((k.instance, k.node), None)
        start = self._exec_start
        self.busy_ns += end - start
        if self.sim.record_trace:
            self.sim.trace_span(self.host_id, self.device_id,
                                f"{k.node}[{k.shard_on(self.device_id)}]",
                                start, end, "kernel", k.instance)
        return k

    def _abort(self, payload: dict) -> None:
        """Drop a failed instance's node here by its key: its inputs,
        landed or to land, and its record, at the rendezvous now or else
        at the head of the queue."""
        key = (payload["instance"], payload["node"])
        self._aborted.add(key)
        self._arrivals.pop(key, None)
        k = self.executing
        if (k is not None and (k.instance, k.node) == key
                and self._at_rendezvous()):
            # nothing ran yet; a kernel past the rendezvous, or one that
            # needs none, is non-preemptible and finishes
            self.cluster.rendezvous_cancel(self, k)
            self.executing = None
            self.queue.popleft()
        self._try_start()

    # -- HBM ---------------------------------------------------------------

    def hbm_try_take(self, nbytes: int) -> bool:
        """Deduct bytes if available. Used by the gang reservation path."""
        if nbytes > self.hbm_capacity:
            raise PermanentAllocationError(
                f"dev{self.device_id}: request {nbytes} exceeds capacity "
                f"{self.hbm_capacity}")
        if nbytes <= self.free_bytes:
            self.free_bytes -= nbytes
            return True
        return False

    # -- introspection -----------------------------------------------------

    def obligations(self) -> list[str]:
        out = []
        if self.executing is not None:
            k = self.executing
            out.append(f"incomplete kernel {k.instance}/{k.node}"
                       f"[{k.shard_on(self.device_id)}]")
        elif self.queue:
            out.append(f"{len(self.queue)} queued kernels")
        if self._arrivals:
            out.append(f"stray inputs landed for {len(self._arrivals)} nodes")
        if self.free_bytes != self.hbm_capacity:
            out.append(f"{self.hbm_capacity - self.free_bytes} HBM bytes leaked")
        return out

    def wait_edges(self) -> list[tuple[str, str]]:
        edges = []
        if self._at_rendezvous():
            # a member device not executing a record of this rendezvous
            # has not reached it
            key = self.executing.collective_key
            devices = self.cluster.devices
            edges += [(self.pid, f"dev{d}")
                      for d in sorted(self.executing.group)
                      if getattr(devices[d].executing, "collective_key",
                                 None) != key]
        elif self.queue and not self._inputs_ready(self.queue[0]):
            srcs = self.queue[0].input_sources[self.device_id]
            edges += [(self.pid, f"dev{d}") for d in srcs
                      if d != self.device_id]
        return edges


class Cluster:
    """Topology container: islands, hosts, devices, link pricing, collectives.

    Hooks (`on_kernels_done`, `on_hbm_freed`) are filled in by the runtime
    layer; they default to no-ops so hardware can be unit-tested standalone.
    A dropped record reports nothing.
    """

    def __init__(self, sim: Simulator, spec: ClusterSpec):
        self.sim = sim
        self.spec = spec
        self.devices: list[DeviceProcess] = []
        self.island_devices: dict[int, list[int]] = {}
        self.host_devices: dict[int, list[int]] = {}
        # collective key -> [member devices still to arrive, {record: its
        # devices arrived}], records in order of their first arrival
        self._rendezvous: dict[str, list] = {}
        did = 0
        hid = 0
        for iid, isl in enumerate(spec.islands):
            self.island_devices[iid] = []
            for _h in range(isl.hosts):
                self.host_devices[hid] = []
                for _d in range(isl.devices_per_host):
                    dev = DeviceProcess(sim, self, did, hid, iid, spec.hbm_bytes)
                    self.devices.append(dev)
                    self.island_devices[iid].append(did)
                    self.host_devices[hid].append(did)
                    did += 1
                hid += 1
        self.host_pids = [f"host{h}" for h in range(hid)]   # host -> its pid

    # hooks, overridden by the runtime layer
    def on_kernels_done(self, records: list[KernelExec], shards: list) -> None:
        """These shards of each record ended now: one, or a collective's."""

    def on_hbm_freed(self, dev: DeviceProcess) -> None:
        pass

    def release_hbm(self, shards: Iterable[tuple[int, int]]) -> None:
        """Return (device, bytes) per shard. Once every shard is back, tell
        each island that got bytes, once, so its parked gangs retry with
        all of them. A device left with more free bytes than it has (a
        double free) raises."""
        freed = {}                              # island -> a device of it
        devices = self.devices
        for device_id, nbytes in shards:
            if nbytes:
                dev = devices[device_id]
                dev.free_bytes += nbytes
                if dev.free_bytes > dev.hbm_capacity:
                    raise HBMError(f"dev{device_id}: free {dev.free_bytes} "
                                   "exceeds capacity (double free?)")
                freed.setdefault(dev.island_id, dev)
        for dev in freed.values():
            self.on_hbm_freed(dev)

    # -- links -------------------------------------------------------------

    def device(self, device_id: int) -> DeviceProcess:
        return self.devices[device_id]

    def link_between(self, src_dev: int, dst_dev: int) -> tuple[str, LinkSpec]:
        a, b = self.devices[src_dev], self.devices[dst_dev]
        if a.island_id == b.island_id:
            return "ici", self.spec.islands[a.island_id].ici
        return "dcn", self.spec.dcn

    def transfer(self, src_dev: int, dst_dev: int, nbytes: int,
                 instance: str, node: str, shard: int) -> int:
        """Launch a DMA transfer into `shard` of `node`; returns its arrival
        time at dst, where it counts towards the kernel's inputs."""
        if src_dev == dst_dev:
            dur = 0
        else:
            kind, link = self.link_between(src_dev, dst_dev)
            dur = transfer_ns(link, nbytes)
        arrive = self.sim.now() + dur
        self.sim.schedule_at(arrive, f"dev{dst_dev}", "transfer_arrive",
                             {"instance": instance, "node": node})
        if dur > 0 and self.sim.record_trace:
            dst = self.devices[dst_dev]
            self.sim.trace_span(dst.host_id, 200_000 + dst_dev,
                                f"xfer {node}[{shard}]", self.sim.now(), arrive,
                                "transfer", instance)
        return arrive

    # -- collectives -------------------------------------------------------

    def collective_arrive(self, dev: DeviceProcess, k: KernelExec) -> None:
        """One member device reached the rendezvous, now."""
        key = k.collective_key
        assert key is not None
        rv = self._rendezvous.get(key)
        if rv is None:
            rv = self._rendezvous[key] = [k.group_size, {}]
        records = rv[1]
        records[k] = records.get(k, 0) + 1
        rv[0] -= 1
        if rv[0] == 0:
            # this is the last arrival: one event finishes every record
            del self._rendezvous[key]
            self.sim.schedule_in(k.duration_ns, dev.pid, "collective_done",
                                 {"records": list(records)})

    def rendezvous_cancel(self, dev: DeviceProcess, k: KernelExec) -> None:
        rv = self._rendezvous.get(k.collective_key or "")
        if rv is not None:
            records = rv[1]
            rv[0] += 1
            records[k] -= 1
            if not records[k]:
                del records[k]
                if not records:
                    del self._rendezvous[k.collective_key]


def enqueue_kernel(sim: Simulator, rec: KernelExec,
                   at: int | None = None) -> None:
    """Low-level enqueue, for driving devices without a host executor."""
    sim.schedule_at(at if at is not None else sim.now(),
                    f"dev{rec.devices[0]}", "enqueue_kernel", {"kernel": rec})
