"""Accelerator island model: devices, links, kernel queues, HBM.

Devices execute kernels from a FIFO queue, one at a time, non-preemptible.
A collective kernel blocks its device at the head of the queue until every
member of the group has reached the matching kernel; all members then
complete at the same virtual instant. Data transfers ride DMA paths and
overlap compute. HBM is a per-device byte budget that the gang scheduler
reserves from.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class KernelExec:
    """One enqueued unit of device work."""

    instance: str
    node: str
    shard: int
    duration_ns: int
    expected_inputs: int = 0            # pending inbound transfers
    collective_key: str | None = None   # group id; None = independent kernel
    group_size: int = 1
    input_sources: tuple[int, ...] = ()  # producer devices, for the wait graph
    aborted: bool = False

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.instance, self.node, self.shard)


@dataclass
class _Rendezvous:
    expected: int
    duration_ns: int
    arrived: list[tuple[int, int]] = field(default_factory=list)  # (device, t)


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
        self.queue: list[KernelExec] = []
        self.executing: KernelExec | None = None
        self._exec_start = 0
        self._arrivals: dict[tuple[str, str, int], int] = {}
        self._blocked_on_collective = False
        self.busy_ns = 0  # accumulated kernel time, for utilization audits

    # -- kernel queue ------------------------------------------------------

    def handle(self, kind: str, payload: dict, src: str | None) -> None:
        if kind == "enqueue_kernel":
            self.queue.append(payload["kernel"])
            self._try_start()
        elif kind == "transfer_arrive":
            key = (payload["instance"], payload["node"], payload["shard"])
            self._arrivals[key] = self._arrivals.get(key, 0) + 1
            self.cluster.on_transfer_arrive(self, payload)
            self._try_start()
        elif kind == "kernel_done":
            self._finish(payload)
        elif kind == "abort_kernel":
            self._abort(payload)
        else:
            raise ValueError(f"device {self.device_id}: unknown message {kind}")

    def _inputs_ready(self, k: KernelExec) -> bool:
        return self._arrivals.get(k.key, 0) >= k.expected_inputs

    def _try_start(self) -> None:
        if self.executing is not None or not self.queue:
            return
        head = self.queue[0]
        if head.aborted:
            self.queue.pop(0)
            self._arrivals.pop(head.key, None)
            self.cluster.on_kernel_aborted(self, head)
            self._try_start()
            return
        if not self._inputs_ready(head):
            return
        self.executing = head
        self._exec_start = self.sim.now()
        if head.collective_key is None:
            self.sim.schedule_in(head.duration_ns, self.pid, "kernel_done", {})
        else:
            self._blocked_on_collective = True
            self.cluster.collective_arrive(self, head)

    def collective_release(self, complete_at: int) -> None:
        """All group members arrived; complete together at complete_at."""
        self._blocked_on_collective = False
        self.sim.schedule_at(complete_at, self.pid, "kernel_done", {})

    def _finish(self, payload: dict) -> None:
        k = self.executing
        assert k is not None
        self.executing = None
        self.queue.pop(0)
        self._arrivals.pop(k.key, None)
        start, end = self._exec_start, self.sim.now()
        self.busy_ns += end - start
        self.sim.trace_span(self.host_id, self.device_id,
                            f"{k.node}[{k.shard}]", start, end, "kernel",
                            k.instance)
        self.cluster.on_kernel_done(self, k, start, end)
        self._try_start()

    def _abort(self, payload: dict) -> None:
        key = (payload["instance"], payload["node"], payload["shard"])
        ex = self.executing
        if ex is not None and ex.key == key and self._blocked_on_collective:
            # still waiting at the rendezvous, so nothing ran yet; a kernel
            # already past the rendezvous is non-preemptible and finishes
            self.cluster.rendezvous_cancel(self, ex)
            self._blocked_on_collective = False
            self.executing = None
            self.queue.pop(0)
            self._arrivals.pop(ex.key, None)
            ex.aborted = True
            self.cluster.on_kernel_aborted(self, ex)
        for k in self.queue:
            if k.key == key and k is not self.executing:
                k.aborted = True
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

    def hbm_release(self, nbytes: int) -> None:
        """Return bytes; the cluster hook lets waiting gangs retry."""
        self.free_bytes += nbytes
        if self.free_bytes > self.hbm_capacity:
            raise HBMError(f"dev{self.device_id}: free {self.free_bytes} "
                           f"exceeds capacity (double free?)")
        self.cluster.on_hbm_freed(self)

    # -- introspection -----------------------------------------------------

    def obligations(self) -> list[str]:
        out = []
        if self.executing is not None:
            out.append(f"incomplete kernel {self.executing.key}")
        elif self.queue:
            out.append(f"{len(self.queue)} queued kernels")
        return out

    def wait_edges(self) -> list[tuple[str, str]]:
        edges = []
        if self.executing is not None and self._blocked_on_collective:
            missing = self.cluster.collective_missing(self.executing)
            edges += [(self.pid, f"dev{d}") for d in missing]
        elif self.queue and not self._inputs_ready(self.queue[0]):
            head = self.queue[0]
            edges += [(self.pid, f"dev{d}") for d in head.input_sources
                      if d != self.device_id]
        return edges


class Cluster:
    """Topology container: islands, hosts, devices, link pricing, collectives.

    Hooks (on_kernel_done and friends) are filled in by the runtime layer;
    they default to no-ops so hardware can be unit-tested standalone.
    """

    def __init__(self, sim: Simulator, spec: ClusterSpec):
        self.sim = sim
        self.spec = spec
        self._group_of: dict[str, tuple[int, ...]] = {}
        self.devices: list[DeviceProcess] = []
        self.island_devices: dict[int, list[int]] = {}
        self.host_devices: dict[int, list[int]] = {}
        self.host_island: dict[int, int] = {}
        self._rendezvous: dict[str, _Rendezvous] = {}
        did = 0
        hid = 0
        for iid, isl in enumerate(spec.islands):
            self.island_devices[iid] = []
            for _h in range(isl.hosts):
                self.host_devices[hid] = []
                self.host_island[hid] = iid
                for _d in range(isl.devices_per_host):
                    dev = DeviceProcess(sim, self, did, hid, iid, spec.hbm_bytes)
                    self.devices.append(dev)
                    self.island_devices[iid].append(did)
                    self.host_devices[hid].append(did)
                    did += 1
                hid += 1
        self.host_count = hid

    # hooks, overridden by the runtime layer
    def on_kernel_done(self, dev: DeviceProcess, k: KernelExec,
                       start: int, end: int) -> None:
        self.sim.note_completion(k.instance, k.node)

    def on_kernel_aborted(self, dev: DeviceProcess, k: KernelExec) -> None:
        pass

    def on_transfer_arrive(self, dev: DeviceProcess, payload: dict) -> None:
        pass

    def on_hbm_freed(self, dev: DeviceProcess) -> None:
        pass

    # -- links -------------------------------------------------------------

    def device(self, device_id: int) -> DeviceProcess:
        return self.devices[device_id]

    def link_between(self, src_dev: int, dst_dev: int) -> tuple[str, LinkSpec]:
        a, b = self.devices[src_dev], self.devices[dst_dev]
        if a.island_id == b.island_id:
            return "ici", self.spec.islands[a.island_id].ici
        return "dcn", self.spec.dcn

    def transfer(self, src_dev: int, dst_dev: int, nbytes: int,
                 instance: str, node: str, shard: int,
                 extra: dict | None = None) -> int:
        """Launch a DMA transfer; returns its arrival time at dst."""
        if src_dev == dst_dev:
            dur = 0
        else:
            kind, link = self.link_between(src_dev, dst_dev)
            dur = transfer_ns(link, nbytes)
        payload = {"instance": instance, "node": node, "shard": shard,
                   "src_dev": src_dev, "bytes": nbytes}
        if extra:
            payload.update(extra)
        arrive = self.sim.now() + dur
        self.sim.schedule_at(arrive, f"dev{dst_dev}", "transfer_arrive", payload)
        if dur > 0:
            dst = self.devices[dst_dev]
            self.sim.trace_span(dst.host_id, 200_000 + dst_dev,
                                f"xfer {node}[{shard}]", self.sim.now(), arrive,
                                "transfer", instance)
        return arrive

    # -- collectives -------------------------------------------------------

    def collective_arrive(self, dev: DeviceProcess, k: KernelExec) -> None:
        key = k.collective_key
        assert key is not None
        r = self._rendezvous.get(key)
        if r is None:
            r = _Rendezvous(expected=k.group_size, duration_ns=k.duration_ns)
            self._rendezvous[key] = r
        r.arrived.append((dev.device_id, self.sim.now()))
        if len(r.arrived) == r.expected:
            complete_at = max(t for _d, t in r.arrived) + r.duration_ns
            for d, _t in r.arrived:
                self.devices[d].collective_release(complete_at)
            del self._rendezvous[key]

    def rendezvous_cancel(self, dev: DeviceProcess, k: KernelExec) -> None:
        r = self._rendezvous.get(k.collective_key or "")
        if r is not None:
            r.arrived = [(d, t) for d, t in r.arrived if d != dev.device_id]
            if not r.arrived:
                del self._rendezvous[k.collective_key]

    def collective_missing(self, k: KernelExec) -> list[int]:
        r = self._rendezvous.get(k.collective_key or "")
        if r is None:
            return []
        here = {d for d, _t in r.arrived}
        group = self._collective_group(k)
        return sorted(set(group) - here)

    # group membership is registered up front so the wait-for graph can name
    # members that have not arrived yet
    def set_collective_group(self, key: str, devices: tuple[int, ...]) -> None:
        self._group_of[key] = devices

    def _collective_group(self, k: KernelExec) -> tuple[int, ...]:
        return self._group_of.get(k.collective_key or "", ())


def enqueue_kernel(sim: Simulator, device_id: int, kernel: KernelExec,
                   at: int | None = None) -> None:
    """Low-level enqueue, for driving devices without a host executor."""
    sim.schedule_at(at if at is not None else sim.now(),
                    f"dev{device_id}", "enqueue_kernel", {"kernel": kernel})
