"""System wiring: cluster, schedulers, hosts, clients, and run drivers.

A System owns one simulated cluster plus the control plane around it: one
scheduler per island, one executor per host, a resource manager, and any
number of clients. Programs are registered out of band; submitting an
instance costs one client RPC and everything after that is message driven.

Value identity is tracked structurally: every buffer gets a digest that is
a pure function of the program graph and its bound inputs, so two dispatch
plans for the same computation must agree digest for digest.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .config import (BatchingConfig, ClusterSpec, CostModel, Policy,
                     ValidationError)
from .coord import MessageBatcher
from .executor import (HostExecutor, InstanceMeta, ProgramInfo,
                       build_program_info)
from .hardware import Cluster, DeviceProcess, KernelExec
from .ir import LoweredProgram, TracedProgram, lower, validate_regularity
from .resman import ResourceManager
from .sched import GangRequest, IslandScheduler
from .simcore import Process, RunResult, Simulator


def _h(*parts) -> str:
    m = hashlib.sha256()
    for p in parts:
        m.update(str(p).encode())
        m.update(b"\x00")
    return m.hexdigest()[:16]


class _SysCluster(Cluster):
    """Cluster with its hooks routed into the control plane."""

    def __init__(self, sim: Simulator, spec: ClusterSpec, system: "System"):
        super().__init__(sim, spec)
        self.system = system

    def on_kernel_done(self, dev: DeviceProcess, k: KernelExec,
                       start: int, end: int) -> None:
        sys = self.system
        pcie = self.spec.pcie.latency_ns
        self.sim.send(dev.pid, f"host{dev.host_id}", "kernel_done",
                      {"instance": k.instance, "node": k.node,
                       "shard": k.shard, "device": dev.device_id},
                      latency=pcie)
        key = (k.instance, k.node)
        left = sys.gang_left.get(key)
        if left is not None:
            left -= 1
            if left == 0:
                del sys.gang_left[key]
                self.sim.note_completion(k.instance, k.node)
            else:
                sys.gang_left[key] = left

    def on_transfer_arrive(self, dev: DeviceProcess, payload: dict) -> None:
        if "edge" in payload:
            self.sim.send(dev.pid, f"host{dev.host_id}", "xfer_arrived",
                          dict(payload), latency=self.spec.pcie.latency_ns)

    def on_hbm_freed(self, dev: DeviceProcess) -> None:
        sched = self.system.scheds.get(dev.island_id)
        if sched is not None:
            sched.notify_hbm_freed()


class ClientProcess(Process):
    """A controller-facing client. pid is "client.<name>"."""

    def __init__(self, sim: Simulator, system: "System", name: str):
        super().__init__(sim, f"client.{name}")
        self.system = system
        self.name = name
        self.batcher = MessageBatcher(sim, self.pid, system.batching,
                                      system.costs.client_rpc_ns)
        self.jobs: dict[str, object] = {}
        self.inst_job: dict[str, str] = {}
        self.results_seen: dict[str, set] = {}
        self.expect: dict[str, int] = {}
        self.handles: dict[str, list[str]] = {}
        self.submitted_at: dict[str, int] = {}
        self.granted_at: dict[str, int] = {}
        self.completed_at: dict[str, int] = {}
        self.failed: set[str] = set()
        self.dead = False
        self._released: set[str] = set()

    # -- submission --------------------------------------------------------

    def submit(self, program_id: str, mode: str = "parallel",
               bindings: dict[str, str] | None = None,
               job: object | None = None, reply: bool = True) -> str:
        inst = self.system.submit(self, program_id, mode, bindings, reply)
        self.submitted_at[inst] = self.sim.now()
        if job is not None:
            self.inst_job[inst] = job.job_id
        return inst

    def release_results(self, inst: str) -> None:
        for h in self.handles.get(inst, []):
            if h in self._released:
                continue
            self._released.add(h)
            home = self.system.handle_home[h]
            self.batcher.send(f"host{home}", "release", {"handle": h},
                              critical=False)

    # -- messages ----------------------------------------------------------

    def handle(self, kind: str, payload: dict, src: str | None) -> None:
        if self.dead:
            return
        if kind == "batch_timeout":
            self.batcher.on_timeout(payload)
            return
        if kind == "handles":
            inst = payload["instance"]
            if inst not in self.granted_at:
                self.granted_at[inst] = self.sim.now()
                self._job_of(inst, "on_handles")
        elif kind == "result":
            self._on_result(payload)
        elif kind == "instance_failed":
            inst = payload["instance"]
            if inst not in self.failed:
                self.failed.add(inst)
                self.release_results(inst)
                self._job_of(inst, "on_failed")
        elif kind == "stage_ready":
            if payload["instance"] not in self.failed:
                self.system.submit_next_stage(payload["instance"],
                                              ready_node=payload["node"])
        elif kind == "job":
            job = self.jobs[payload["job_id"]]
            job.start(self)
        else:
            raise ValueError(f"{self.pid}: unknown message {kind}")

    def _on_result(self, payload: dict) -> None:
        inst = payload["instance"]
        if inst in self.completed_at or inst in self.failed:
            return
        seen = self.results_seen.setdefault(inst, set())
        seen.add((payload["edge"], payload["shard"]))
        if len(seen) < self.expect.get(inst, 1):
            return
        self.completed_at[inst] = self.sim.now()
        self.system.finish_instance(inst)
        info = self.system.instances[inst].program
        for h in info.all_hosts:
            self.batcher.send(f"host{h}", "instance_done", {"instance": inst},
                              critical=False)
        self._job_of(inst, "on_complete")

    def _job_of(self, inst: str, event: str) -> None:
        jid = self.inst_job.get(inst)
        if jid is None:
            return
        getattr(self.jobs[jid], event)(self, inst)

    def obligations(self) -> list[str]:
        if self.dead:
            return []
        out = []
        for jid in sorted(self.jobs):
            job = self.jobs[jid]
            if not job.done:
                out.append(f"job {jid} incomplete")
        return out


# -- client jobs -------------------------------------------------------------

class StreamJob:
    """Keep up to `window` instances in flight until `count` have finished.

    trigger "complete" submits the next instance when one finishes;
    trigger "handles" submits as soon as the previous one is granted, which
    keeps the client pipeline full at one RPC round trip per instance.
    """

    def __init__(self, job_id: str, program_id: str, count: int,
                 window: int = 1, trigger: str = "complete",
                 mode: str = "parallel"):
        self.job_id = job_id
        self.program_id = program_id
        self.count = count
        self.window = window
        self.trigger = trigger
        self.mode = mode
        self.submitted = 0
        self.completed = 0
        self.instances: list[str] = []
        self.done = False

    def start(self, client: ClientProcess) -> None:
        for _ in range(min(self.window, self.count)):
            self._submit(client)

    def _submit(self, client: ClientProcess) -> None:
        inst = client.submit(self.program_id, mode=self.mode, job=self,
                             reply=(self.trigger == "handles"))
        self.instances.append(inst)
        self.submitted += 1

    def on_handles(self, client: ClientProcess, inst: str) -> None:
        if self.trigger == "handles" and self.submitted < self.count:
            self._submit(client)

    def on_complete(self, client: ClientProcess, inst: str) -> None:
        self.completed += 1
        client.release_results(inst)
        if self.trigger == "complete" and self.submitted < self.count:
            self._submit(client)
        if self.completed == self.count:
            self.done = True

    def on_failed(self, client: ClientProcess, inst: str) -> None:
        self.completed += 1
        if self.completed == self.count:
            self.done = True


class SerialChainJob:
    """One computation per call, each consuming the previous call's result.

    The next call goes out as soon as the previous one is granted (its
    result handles are already known), so device work from consecutive
    calls can overlap; the data dependency is enforced by ticket order.
    """

    def __init__(self, job_id: str, first_pid: str, rest_pid: str,
                 count: int, arg_id: str = "n0"):
        self.job_id = job_id
        self.first_pid = first_pid
        self.rest_pid = rest_pid
        self.arg_id = arg_id
        self.count = count
        self.submitted = 0
        self.completed = 0
        self.instances: list[str] = []
        self.done = False

    def start(self, client: ClientProcess) -> None:
        inst = client.submit(self.first_pid, job=self)
        self.instances.append(inst)
        self.submitted = 1

    def on_handles(self, client: ClientProcess, inst: str) -> None:
        if self.submitted >= self.count:
            return
        prev_handle = client.handles[inst][0]
        nxt = client.submit(self.rest_pid, bindings={self.arg_id: prev_handle},
                            job=self)
        self.instances.append(nxt)
        self.submitted += 1

    def on_complete(self, client: ClientProcess, inst: str) -> None:
        self.completed += 1
        k = self.instances.index(inst)
        if k > 0:
            # the input of call k was call k-1's result; it is consumed now
            client.release_results(self.instances[k - 1])
        if k == self.count - 1:
            client.release_results(inst)
        if self.completed == self.count:
            self.done = True

    def on_failed(self, client: ClientProcess, inst: str) -> None:
        self.completed += 1
        if self.completed == self.count:
            self.done = True


# -- the system --------------------------------------------------------------

class System:
    def __init__(self, spec: ClusterSpec, costs: CostModel | None = None,
                 policy: Policy | None = None,
                 record_log: bool = False, record_trace: bool = True):
        self.spec = spec
        self.costs = costs or CostModel()
        self.policy = policy or Policy()
        self.batching = BatchingConfig()
        self.sim = Simulator(record_log=record_log, record_trace=record_trace)
        self.cluster = _SysCluster(self.sim, spec, self)
        self.resman = ResourceManager(
            {i: list(v) for i, v in self.cluster.island_devices.items()})
        self.audit: list = []
        control = spec.dcn.latency_ns
        self.scheds: dict[int, IslandScheduler] = {
            i: IslandScheduler(self.sim, self.cluster, i, self.costs,
                               self.policy, control)
            for i in sorted(self.cluster.island_devices)}
        self.hosts: dict[int, HostExecutor] = {
            h: HostExecutor(self.sim, self.cluster, h, self.costs,
                            self.batching, control, self.audit, self)
            for h in sorted(self.cluster.host_devices)}
        self.clients: dict[str, ClientProcess] = {}
        self.programs: dict[str, ProgramInfo] = {}
        self.instances: dict[str, InstanceMeta] = {}
        self.gang_left: dict[tuple[str, str], int] = {}
        self.units: dict[tuple[str, str], int] = {}
        self.handle_devices: dict[str, tuple[int, ...]] = {}
        self.handle_home: dict[str, int] = {}
        self.handle_digests: dict[str, str] = {}
        self.inst_digests: dict[str, list[str]] = {}
        self._inst_seq = 0
        self._stage_idx: dict[str, int] = {}
        self._stage_triggers: dict[str, list[set[str]]] = {}
        self._stage_seen: dict[str, set[str]] = {}
        self._job_seq = 0

    # -- setup -------------------------------------------------------------

    def add_client(self, name: str) -> ClientProcess:
        c = ClientProcess(self.sim, self, name)
        self.clients[name] = c
        return c

    def register_program(self, pid: str, lowered: LoweredProgram) -> ProgramInfo:
        info = build_program_info(pid, lowered, self.cluster)
        # a gang whose buffers cannot fit in one device's HBM would park at
        # the scheduler forever; reject it here as bad input
        for nid in info.order:
            for dev, need in sorted(info.nodes[nid].hbm_by_device.items()):
                if need > self.spec.hbm_bytes:
                    raise ValidationError(
                        f"node {nid} needs {need} bytes of HBM on device "
                        f"{dev}, which has {self.spec.hbm_bytes}")
        self.programs[pid] = info
        return info

    def register_traced(self, pid: str, traced: TracedProgram,
                        device_map: dict | None = None) -> ProgramInfo:
        if device_map is None:
            device_map = self.allocate_for(traced)
        return self.register_program(pid, lower(traced, device_map))

    def allocate_for(self, traced: TracedProgram) -> dict[str, tuple[int, ...]]:
        """Place every virtual slice through the resource manager."""
        return {sid: self.resman.allocate_slice(req.shape,
                                                island=req.island).devices
                for sid, req in sorted(traced.slices.items())}

    # -- dispatch planning -------------------------------------------------

    def _plan(self, info: ProgramInfo, mode: str) -> tuple[
            dict[str, str], list[list[str]], list[set[str]]]:
        """modes per node, client-submitted stages, and per-stage trigger
        sets: stage i goes out once every trigger node has reported in."""
        def gatable(nid: str) -> bool:
            return any(not info.edges[e].from_arg
                       for e in info.nodes[nid].in_edges)

        if mode == "parallel":
            rep = validate_regularity(info.lowered.program)
            if not rep.all_regular:
                raise ValidationError(
                    "parallel dispatch requires static resource needs; "
                    f"data-dependent nodes: {', '.join(rep.irregular)}")
            return ({n: "go" for n in info.order}, [list(info.order)],
                    [set()])
        if mode == "sequential":
            modes = {}
            stage0 = []
            for nid in info.order:
                if gatable(nid):
                    modes[nid] = "dat" if not info.nodes[nid].regular else "fut"
                else:
                    modes[nid] = "go"
                    stage0.append(nid)
            return modes, [stage0], [set()]
        if mode == "auto":
            # contiguous runs of static nodes form client-submitted stages;
            # each data-dependent node runs host-gated and, once its sizes
            # are known, its home host asks the client for the next stage
            modes = {}
            stages: list[list[str]] = []
            triggers: list[set[str]] = []
            cur: list[str] = []
            pending_trigger: set[str] = set()
            for nid in info.order:
                if info.nodes[nid].regular:
                    if not cur:
                        triggers.append(set(pending_trigger))
                        pending_trigger = set()
                    cur.append(nid)
                    modes[nid] = "go"
                else:
                    if not gatable(nid):
                        raise ValidationError(
                            f"{nid}: data-dependent source node cannot be "
                            "planned")
                    if cur:
                        stages.append(cur)
                        cur = []
                    modes[nid] = "dat"
                    pending_trigger.add(nid)
            if cur:
                stages.append(cur)
            if not stages:
                stages, triggers = [[]], [set()]
            return modes, stages, triggers
        raise ValidationError(f"unknown dispatch mode {mode!r}")

    # -- instance lifecycle ------------------------------------------------

    def submit(self, client: ClientProcess, program_id: str, mode: str,
               bindings: dict[str, str] | None, reply: bool) -> str:
        info = self.programs[program_id]
        modes, stages, triggers = self._plan(info, mode)
        self._inst_seq += 1
        inst = f"i{self._inst_seq}"
        bindings = dict(bindings or {})
        for aid, a in info.args.items():
            if a.ext and aid not in bindings:
                raise ValidationError(f"arg {aid} needs a handle binding")
            if not a.ext and aid in bindings:
                raise ValidationError(f"arg {aid} does not take a binding")
        for aid, handle in bindings.items():
            devs = self.handle_devices.get(handle)
            want = info.args[aid].placement
            if devs is not None and tuple(devs) != tuple(want):
                raise ValidationError(
                    f"arg {aid}: bound buffer lives on devices {devs}, "
                    f"consumer expects {want}")
        meta = InstanceMeta(inst, client.name, info, modes, stages,
                            bindings, reply)
        self.instances[inst] = meta
        for h in info.all_hosts:
            self.hosts[h].install(meta)
        for nid, ni in info.nodes.items():
            self.gang_left[(inst, nid)] = len(ni.devices)
            self.units[(inst, nid)] = ni.apply_count
        for _rid, srcn, port in info.results:
            h = info.out_handle(inst, srcn, port)
            self.handle_devices[h] = info.nodes[srcn].devices
            self.handle_home[h] = info.nodes[srcn].home_host
        client.expect[inst] = info.result_shards
        client.handles[inst] = info.result_handles(inst)
        self._stage_idx[inst] = 0
        self._stage_triggers[inst] = triggers
        self.submit_next_stage(inst)
        return inst

    def submit_next_stage(self, inst: str, ready_node: str | None = None) -> None:
        meta = self.instances[inst]
        seen = self._stage_seen.setdefault(inst, set())
        if ready_node is not None:
            seen.add(ready_node)
        while True:
            idx = self._stage_idx[inst]
            if idx >= len(meta.stages):
                return
            if not self._stage_triggers[inst][idx] <= seen:
                return
            self._stage_idx[inst] = idx + 1
            nids = meta.stages[idx]
            if not nids:
                continue
            last_stage = idx == len(meta.stages) - 1
            self.submit_gangs(
                inst, nids, src_pid=f"client.{meta.client}",
                latency_ns=self.costs.client_rpc_ns,
                reply_last=meta.reply_to_client and last_stage)
            if not last_stage:
                return

    def submit_gangs(self, inst: str, nids: list[str], src_pid: str,
                     latency_ns: int | None = None,
                     reply_last: bool = False) -> None:
        meta = self.instances[inst]
        info = meta.program
        by_island: dict[int, list[GangRequest]] = {}
        last_gang = None
        for nid in nids:
            ni = info.nodes[nid]
            island = self.cluster.device(ni.devices[0]).island_id
            # host-paced nodes allocate at prep time, so their grant carries
            # no memory ask; "go" gangs reserve atomically at grant
            hbm = dict(ni.hbm_by_device) if meta.modes[nid] == "go" else {}
            g = GangRequest(
                instance=inst, node=nid, client=meta.client,
                devices=ni.devices, hosts=ni.hosts,
                hbm=hbm, duration_ns=ni.duration_ns)
            by_island.setdefault(island, []).append(g)
            last_gang = g
        if reply_last and last_gang is not None:
            last_gang.reply_to = f"client.{meta.client}"
            last_gang.reply_payload = {"handles": info.result_handles(inst)}
        for island in sorted(by_island):
            self.scheds[island].submit(by_island[island], src_pid, latency_ns)

    def notify_stage_ready(self, inst: str, nid: str, src_pid: str) -> None:
        meta = self.instances[inst]
        self.sim.send(src_pid, f"client.{meta.client}", "stage_ready",
                      {"instance": inst, "node": nid},
                      latency=self.costs.client_rpc_ns)

    def result_tuple(self, inst: str, ei, src_shard: int, src_pid: str) -> None:
        meta = self.instances[inst]
        self.sim.send(src_pid, f"client.{meta.client}", "result",
                      {"instance": inst, "edge": ei.eid, "shard": src_shard},
                      latency=self.costs.client_rpc_ns)

    # -- value identity ----------------------------------------------------

    def finish_instance(self, inst: str) -> None:
        meta = self.instances[inst]
        info = meta.program
        dig: dict[tuple[str, int], str] = {}
        for aid, a in info.args.items():
            if a.ext:
                dig[(aid, 0)] = self.handle_digests[meta.arg_bindings[aid]]
            else:
                dig[(aid, 0)] = _h("arg", aid, a.shards, a.bytes_per_shard)
        for nid in info.order:
            ni = info.nodes[nid]
            ins = []
            for eid in sorted(ni.in_edges,
                              key=lambda e: info.edges[e].dst_port):
                ei = info.edges[eid]
                ins.append(dig[(ei.src, ei.src_port)])
            d = ins[0] if len(ins) == 1 else _h("tuple", *ins)
            for _ in range(ni.apply_count):
                d = _h("apply", ni.fn_name, d)
            for port in range(len(ni.out_bytes)):
                dig[(nid, port)] = d if len(ni.out_bytes) == 1 else _h(d, port)
        out = []
        for _rid, srcn, port in info.results:
            h = info.out_handle(inst, srcn, port)
            self.handle_digests[h] = dig[(srcn, port)]
            out.append(dig[(srcn, port)])
        self.inst_digests[inst] = out

    # -- drivers -----------------------------------------------------------

    def start_job(self, client: ClientProcess, job, at_ns: int = 0) -> object:
        client.jobs[job.job_id] = job
        self.sim.schedule_at(at_ns, client.pid, "job", {"job_id": job.job_id})
        return job

    def new_job_id(self) -> str:
        self._job_seq += 1
        return f"j{self._job_seq}"

    def fail_client(self, client: ClientProcess, at_ns: int,
                    detect_ns: int | None = None) -> None:
        """The client dies at at_ns; the fleet learns after a detection lag."""
        self.sim.schedule_at(at_ns, client.pid, "die", {})
        client.handle = _dying_handle(client)
        t = at_ns + (detect_ns if detect_ns is not None
                     else self.spec.dcn.latency_ns * 2)
        for h in sorted(self.hosts):
            self.sim.schedule_at(t, f"host{h}", "client_failed",
                                 {"client": client.name})
        for i in sorted(self.scheds):
            self.sim.schedule_at(t, f"sched{i}", "client_failed",
                                 {"client": client.name})

    def run(self, max_events: int | None = None) -> RunResult:
        return self.sim.run_until_quiescent(max_events=max_events)

    # -- measurement -------------------------------------------------------

    def completion_series(self) -> list[tuple[int, int]]:
        """(t_ns, units) per finished gang, in completion order."""
        return [(t, self.units.get((inst, node), 1))
                for t, inst, node in self.sim.completions]

    def device_busy_fraction(self, devices: list[int] | tuple[int, ...],
                             t0: int, t1: int) -> float:
        devs = set(devices)
        busy = 0
        for r in self.sim.trace:
            if r.category == "kernel" and r.tid in devs:
                busy += max(0, min(r.end_ns, t1) - max(r.start_ns, t0))
        return busy / (len(devs) * (t1 - t0)) if t1 > t0 else 0.0


def _dying_handle(client: ClientProcess):
    orig = client.handle

    def handler(kind: str, payload: dict, src: str | None) -> None:
        if kind == "die":
            client.dead = True
            return
        orig(kind, payload, src)

    return handler


def steady_rate(series: list[tuple[int, int]], lo: float = 0.25,
                hi: float = 0.95) -> float:
    """Units per second over the middle completions of a long run."""
    if len(series) < 4:
        raise ValueError("not enough completions for a steady-state window")
    a = int(len(series) * lo)
    b = max(a + 2, int(len(series) * hi))
    b = min(b, len(series))
    t0 = series[a - 1][0] if a > 0 else 0
    t1 = series[b - 1][0]
    units = sum(u for _t, u in series[a:b])
    if t1 <= t0:
        raise ValueError("degenerate steady-state window")
    return units * 1e9 / (t1 - t0)


# -- multicontroller reference ------------------------------------------------

class _McCluster(Cluster):
    def __init__(self, sim: Simulator, spec: ClusterSpec):
        super().__init__(sim, spec)
        self._left: dict[str, int] = {}
        self.group_n = 0

    def on_kernel_done(self, dev: DeviceProcess, k: KernelExec,
                       start: int, end: int) -> None:
        left = self._left.get(k.node, self.group_n) - 1
        if left == 0:
            self._left.pop(k.node, None)
            self.sim.note_completion(k.instance, k.node)
        else:
            self._left[k.node] = left


class MCHost(Process):
    """Per-host enqueue loop of the coordinator-free reference runtime.

    Each host drives only its own devices over PCIe; computations still
    rendezvous as collectives across the whole device group. There is no
    client, no scheduler, and no cross-host control traffic.
    """

    def __init__(self, sim: Simulator, cluster: Cluster, host_id: int,
                 local_devs: list[int], group: tuple[int, ...],
                 count: int, duration_ns: int, costs: CostModel):
        super().__init__(sim, f"mc{host_id}")
        self.cluster = cluster
        self.host_id = host_id
        self.local = local_devs
        self.group = group
        self.count = count
        self.duration_ns = duration_ns
        self.costs = costs
        self._emitted = 0

    def start(self) -> None:
        self.sim.schedule_in(self.costs.pcie_enqueue_ns * len(self.local),
                             self.pid, "emit", {"i": 0, "start": self.sim.now()})

    def handle(self, kind: str, payload: dict, src: str | None) -> None:
        assert kind == "emit"
        i = payload["i"]
        self.sim.trace_span(self.host_id, 100_000 + self.host_id,
                            f"enqueue c{i}", payload["start"], self.sim.now(),
                            "enqueue", "mc")
        pcie = self.cluster.spec.pcie.latency_ns
        for d in self.local:
            k = KernelExec(
                instance="mc", node=f"c{i}", shard=self.group.index(d),
                duration_ns=self.duration_ns, expected_inputs=0,
                collective_key=f"mc/c{i}" if len(self.group) > 1 else None,
                group_size=len(self.group))
            self.sim.send(self.pid, f"dev{d}", "enqueue_kernel",
                          {"kernel": k}, latency=pcie)
        self._emitted = i + 1
        if i + 1 < self.count:
            self.sim.schedule_in(self.costs.pcie_enqueue_ns * len(self.local),
                                 self.pid, "emit",
                                 {"i": i + 1, "start": self.sim.now()})

    def obligations(self) -> list[str]:
        if self._emitted < self.count:
            return [f"{self.count - self._emitted} computations not yet enqueued"]
        return []


@dataclass
class BaselineRun:
    sim: Simulator
    cluster: Cluster
    completions: list[tuple[int, str, str]]
    makespan_ns: int

    def rate(self, lo: float = 0.25, hi: float = 0.95) -> float:
        return steady_rate([(t, 1) for t, _i, _n in self.completions], lo, hi)


def multicontroller_baseline(spec: ClusterSpec, count: int, duration_ns: int,
                             costs: CostModel | None = None,
                             devices: list[int] | None = None,
                             record_trace: bool = False) -> BaselineRun:
    """Reference: every host enqueues its own kernels, nobody coordinates."""
    costs = costs or CostModel()
    sim = Simulator(record_trace=record_trace)
    cluster = _McCluster(sim, spec)
    group = (tuple(devices) if devices is not None
             else tuple(d.device_id for d in cluster.devices))
    cluster.group_n = len(group)
    for i in range(count):
        cluster.set_collective_group(f"mc/c{i}", group)
    by_host: dict[int, list[int]] = {}
    for d in group:
        by_host.setdefault(cluster.device(d).host_id, []).append(d)
    hosts = [MCHost(sim, cluster, h, devs, group, count, duration_ns, costs)
             for h, devs in sorted(by_host.items())]
    for hp in hosts:
        hp.start()
    r = sim.run_until_quiescent()
    if r.status != "quiescent":
        raise RuntimeError(f"baseline run deadlocked: {r.blocked}")
    return BaselineRun(sim, cluster, list(sim.completions), r.clock_ns)
