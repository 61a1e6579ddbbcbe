"""System wiring: cluster, schedulers, hosts, clients, and run drivers.

A System owns one simulated cluster plus the control plane around it: one
scheduler per island, one executor per host, a resource manager, and any
number of clients. Programs are registered out of band; submitting an
instance costs one client RPC and everything after that is message driven.

Value identity is tracked structurally: every result gets a digest that is
a pure function of the program graph, so two dispatch plans for the same
computation must agree digest for digest.
"""
from __future__ import annotations

import hashlib

from .config import (BatchingConfig, ClusterSpec, CostModel, Policy,
                     ValidationError)
from .coord import MessageBatcher
from .executor import HostExecutor, InstanceMeta
from .hardware import Cluster, DeviceProcess, KernelExec
from .ir import LoweredProgram, TracedProgram, lower, validate_regularity
from .resman import ResourceManager
from .sched import GangRequest, IslandScheduler
from .simcore import Process, RunResult, Simulator
from .tables import ProgramInfo, build_program_info


def _h(*parts) -> str:
    m = hashlib.sha256()
    for p in parts:
        m.update(str(p).encode())
        m.update(b"\x00")
    return m.hexdigest()[:16]


def _value_digests(info: ProgramInfo) -> list[str]:
    """Result digests, in result order."""
    dig: dict[tuple[str, int], str] = {}
    for aid, a in info.args.items():
        dig[(aid, 0)] = _h("arg", aid, a.shards, a.bytes_per_shard)
    for nid in info.order:
        ni = info.nodes[nid]
        ins = []
        for eid in sorted(ni.in_edges,
                          key=lambda e: info.edges[e].dst_port):
            ei = info.edges[eid]
            ins.append(dig[(ei.src, ei.src_port)])
        d = ins[0] if len(ins) == 1 else _h("tuple", *ins)
        nout = len(ni.fn.out_bytes)
        for _ in range(ni.fn.apply_count):
            d = _h("apply", ni.fn.name, d)
        for port in range(nout):
            dig[(nid, port)] = d if nout == 1 else _h(d, port)
    return [dig[(srcn, port)] for _rid, srcn, port in info.results]


class _SysCluster(Cluster):
    """Cluster with its hooks routed into the control plane."""

    def __init__(self, sim: Simulator, spec: ClusterSpec, system: "System"):
        super().__init__(sim, spec)
        self.system = system

    def on_kernels_done(self, records: list[KernelExec], shards: list) -> None:
        sys = self.system
        # one fan-out: a message to each record's host, from a device of it
        sends = []
        for k, done in zip(records, shards):
            dev = self.devices[k.devices[0]]
            sends.append((dev.pid, self.host_pids[dev.host_id],
                          {"instance": k.instance, "node": k.node,
                           "shards": done}))
        self.sim.send_many("kernel_done", sends, self.spec.pcie.latency_ns)
        key = (k.instance, k.node)
        left = sys.gang_left.get(key)
        if left is not None:
            left -= sum(map(len, shards))
            if left == 0:
                del sys.gang_left[key]
                self.sim.note_completion(k.instance, k.node)
            else:
                sys.gang_left[key] = left

    def on_hbm_freed(self, dev: DeviceProcess) -> None:
        sched = self.system.scheds.get(dev.island_id)
        if sched is not None:
            sched.notify_hbm_freed()

    def may_land(self, device_id: int, instance: str, node: str) -> bool:
        # an abort follows its record's enqueue, so only a landing can come
        ni = self.system.instances[instance].program.nodes[node]
        return device_id in ni.input_sources


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
        self.submitted_at: dict[str, int] = {}
        self.completed_at: dict[str, int] = {}
        self.failed: set[str] = set()      # unfinished when the client died
        self.dead = False

    # -- submission --------------------------------------------------------

    def submit(self, program_id: str, mode: str = "parallel",
               job: object | None = None, reply: bool = True) -> str:
        inst = self.system.submit(self, program_id, mode, reply)
        self.submitted_at[inst] = self.sim.now()
        if job is not None:
            self.inst_job[inst] = job.job_id
        return inst

    def release_results(self, inst: str) -> None:
        info = self.system.instances[inst].program
        for src, port in info.result_bufs:
            self.batcher.send(f"host{info.nodes[src].home_host}", "release",
                              {"handle": info.out_handle(inst, src, port)})

    # -- messages ----------------------------------------------------------

    def handle(self, kind: str, payload: dict, src: str | None) -> None:
        if kind == "die":
            self.dead = True
            self.failed.update(i for i in self.submitted_at
                               if i not in self.completed_at)
            self.results_seen.clear()
            self.batcher.cancel_open()
        if self.dead:
            return
        if kind == "handles":
            self._job_of(payload["instance"], "on_handles")
        elif kind == "result":
            self._on_result(payload)
        elif kind == "stage_ready":
            self.system.submit_next_stage(payload["instance"],
                                          ready_node=payload["node"])
        elif kind == "job":
            job = self.jobs[payload["job_id"]]
            job.start(self)
        else:
            raise ValueError(f"{self.pid}: unknown message {kind}")

    def _on_result(self, payload: dict) -> None:
        inst = payload["instance"]
        if inst in self.completed_at:
            return
        info = self.system.instances[inst].program
        shards = payload["shards"]
        # a host's shards are distinct: a message with as many as the
        # results have, and none before it, carries them all
        if len(shards) < info.result_shards or inst in self.results_seen:
            seen = self.results_seen.setdefault(inst, set())
            seen.update((payload["edge"], s) for s in shards)
            if len(seen) < info.result_shards:
                return
            del self.results_seen[inst]
        self.completed_at[inst] = self.sim.now()
        self.system.finish_instance(inst)
        self._job_of(inst, "on_complete")

    def _job_of(self, inst: str, event: str) -> None:
        # nothing asks for an instance's job once it has completed
        jid = (self.inst_job.pop(inst, None) if event == "on_complete"
               else self.inst_job.get(inst))
        if jid is None:
            return
        getattr(self.jobs[jid], event)(self, inst)

    def obligations(self) -> list[str]:
        """Unfinished jobs of a live client; partial results and gangs still
        counted toward completion (`System.gang_left`), dead or alive."""
        out = [f"{i}: partial results held" for i in sorted(self.results_seen)]
        out += [f"{i}: gang {nid} still counted"
                for i, nid in sorted(self.system.gang_left)
                if i in self.submitted_at]
        if not self.dead:
            out += [f"job {jid} incomplete" for jid in sorted(self.jobs)
                    if not self.jobs[jid].done]
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


# -- the system --------------------------------------------------------------

class System:
    """One simulated fleet: clients, schedulers, hosts and devices on one clock.

    `record_trace` keeps the execution trace (kernel, prep and transfer
    spans in `sim.trace`). It is off by default: the trace grows with the
    run's length and changes no simulated result. Each caller that reads
    it turns it on when it builds the System it hands to
    `bench.start_streams`: `flowpath run --trace-out`, `run_pipeline` and
    `bench_utilization` (busy fractions come from the kernel spans) and
    `bench_dispatch` (`flowpath bench --trace-out` exports its last system).
    """

    def __init__(self, spec: ClusterSpec, policy: Policy | None = None,
                 record_log: bool = False, record_trace: bool = False):
        self.spec = spec
        self.costs = CostModel()
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
        # (instance, node) -> shards left to finish; dropped when the gang
        # completes or can no longer complete
        self.gang_left: dict[tuple[str, str], int] = {}
        self.inst_digests: dict[str, list[str]] = {}
        self._inst_seq = 0
        self._job_seq = 0

    # -- setup -------------------------------------------------------------

    def add_client(self, name: str) -> ClientProcess:
        c = ClientProcess(self.sim, self, name)
        self.clients[name] = c
        return c

    def register_program(self, pid: str, lowered: LoweredProgram) -> ProgramInfo:
        """Build the program's tables; they keep no traced or lowered graph,
        so the parallel plan's check is made here, once."""
        info = build_program_info(pid, lowered, self.cluster)
        info.irregular = tuple(validate_regularity(lowered.program).irregular)
        self.programs[pid] = info      # kept only if its tables were built
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
            if info.irregular:
                raise ValidationError(
                    "parallel dispatch requires static resource needs; "
                    f"data-dependent nodes: {', '.join(info.irregular)}")
            mode = "auto"       # every node is static: auto plans one stage
        if mode == "sequential":
            # a node that reads a computed value is host-gated; the client
            # submits the rest, in one stage
            modes = {nid: "go" if not gatable(nid) else
                     "fut" if info.nodes[nid].fn.regular else "dat"
                     for nid in info.order}
            return modes, [[n for n, m in modes.items() if m == "go"]], [set()]
        if mode == "auto":
            # contiguous runs of static nodes form client-submitted stages;
            # each data-dependent node runs host-gated and, once its sizes
            # are known, its home host asks the client for the next stage
            modes = {}
            stages: list[list[str]] = []
            triggers: list[set[str]] = []
            pending: set[str] = set()   # data-dependent since the last stage
            for nid in info.order:
                if info.nodes[nid].fn.regular:
                    if pending or not stages:
                        stages.append([])
                        triggers.append(pending)
                        pending = set()
                    stages[-1].append(nid)
                    modes[nid] = "go"
                elif not gatable(nid):
                    raise ValidationError(
                        f"{nid}: data-dependent source node cannot be planned")
                else:
                    modes[nid] = "dat"
                    pending.add(nid)
            return modes, stages, triggers
        raise ValidationError(f"unknown dispatch mode {mode!r}")

    # -- instance lifecycle ------------------------------------------------

    def submit(self, client: ClientProcess, program_id: str, mode: str,
               reply: bool) -> str:
        info = self.programs[program_id]
        # planned once per (program, mode); a mode that fails to plan
        # raises again on every submit
        if mode not in info.plans:
            info.plans[mode] = self._plan(info, mode)
        modes, stages, triggers = info.plans[mode]
        self._inst_seq += 1
        inst = f"i{self._inst_seq}"
        meta = InstanceMeta(inst, client.name, info, modes, stages, triggers,
                            reply)
        self.instances[inst] = meta
        for h in info.ends:
            self.hosts[h].install(meta)
        for nid, ni in info.nodes.items():
            self.gang_left[(inst, nid)] = len(ni.devices)
        self.submit_next_stage(inst)
        return inst

    def submit_next_stage(self, inst: str, ready_node: str | None = None) -> None:
        """Submit each next stage whose triggers have all reported in; a
        later stage's triggers may report first. No stage is empty: the
        first compute node reads only args, so it is static."""
        meta = self.instances[inst]
        if ready_node is not None:
            meta.stage_seen = meta.stage_seen | {ready_node}
        while (meta.stage_idx < len(meta.stages)
               and meta.triggers[meta.stage_idx] <= meta.stage_seen):
            idx = meta.stage_idx
            meta.stage_idx = idx + 1
            self.submit_gangs(
                inst, meta.stages[idx], src_pid=f"client.{meta.client}",
                latency_ns=self.costs.client_rpc_ns,
                reply_last=meta.reply_to_client and idx == len(meta.stages) - 1)

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
            # no memory ask; "go" gangs reserve atomically at grant, reading
            # the node's shared ask
            hbm = ni.hbm_by_device if meta.modes[nid] == "go" else {}
            g = GangRequest(
                instance=inst, node=nid, client=meta.client,
                devices=ni.devices, hosts=ni.hosts,
                hbm=hbm, duration_ns=ni.fn.duration_ns)
            by_island.setdefault(island, []).append(g)
            last_gang = g
        if reply_last and last_gang is not None:
            last_gang.reply_to = f"client.{meta.client}"
        for island in sorted(by_island):
            self.scheds[island].submit(by_island[island], src_pid, latency_ns)

    # -- value identity ----------------------------------------------------

    def finish_instance(self, inst: str) -> None:
        info = self.instances[inst].program
        if info.digests is None:
            info.digests = _value_digests(info)
        self.inst_digests[inst] = info.digests

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
        return [(t, self.instances[inst].program.nodes[node].fn.apply_count)
                for t, inst, node in self.sim.completions]

    def device_busy_fraction(self, devices: list[int] | tuple[int, ...],
                             t0: int, t1: int) -> float:
        devs = set(devices)
        busy = 0
        for r in self.sim.trace:
            if r.category == "kernel" and r.tid in devs:
                busy += max(0, min(r.end_ns, t1) - max(r.start_ns, t0))
        return busy / (len(devs) * (t1 - t0)) if t1 > t0 else 0.0


def steady_rate(series: list[tuple[int, int]]) -> float:
    """Units per second over the middle completions (25% to 95%) of a run."""
    if len(series) < 4:
        raise ValueError("not enough completions for a steady-state window")
    a = int(len(series) * 0.25)
    b = max(a + 2, int(len(series) * 0.95))
    b = min(b, len(series))
    t0 = series[a - 1][0] if a > 0 else 0
    t1 = series[b - 1][0]
    units = sum(u for _t, u in series[a:b])
    if t1 <= t0:
        raise ValueError("degenerate steady-state window")
    return units * 1e9 / (t1 - t0)

