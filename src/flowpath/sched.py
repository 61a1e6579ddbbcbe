"""Per-island gang scheduler.

All programs touching an island's devices funnel through one scheduler
process, which assigns each gang an island ticket (a monotone sequence
number). Kernels are enqueued on devices in ticket order, so any two gangs
sharing a device are ordered the same way everywhere they overlap: that
consistent order is what makes concurrent collectives deadlock-free.

Device memory for a gang is reserved atomically, all devices or none, in
ticket order. A gang that cannot reserve parks without holding anything;
later gangs may overtake it only on devices it does not touch. A gang gets
its ticket only once no parked gang shares a device with it, so each device
has at most one ticket waiting and needs no line to keep ticket order.

Policies: FIFO, or proportional share via stride scheduling. The stride
charge is the gang's estimated device busy time over the client weight, so
long-run busy-time shares converge to the weights. Passes are integers: each
weight is read as a fraction p/q, and every charge is scaled by the lcm of
the weights' numerators, which keeps the exact order of fractional passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real

from .config import CostModel, Policy, ValidationError
from .hardware import Cluster
from .simcore import Process, Simulator


@dataclass
class GangRequest:
    """One gang: the shard kernels of one node of one program instance."""

    instance: str
    node: str
    client: str
    devices: tuple[int, ...]
    hosts: tuple[int, ...]
    hbm: dict[int, int]                  # device -> bytes to reserve
    duration_ns: int
    reply_to: str | None = None          # send handles here once ordered
    reply_payload: dict = field(default_factory=dict)

    @property
    def busy_estimate(self) -> int:
        return max(1, self.duration_ns * len(self.devices))


class _FifoPolicy:
    def __init__(self):
        self.queue: list[GangRequest] = []

    def push(self, g: GangRequest) -> None:
        self.queue.append(g)

    def pop(self, blocked: set[int]) -> GangRequest | None:
        for i, g in enumerate(self.queue):
            if not blocked.intersection(g.devices):
                return self.queue.pop(i)
        return None

    def has_eligible(self, blocked: set[int]) -> bool:
        return any(not blocked.intersection(g.devices) for g in self.queue)

    def __len__(self):
        return len(self.queue)

    def drop_client(self, client: str) -> None:
        self.queue = [g for g in self.queue if g.client != client]


class _StridePolicy:
    """Stride scheduling over per-client FIFO queues."""

    def __init__(self, weights: dict[str, float]):
        fracs = {c: _weight(c, w) for c, w in weights.items()}
        # busy / (p/q), scaled by the lcm of all p (1 for the default weight)
        scale = math.lcm(1, *(f.numerator for f in fracs.values()))
        self.default_stride = scale
        self.strides = {c: scale // f.numerator * f.denominator
                        for c, f in fracs.items()}
        self.queues: dict[str, list[GangRequest]] = {}
        self.clients: list[str] = []          # sorted keys of queues
        self.passes: dict[str, int] = {}
        self.global_pass = 0

    def push(self, g: GangRequest) -> None:
        if g.client not in self.queues:
            self.clients = sorted([*self.queues, g.client])
        q = self.queues.setdefault(g.client, [])
        if not q:
            # a client joining (or rejoining) starts at the current virtual
            # pass so idle periods are not banked as credit
            self.passes[g.client] = max(
                self.passes.get(g.client, 0), self.global_pass)
        q.append(g)

    def _eligible(self, blocked: set[int]) -> list[str]:
        # per-client order is FIFO, so a client competes with its head gang
        return [c for c in self.clients if self.queues[c]
                and not blocked.intersection(self.queues[c][0].devices)]

    def pop(self, blocked: set[int]) -> GangRequest | None:
        cands = self._eligible(blocked)
        if not cands:
            return None
        # cands are sorted, so min breaks a tie by client name
        client = min(cands, key=self.passes.__getitem__)
        g = self.queues[client].pop(0)
        self.global_pass = self.passes[client]
        self.passes[client] += g.busy_estimate * self.strides.get(
            client, self.default_stride)
        return g

    def has_eligible(self, blocked: set[int]) -> bool:
        return bool(self._eligible(blocked))

    def __len__(self):
        return sum(len(q) for q in self.queues.values())

    def drop_client(self, client: str) -> None:
        self.queues.pop(client, None)
        self.clients = sorted(self.queues)


def _weight(client: str, w) -> Fraction:
    """A client's weight as the fraction the policy charges with."""
    if isinstance(w, Real) and not isinstance(w, bool) and math.isfinite(w):
        f = Fraction(w).limit_denominator(10**6)
        if f > 0:
            return f
    raise ValidationError(
        f"client {client!r}: weight {w!r} is not a positive number at "
        "1e-6 resolution")


class IslandScheduler(Process):
    """Scheduler process for one island. pid is "sched<island>"."""

    def __init__(self, sim: Simulator, cluster: Cluster, island: int,
                 costs: CostModel, policy: Policy, control_latency_ns: int):
        super().__init__(sim, f"sched{island}")
        self.cluster = cluster
        self.island = island
        self.costs = costs
        self.control_latency_ns = control_latency_ns
        if policy.kind == "proportional":
            self.policy = _StridePolicy(dict(policy.weights))
        else:
            self.policy = _FifoPolicy()
        self._seq = 0
        self._parked: dict[int, GangRequest] = {}    # ticket seq -> gang
        # devices with a parked gang: it must be granted before more work is
        # ordered onto them, so later arrivals wait in the policy queue where
        # arrival order does not outrank the policy
        self._blocked: set[int] = set()
        self._tasks: list[tuple] = []                # serialized work items
        self._working = False
        self._retry_queued = False
        self._dead_clients: set[str] = set()
        self.dispatched: list[tuple[int, int, str, str, str]] = []
        # rows: (ticket seq, t_ns, client, instance, node)

    # -- message interface -------------------------------------------------

    def handle(self, kind: str, payload: dict, src: str | None) -> None:
        if kind == "submit":
            for g in payload["gangs"]:
                if g.client in self._dead_clients:
                    continue
                self.policy.push(g)
            self._pump()
        elif kind == "sched_task_done":
            self._finish_task()
        elif kind == "hbm_freed":
            self._retry_queued = False
            self._try_grants()
        elif kind == "client_failed":
            self._drop_client(payload["client"])
        else:
            raise ValueError(f"scheduler: unknown message {kind}")

    def submit(self, gangs: list[GangRequest], src_pid: str,
               latency_ns: int | None = None) -> None:
        """One message per subgraph, however many gangs it carries."""
        lat = self.control_latency_ns if latency_ns is None else latency_ns
        self.sim.send(src_pid, self.pid, "submit", {"gangs": gangs}, latency=lat)

    # -- serialized work loop ----------------------------------------------

    def _pump(self) -> None:
        if not self._working and (
                self._tasks or self.policy.has_eligible(self._blocked)):
            self._start_next_task()

    def _start_next_task(self) -> None:
        if self._tasks:
            task = self._tasks.pop(0)
        elif self.policy.has_eligible(self._blocked):
            task = ("decide",)
        else:
            self._working = False
            return
        self._working = True
        self._current = task
        cost = (self.costs.sched_decision_ns if task[0] == "decide"
                else self.costs.sched_send_ns * task[1])
        self.sim.schedule_in(cost, self.pid, "sched_task_done", {})

    def _finish_task(self) -> None:
        task = self._current
        if task[0] == "decide":
            # eligibility can only widen while the decision was in flight,
            # except when a client death emptied the queue; then skip
            gang = self.policy.pop(self._blocked)
            if gang is not None:
                self._seq += 1
                self._parked[self._seq] = gang
                self._blocked.update(gang.devices)
                self._try_grants()
        else:
            _kind, _nsends, sends = task
            for dst, mkind, payload in sends:
                lat = (self.costs.client_rpc_ns if dst.startswith("client")
                       else self.control_latency_ns)
                self.sim.send(self.pid, dst, mkind, payload, latency=lat)
        self._working = False
        self._start_next_task()

    # -- reservations ------------------------------------------------------

    def _try_grants(self) -> None:
        """Grant, in ticket order, each parked gang whose devices have room.
        Parked gangs share no device, so one grant cannot make room for
        another: one pass suffices."""
        for seq in sorted(self._parked):
            gang = self._parked[seq]
            if not all(self.cluster.device(d).free_bytes >= gang.hbm.get(d, 0)
                       for d in gang.devices):
                continue
            for d in gang.devices:   # atomic: all checked, now take all
                need = gang.hbm.get(d, 0)
                if need:
                    taken = self.cluster.device(d).hbm_try_take(need)
                    assert taken
            del self._parked[seq]
            self._blocked.difference_update(gang.devices)
            self._grant(seq, gang)

    def _grant(self, seq: int, gang: GangRequest) -> None:
        self.dispatched.append((seq, self.sim.now(), gang.client,
                                gang.instance, gang.node))
        sends = []
        for h in gang.hosts:
            sends.append((f"host{h}", "go",
                          {"instance": gang.instance, "node": gang.node,
                           "ticket": seq, "client": gang.client}))
        if gang.reply_to:
            reply = {"instance": gang.instance, "node": gang.node,
                     "ticket": seq}
            reply.update(gang.reply_payload)
            sends.append((gang.reply_to, "handles", reply))
        self._tasks.append(("dispatch", len(sends), sends))
        self._pump()

    def notify_hbm_freed(self) -> None:
        """Called (via runtime hook) when device bytes return; coalesced."""
        if not self._retry_queued:
            self._retry_queued = True
            self.sim.schedule_in(0, self.pid, "hbm_freed", {})

    def _drop_client(self, client: str) -> None:
        self._dead_clients.add(client)
        self.policy.drop_client(client)
        for seq in sorted(self._parked):
            if self._parked[seq].client == client:
                self._blocked.difference_update(self._parked.pop(seq).devices)
        self._try_grants()
        self._pump()           # removing parked gangs can unblock devices

    # -- introspection -----------------------------------------------------

    def obligations(self) -> list[str]:
        out = []
        if len(self.policy):
            out.append(f"{len(self.policy)} gangs awaiting dispatch")
        if self._parked:
            out.append(f"{len(self._parked)} gangs parked on memory")
        return out

    def ticket_log(self) -> list[tuple[int, str, str]]:
        return [(seq, inst, node) for seq, _t, _c, inst, node in self.dispatched]
