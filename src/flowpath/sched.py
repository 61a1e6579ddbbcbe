"""Per-island gang scheduler.

All programs touching an island's devices funnel through one scheduler
process, which assigns each gang an island ticket (a monotone sequence
number). Kernels are enqueued on devices in ticket order, so any two gangs
sharing a device are ordered the same way everywhere they overlap: that
consistent order is what makes concurrent collectives deadlock-free.

Device memory for a gang is reserved atomically, all devices or none, in
ticket order on each device. A gang that cannot reserve parks without
holding anything; later gangs may overtake it only on devices it does not
touch. A gang gets its ticket only once no parked gang shares a device with
it, so each device has at most one ticket waiting and needs no line to keep
ticket order. A parked gang is tried when it parks, and again inside each
event that gives bytes back to its island, at that instant: there is no
retry event.

Policies: one pick rule, stride scheduling over FIFO queues. FIFO is one
queue that every client shares; proportional share is one queue per client.
Each queue offers its first gang that touches no blocked device, so a gang
behind a parked one never holds back later gangs on free devices, and the
queue with the lowest pass wins. The stride charge is the gang's estimated
device busy time over the client weight, so long-run busy-time shares
converge to the weights. Passes are integers: each weight is read as a
fraction p/q, and every charge is scaled by the lcm of the weights'
numerators, which keeps the exact order of fractional passes.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .config import CostModel, Policy, ValidationError
from .hardware import Cluster
from .simcore import Process, Simulator


@dataclass(slots=True)
class GangRequest:
    """One gang: the shard kernels of one node of one program instance."""

    instance: str
    node: str
    client: str
    devices: tuple[int, ...]
    hosts: tuple[int, ...]
    hbm: dict[int, int]                  # device -> bytes to reserve
    duration_ns: int
    reply_to: str | None = None          # client told "handles" once ordered

    @property
    def busy_estimate(self) -> int:
        return max(1, self.duration_ns * len(self.devices))


class _StridePolicy:
    """Stride scheduling over FIFO queues. Proportional share keeps one
    queue per client; FIFO (`weights` None) is one queue that every client
    shares. Each queue offers its first gang that touches no blocked device,
    and of those the queue with the lowest pass wins, a tie going to the
    first name."""

    def __init__(self, weights: dict[str, float] | None):
        self.shared = weights is None
        fracs = {c: _weight(c, w) for c, w in (weights or {}).items()}
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
        key = "" if self.shared else g.client
        if key not in self.queues:
            bisect.insort(self.clients, key)
        q = self.queues.setdefault(key, [])
        if not q:
            # a client joining (or rejoining) starts at the current virtual
            # pass so idle periods are not banked as credit
            self.passes[key] = max(self.passes.get(key, 0), self.global_pass)
        q.append(g)

    def pop(self, blocked: set[int]) -> GangRequest | None:
        # keys are sorted and only a lower pass wins, so a tie goes to the
        # first; a queue whose pass cannot win is not scanned
        client, best, index = None, 0, 0
        passes, queues = self.passes, self.queues
        for c in self.clients:
            if client is not None and passes[c] >= best:
                continue
            for i, g in enumerate(queues[c]):
                if blocked.isdisjoint(g.devices):
                    client, best, index = c, passes[c], i
                    break
        if client is None:
            return None
        g = queues[client].pop(index)
        self.global_pass = best
        passes[client] = best + g.busy_estimate * self.strides.get(
            client, self.default_stride)
        return g

    def __len__(self):
        return sum(map(len, self.queues.values()))

    def drop_client(self, client: str) -> None:
        for q in self.queues.values():
            q[:] = [g for g in q if g.client != client]


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
        self.policy = _StridePolicy(dict(policy.weights)
                                    if policy.kind == "proportional" else None)
        self._devices = frozenset(cluster.island_devices[island])
        self._seq = 0
        self._parked: dict[int, GangRequest] = {}    # ticket seq -> gang
        # devices with a parked gang: it must be granted before more work is
        # ordered onto them, so later arrivals wait in the policy queue where
        # arrival order does not outrank the policy
        self._blocked: set[int] = set()
        self._tasks: list[tuple] = []                # serialized work items
        self._current: tuple | None = None           # the task in flight
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
        """Start the next task, if idle and there is one. A decision takes
        its gang from the policy when it starts."""
        if self._current is not None:
            return
        if self._tasks:
            task = self._tasks.pop(0)
            cost = self.costs.sched_send_ns * task[1]
        elif self._blocked >= self._devices:
            return             # no gang can be picked past the parked ones
        else:
            gang = self.policy.pop(self._blocked)
            if gang is None:
                return
            task = ("decide", gang)
            cost = self.costs.sched_decision_ns
        self._current = task
        self.sim.schedule_in(cost, self.pid, "sched_task_done", {})

    def _finish_task(self) -> None:
        task, self._current = self._current, None
        if task[0] == "decide":
            gang = task[1]
            # a client that died during the decision has no gang to park
            if gang.client not in self._dead_clients:
                self._seq += 1
                self._parked[self._seq] = gang
                self._blocked.update(gang.devices)
                self.notify_hbm_freed()
        else:
            _kind, _nsends, seq, gang = task
            # one fan-out: the gang's hosts share one payload
            go = {"instance": gang.instance, "node": gang.node,
                  "ticket": seq, "client": gang.client}
            pids = self.cluster.host_pids
            self.sim.send_many("go", [(self.pid, pids[h], go)
                                      for h in gang.hosts],
                               self.control_latency_ns)
            if gang.reply_to:
                self.sim.send(self.pid, gang.reply_to, "handles",
                              {"instance": gang.instance, "node": gang.node,
                               "ticket": seq}, self.costs.client_rpc_ns)
        self._pump()

    # -- reservations ------------------------------------------------------

    def notify_hbm_freed(self) -> None:
        """Grant, in ticket order, each parked gang whose devices have room.
        Run when a gang parks, and (via the cluster hook) once all bytes of
        a free are back. Parked gangs share no device, so one grant cannot
        make room for another: one pass suffices. Tickets are parked in
        increasing order, so the dict's order is ticket order."""
        parked = self._parked
        if not parked:
            return
        devices = self.cluster.devices
        for seq, gang in list(parked.items()):
            for d, need in gang.hbm.items():
                if devices[d].free_bytes < need:
                    break
            else:
                for d, need in gang.hbm.items():   # atomic: all fit, take all
                    if need:
                        taken = devices[d].hbm_try_take(need)
                        assert taken
                del parked[seq]
                self._blocked.difference_update(gang.devices)
                self._grant(seq, gang)

    def _grant(self, seq: int, gang: GangRequest) -> None:
        self.dispatched.append((seq, self.sim.now(), gang.client,
                                gang.instance, gang.node))
        nsends = len(gang.hosts) + bool(gang.reply_to)
        self._tasks.append(("dispatch", nsends, seq, gang))
        self._pump()

    def _drop_client(self, client: str) -> None:
        self._dead_clients.add(client)
        self.policy.drop_client(client)
        for seq in list(self._parked):
            if self._parked[seq].client == client:
                self._blocked.difference_update(self._parked.pop(seq).devices)
        self._pump()           # removing parked gangs can unblock devices

    # -- introspection -----------------------------------------------------

    def obligations(self) -> list[str]:
        out = []
        if len(self.policy):
            out.append(f"{len(self.policy)} gangs awaiting dispatch")
        if self._parked:
            out.append(f"{len(self._parked)} gangs parked on memory")
        return out
