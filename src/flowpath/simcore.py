"""Deterministic discrete-event simulation kernel.

Every component of the simulated system is a logical process registered with a
single Simulator. Processes exchange timestamped messages; virtual time is
integer nanoseconds. Given the same inputs, a run produces a bit-identical
event sequence: the event queue is ordered by (fire_at, seq) where seq is a
global counter assigned at schedule time, and message payloads are restricted
to plain JSON-able data so the event log can be digested stably.
"""
from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field

NS_PER_US = 1_000
NS_PER_S = 1_000_000_000


def us(x: float) -> int:
    """Microseconds to integer nanoseconds."""
    return int(round(x * NS_PER_US))


class SimError(Exception):
    pass


class ScheduleInPastError(SimError):
    """Raised when an event is scheduled before the current clock."""


class Process:
    """A logical process with a deterministic mailbox.

    Subclasses implement handle(kind, payload, src). obligations() reports
    outstanding work that should prevent a clean quiescent verdict (for
    example a non-empty kernel queue); wait_edges() reports who this process
    is waiting on, for the wait-for-graph deadlock oracle.
    """

    def __init__(self, sim: "Simulator", pid: str):
        self.sim = sim
        self.pid = pid
        sim.register(self)

    def handle(self, kind: str, payload: dict, src: str | None) -> None:
        raise NotImplementedError

    def obligations(self) -> list[str]:
        return []

    def wait_edges(self) -> list[tuple[str, str]]:
        return []


@dataclass
class TraceRecord:
    """One completed span on a serialized lane (kernel, prep, transfer...)."""

    pid: int
    tid: int
    name: str
    start_ns: int
    end_ns: int
    category: str
    instance: str | None = None


@dataclass
class RunResult:
    clock_ns: int
    status: str              # "quiescent" | "deadlock"
    events: int
    blocked: list[str] = field(default_factory=list)


def payload_digest(payload: dict) -> str:
    # default=repr admits dataclass payload fields; their reprs are value-based
    # and therefore stable across runs
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Simulator:
    """Event queue, channels, clock, and the event/trace logs."""

    def __init__(self, record_log: bool = False, record_trace: bool = True):
        self.clock: int = 0
        self._seq = 0
        self._heap: list[tuple[int, int]] = []
        self._events: dict[int, tuple[str, str, dict, str | None]] = {}
        self._procs: dict[str, Process] = {}
        # per (sender, receiver) channel: last delivery timestamp, so a
        # channel never reorders (FIFO per sender/receiver pair)
        self._chan_last: dict[tuple[str, str], int] = {}
        self.record_log = record_log
        self.log: list[tuple[int, int, str, str, dict]] = []
        self.record_trace = record_trace
        self.trace: list[TraceRecord] = []
        self.completions: list[tuple[int, str, str]] = []  # (t, instance, node)

    # -- registration ------------------------------------------------------

    def register(self, proc: Process) -> None:
        if proc.pid in self._procs:
            raise SimError(f"duplicate process id {proc.pid!r}")
        self._procs[proc.pid] = proc

    def process(self, pid: str) -> Process:
        return self._procs[pid]

    def now(self) -> int:
        return self.clock

    # -- scheduling --------------------------------------------------------

    def schedule_at(self, fire_at: int, target: str, kind: str,
                    payload: dict | None = None, src: str | None = None) -> int:
        if fire_at < self.clock:
            raise ScheduleInPastError(
                f"fire_at {fire_at} < clock {self.clock} for {kind} -> {target}")
        self._seq += 1
        eid = self._seq
        self._events[eid] = (target, kind, payload or {}, src)
        heapq.heappush(self._heap, (fire_at, eid))
        return eid

    def schedule_in(self, delay: int, target: str, kind: str,
                    payload: dict | None = None, src: str | None = None) -> int:
        return self.schedule_at(self.clock + delay, target, kind, payload, src)

    def send(self, src: str, dst: str, kind: str, payload: dict | None = None,
             latency: int = 0) -> int:
        """Channel send: per (src, dst) pair deliveries never reorder."""
        chan = (src, dst)
        deliver = max(self.clock + latency, self._chan_last.get(chan, 0))
        self._chan_last[chan] = deliver
        return self.schedule_at(deliver, dst, kind, payload, src)

    def cancel(self, eid: int) -> None:
        self._events.pop(eid, None)

    # -- observability -----------------------------------------------------

    def trace_span(self, pid: int, tid: int, name: str, start_ns: int,
                   end_ns: int, category: str, instance: str | None = None) -> None:
        if self.record_trace:
            self.trace.append(
                TraceRecord(pid, tid, name, start_ns, end_ns, category, instance))

    def note_completion(self, instance: str, node: str) -> None:
        self.completions.append((self.clock, instance, node))

    def dump_event_log(self, path: str) -> None:
        """NDJSON, one event per line: t_ns, seq, target, kind, payload_digest."""
        with open(path, "w") as f:
            for t, seq, target, kind, payload in self.log:
                row = {"t_ns": t, "seq": seq, "target": target, "kind": kind,
                       "payload_digest": payload_digest(payload)}
                f.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
                f.write("\n")

    # -- main loop ---------------------------------------------------------

    def run_until_quiescent(self, max_events: int | None = None) -> RunResult:
        """Drain the event queue; classify the end state.

        Quiescent means no process reports outstanding obligations once the
        queue is empty. Otherwise the run ended in deadlock: some device holds
        an incomplete kernel or some process awaits a message that can never
        arrive.
        """
        n = 0
        while self._heap:
            fire_at, eid = heapq.heappop(self._heap)
            entry = self._events.pop(eid, None)
            if entry is None:
                continue  # cancelled
            target, kind, payload, src = entry
            self.clock = fire_at
            if self.record_log:
                self.log.append((fire_at, eid, target, kind, payload))
            self._procs[target].handle(kind, payload, src)
            n += 1
            if max_events is not None and n >= max_events:
                raise SimError(f"exceeded max_events={max_events}")
        blocked = []
        for pid in self._procs:
            for reason in self._procs[pid].obligations():
                blocked.append(f"{pid}: {reason}")
        status = "quiescent" if not blocked else "deadlock"
        return RunResult(self.clock, status, n, blocked)

    # -- deadlock oracle ---------------------------------------------------

    def wait_for_graph(self) -> dict[str, set[str]]:
        """Edges X -> Y meaning process X cannot progress until Y acts."""
        graph: dict[str, set[str]] = {}
        for pid in self._procs:
            for a, b in self._procs[pid].wait_edges():
                graph.setdefault(a, set()).add(b)
        return graph


def find_wait_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """Return one cycle in the wait-for graph, or None. Iterative DFS."""
    color: dict[str, int] = {}  # 0 absent, 1 on stack, 2 done
    parent: dict[str, str] = {}
    for root in sorted(graph):
        if color.get(root):
            continue
        stack = [(root, iter(sorted(graph.get(root, ()))))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 1:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle[1:]
                if not color.get(nxt):
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return None
