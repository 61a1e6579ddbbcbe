"""Deterministic discrete-event simulation kernel.

Every component of the simulated system is a logical process registered with a
single Simulator. Processes exchange timestamped messages; virtual time is
integer nanoseconds. Given the same inputs, a run produces a bit-identical
event sequence: the event queue is ordered by (fire_at, seq) where seq is a
global counter assigned at schedule time, and message payloads are restricted
to plain JSON-able data so the event log can be digested stably. A fan-out
(`send_many`) keeps a seq per delivery, so it logs as single sends.

Deliveries are ordered by (fire_at, seq) alone: the kernel keeps no state per
channel. A channel (a sender, receiver pair) stays in order because each one
carries a single latency, so a later send on it never fires earlier.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import sys
from dataclasses import dataclass, field, fields

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
    """How a run ended. "quiescent": the queue drained and no process
    reports an obligation. "deadlock": `blocked` names each one left, such
    as an incomplete or queued kernel, a message awaited that can never
    arrive, or state a finished run must not keep: HBM not returned, inputs
    landed for no kernel, readiness state or an instance still installed.
    When the processes' wait edges close a cycle, its last line names it,
    as in "wait-for cycle: dev1 -> dev0 -> dev1"."""

    clock_ns: int
    status: str              # "quiescent" | "deadlock"
    events: int
    blocked: list[str] = field(default_factory=list)


def _field_values(obj) -> list:
    """A dataclass payload field (a `GangRequest`, a `KernelExec`) as the
    list of its field values: renaming a field, or retyping a tuple as a
    list, moves no digest."""
    return [getattr(obj, f.name) for f in fields(obj)]


def payload_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_field_values)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Simulator:
    """Event queue, clock, and the event/trace logs. A send fires at clock +
    latency, in (fire_at, seq) order; callers keep one latency per (src, dst)
    channel, which keeps each channel in order."""

    def __init__(self, record_log: bool = False, record_trace: bool = True):
        self.clock: int = 0
        self._seq = 0
        # (fire_at, seq, target, kind, payload, src); seq is unique, so the
        # heap never compares past it
        self._heap: list[tuple[int, int, str, str, dict, str | None]] = []
        self._cancelled: set[int] = set()    # ids of pending events only
        self._procs: dict[str, Process] = {}
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

    def now(self) -> int:
        return self.clock

    # -- scheduling --------------------------------------------------------

    def schedule_at(self, fire_at: int, target: str, kind: str,
                    payload: dict | None = None, src: str | None = None) -> int:
        return self.schedule_in(fire_at - self.clock, target, kind, payload, src)

    def schedule_in(self, delay: int, target: str, kind: str,
                    payload: dict | None = None, src: str | None = None) -> int:
        if delay < 0:
            raise ScheduleInPastError(f"fire_at {self.clock + delay} < clock "
                                      f"{self.clock} for {kind} -> {target}")
        self._seq += 1
        eid = self._seq
        heapq.heappush(self._heap, (self.clock + delay, eid, target, kind,
                                    payload or {}, src))
        return eid

    def send(self, src: str, dst: str, kind: str, payload: dict | None = None,
             latency: int = 0) -> None:
        """Deliver to dst `latency` from now."""
        if latency < 0:
            raise ScheduleInPastError(f"latency {latency}: {kind} -> {dst}")
        self._seq += 1
        heapq.heappush(self._heap, (self.clock + latency, self._seq, dst, kind,
                                    payload or {}, src))

    def send_many(self, kind: str, sends: list[tuple[str, str, dict]],
                  latency: int = 0) -> None:
        """Sends (src, dst, payload) of one kind due `latency` from now, in
        one heap entry: target None, payload its (seq, dst, payload, src)
        rows. Fewer than two sends, or a negative latency, which send
        refuses, go through send."""
        if len(sends) < 2 or latency < 0:
            for src, dst, payload in sends:
                self.send(src, dst, kind, payload, latency)
            return
        seq = self._seq     # seqs taken together: no event falls between them
        self._seq += len(sends)
        rows = [(seq + i, dst, payload, src)
                for i, (src, dst, payload) in enumerate(sends, 1)]
        heapq.heappush(self._heap, (self.clock + latency, seq + 1, None, kind,
                                    rows, None))

    def cancel(self, eid: int) -> None:
        """Drop an event that has not fired yet."""
        self._cancelled.add(eid)

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
        """Drain the event queue; classify the end state (see RunResult).

        `max_events` bounds the events handled: the run raises when one more
        is due, and that event stays queued for a later run.
        """
        n = 0
        limit = sys.maxsize if max_events is None else max_events
        heap, pop, procs = self._heap, heapq.heappop, self._procs
        cancelled = self._cancelled
        log = self.log if self.record_log else None
        while heap:
            fire_at, eid, target, kind, payload, src = pop(heap)
            if eid in cancelled:
                cancelled.discard(eid)
                continue
            if n >= limit:
                heapq.heappush(heap, (fire_at, eid, target, kind, payload, src))
                raise SimError(f"exceeded max_events={max_events}")
            self.clock = fire_at
            if target is None:      # a fan-out: an event per row, in seq order
                rows, rest = payload[:limit - n], payload[limit - n:]
                if rest:            # past the limit: popped next, it raises
                    heapq.heappush(heap, (fire_at, rest[0][0], None, kind,
                                          rest, None))
                for eid, target, p, src in rows:
                    if log is not None:
                        log.append((fire_at, eid, target, kind, p))
                    procs[target].handle(kind, p, src)
                n += len(rows)
                continue
            if log is not None:
                log.append((fire_at, eid, target, kind, payload))
            procs[target].handle(kind, payload, src)
            n += 1
        blocked = []
        for pid in self._procs:
            for reason in self._procs[pid].obligations():
                blocked.append(f"{pid}: {reason}")
        cycle = blocked and find_wait_cycle(self.wait_for_graph())
        if cycle:
            blocked.append("wait-for cycle: " + " -> ".join(cycle + cycle[:1]))
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
