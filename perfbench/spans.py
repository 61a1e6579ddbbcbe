"""Per-layer spans recorded from outside the program.

`install()` wraps the public entry points of each flowpath module where they
are looked up (class attributes, and the names `runtime` bound by
`from ... import`). Wrappers come in two kinds:

- span: timed, on a span stack, so a span's self time is its duration minus
  the durations of the spans opened inside it. Spans that run inside
  `Simulator.run_until_quiescent` nest in it, so their self times add up to
  the loop's duration.
- count: calls only, optionally summing a per-call tally (bytes, say); the
  call's time stays in the self time of the span that made it.

Aggregates (calls, total, self, tally per metric) stay in memory and are read
once at the end; `restore()` puts the original attributes back.
"""
from __future__ import annotations

import time

from flowpath import (coord, executor, hardware, resman, runtime, sched,
                      simcore, store)

# layer -> stack spans that run inside the event loop and whose self time is
# the layer's; together they account for System.run
LAYER_SPANS = {
    "simcore": ("simcore.loop",),
    "runtime": ("runtime.client", "runtime.submit"),
    "sched": ("sched.handle",),
    "executor": ("executor.handle",),
    "coord": ("coord.tracker.expect", "coord.tracker.forget",
              "coord.on_punctuation", "coord.on_tuple", "coord.batcher.send",
              "coord.batcher.flush", "coord.batcher.on_timeout"),
    "hardware": ("hardware.device",),
    "store": ("store.put", "store.release", "store.gc_owner",
              "store.resolve_shard"),
}
IN_RUN = tuple(m for spans in LAYER_SPANS.values() for m in spans)


class Recorder:
    def __init__(self):
        # metric -> [calls, total_s, self_s, tally]
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []      # open spans: [wrapper, child_s]
        self._patches: list[tuple[object, str, object]] = []

    def _slot(self, metric: str) -> list:
        return self.stats.setdefault(metric, [0, 0.0, 0.0, 0])

    def _patch(self, owner, attr: str, wrapper) -> None:
        # only attributes defined on owner itself, so restore() is exact
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, metric: str,
             skip_reentry: bool = False) -> None:
        """skip_reentry: a call made directly inside the same wrapper (as
        HostExecutor.handle does for each message of a batch) passes
        through, so its time is counted once."""
        orig = getattr(owner, attr)
        slot = self._slot(metric)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if skip_reentry and stack and stack[-1][0] is wrapper:
                return orig(*args, **kwargs)
            frame = [wrapper, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                slot[0] += 1
                slot[1] += dur
                slot[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, metric: str, tally=None) -> None:
        orig = getattr(owner, attr)
        slot = self._slot(metric)

        def wrapper(*args, **kwargs):
            slot[0] += 1
            if tally is not None:
                slot[3] += tally(*args, **kwargs)
            return orig(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading ------------------------------------------------------------

    def calls(self, metric: str) -> int:
        return self._slot(metric)[0]

    def total(self, metric: str) -> float:
        return self._slot(metric)[1]

    def self_time(self, *metrics: str) -> float:
        return sum(self._slot(m)[2] for m in metrics)

    def tally(self, metric: str) -> float:
        return self._slot(metric)[3]

    def layer_metrics(self, system, stats, run_s: float) -> dict:
        """Every per-layer metric of one traced iteration."""
        hosts = list(system.hosts.values())
        batchers = ([h.batcher for h in hosts]
                    + [c.batcher for c in system.clients.values()])
        flushes = sum(b.flushes for b in batchers)
        batched = sum(b.batched_sent for b in batchers)
        devices = system.cluster.devices
        gangs = len(system.sim.completions)
        return {
            "simcore.events": stats.events,
            "simcore.events_per_gang": stats.events / gangs,
            "simcore.send_calls": self.calls("simcore.send"),
            "simcore.loop_self_s": self.self_time("simcore.loop"),
            "runtime.client_handle_calls": self.calls("runtime.client"),
            "runtime.client_self_s": self.self_time("runtime.client"),
            "runtime.submit_calls": self.calls("runtime.submit"),
            "runtime.submit_s": self.total("runtime.submit"),
            "runtime.instances_retained": len(system.instances),
            "sched.handle_calls": self.calls("sched.handle"),
            "sched.self_s": self.self_time("sched.handle"),
            "sched.grants": sum(len(s.dispatched)
                                for s in system.scheds.values()),
            "executor.handle_calls": self.calls("executor.handle"),
            "executor.self_s": self.self_time("executor.handle"),
            "executor.ctrl_msgs": sum(h.stats["ctrl_msgs"] for h in hosts),
            "executor.preps": sum(h.stats["preps"] for h in hosts),
            "executor.enqueues": sum(h.stats["enqueues"] for h in hosts),
            "executor.build_program_info_s":
                self.total("executor.build_program_info"),
            "coord.on_punctuation_calls": self.calls("coord.on_punctuation"),
            "coord.on_tuple_calls": self.calls("coord.on_tuple"),
            "coord.tracker_self_s": self.self_time(
                "coord.tracker.expect", "coord.tracker.forget",
                "coord.on_punctuation", "coord.on_tuple"),
            "coord.batcher_send_calls": self.calls("coord.batcher.send"),
            "coord.batch_flushes": flushes,
            "coord.batch_fill": batched / flushes if flushes else 0.0,
            "coord.batcher_self_s": self.self_time(
                "coord.batcher.send", "coord.batcher.flush",
                "coord.batcher.on_timeout"),
            "hardware.device_handle_calls": self.calls("hardware.device"),
            "hardware.device_self_s": self.self_time("hardware.device"),
            "hardware.transfers": self.calls("hardware.transfer"),
            "hardware.transfer_bytes": self.tally("hardware.transfer"),
            "hardware.collectives": round(self.tally("hardware.collective")),
            "hardware.device_busy_frac":
                sum(d.busy_ns for d in devices)
                / (len(devices) * stats.clock_ns),
            "store.put_calls": self.calls("store.put"),
            "store.release_calls": self.calls("store.release"),
            "store.self_s": self.self_time("store.put", "store.release",
                                           "store.gc_owner",
                                           "store.resolve_shard"),
            "store.audit_rows": len(system.audit),
            "ir.lower_s": self.total("ir.lower"),
            "ir.validate_regularity_calls":
                self.calls("ir.validate_regularity"),
            "resman.allocate_calls": self.calls("resman.allocate"),
            "resman.allocate_s": self.total("resman.allocate"),
            "trace.run_s": run_s,
            "trace.unattributed_s": run_s - self.self_time(*IN_RUN),
        }

    def layer_split(self) -> dict[str, float]:
        """In-loop self seconds per layer."""
        return {layer: self.self_time(*spans)
                for layer, spans in LAYER_SPANS.items()}


def install() -> Recorder:
    """Wrap every named entry point; call restore() on the result after."""
    r = Recorder()
    r.span(simcore.Simulator, "run_until_quiescent", "simcore.loop")
    r.count(simcore.Simulator, "send", "simcore.send")
    r.span(runtime.ClientProcess, "handle", "runtime.client")
    r.span(runtime.System, "submit", "runtime.submit")
    r.span(sched.IslandScheduler, "handle", "sched.handle")
    r.span(executor.HostExecutor, "handle", "executor.handle",
           skip_reentry=True)
    r.span(runtime, "build_program_info", "executor.build_program_info")
    for name in ("expect", "forget"):
        r.span(coord.ProgressTracker, name, f"coord.tracker.{name}")
    r.span(coord.ProgressTracker, "on_punctuation", "coord.on_punctuation")
    r.span(coord.ProgressTracker, "on_tuple", "coord.on_tuple")
    for name in ("send", "flush", "on_timeout"):
        r.span(coord.MessageBatcher, name, f"coord.batcher.{name}")
    r.span(hardware.DeviceProcess, "handle", "hardware.device")
    r.count(hardware.Cluster, "transfer", "hardware.transfer",
            tally=lambda _cluster, _src, _dst, nbytes, *_a, **_k: nbytes)
    # each member arrives once, so a whole rendezvous tallies to 1
    r.count(hardware.Cluster, "collective_arrive", "hardware.collective",
            tally=lambda _cluster, _dev, k: 1.0 / k.group_size)
    for name in ("put", "release", "gc_owner", "resolve_shard"):
        r.span(store.HostStore, name, f"store.{name}")
    r.span(runtime, "lower", "ir.lower")
    r.count(runtime, "validate_regularity", "ir.validate_regularity")
    r.span(resman.ResourceManager, "allocate_slice", "resman.allocate")
    return r
