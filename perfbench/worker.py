"""Run one benchmark workload repeatedly in this process; print one JSON line.

    python3 perfbench/worker.py --workload chain_seq --seed 7 --seconds 25 [--trace 1]

The process runs no other workload, so its peak resident memory belongs to
this one. The orchestrator (`run.py`) starts one worker per workload run.
With `--trace 1` the module entry points are wrapped (see `spans.py`) and each
timed iteration also carries the per-layer metrics.

Every workload is a closed loop: a `StreamJob` with `trigger="complete"`
keeps a fixed window of instances in flight per client. The seed only draws
kernel durations and, for `tenants`, client start offsets; the simulator
receives the generated inputs and nothing else.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from flowpath import (CompiledFunction, Policy, StreamJob, System,  # noqa: E402
                      chain_program, small_cluster)
from flowpath.bench import one_gang_program, pipeline_program  # noqa: E402
from flowpath.runtime import steady_rate  # noqa: E402
from flowpath.simcore import us  # noqa: E402
from flowpath.store import audit_leaks, audit_no_double_free  # noqa: E402
from spans import install  # noqa: E402

WORKLOADS = ("chain_seq", "chain_par", "tenants", "pipeline_xisland")

# chain_seq / chain_par: one 4-node all-device chain, 96 devices
CHAIN_HOSTS, CHAIN_DPH, CHAIN_NODES, CHAIN_WINDOW = 24, 4, 4, 4
CHAIN_COUNT = {"chain_seq": 40, "chain_par": 80}
# kernels outlast the scheduler's per-gang cost at 24 hosts (130 us), so
# parallel dispatch is device-bound and the drawn durations show in sim_*
CHAIN_US = (148.5, 151.5)
# tenants: weighted clients share one device whose HBM fits RESIDENT gangs
TENANT_WEIGHTS = {"t0": 1, "t1": 2, "t2": 4, "t3": 8}
TENANT_GANGS, TENANT_WINDOW, TENANT_OUT_KB, TENANT_RESIDENT = 10400, 24, 1024, 2
TENANT_US = (49.5, 50.5)
TENANT_OFFSET_US = (0.0, 200.0)
# pipeline_xisland: stages x microbatches, stages split over islands
PIPE_STAGES, PIPE_MICRO, PIPE_ISLANDS = 32, 128, 4
PIPE_US = (995.0, 1005.0)

# a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10
# nominal seconds of probe(); host times are scaled by PROBE_REF_S / probe()
PROBE_REF_S = 0.15


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs: a pure function of (workload family, seed)."""
    if workload in ("chain_seq", "chain_par"):
        # same family key, so both modes run the same program for a seed
        rng = random.Random(f"chain/{seed}")
        return {"durations_us": [round(rng.uniform(*CHAIN_US), 3)
                                 for _ in range(CHAIN_NODES)]}
    if workload == "tenants":
        rng = random.Random(f"tenants/{seed}")
        return {"duration_us": round(rng.uniform(*TENANT_US), 3),
                "offsets_us": {c: round(rng.uniform(*TENANT_OFFSET_US), 3)
                               for c in sorted(TENANT_WEIGHTS)}}
    if workload == "pipeline_xisland":
        rng = random.Random(f"pipeline/{seed}")
        return {"stage_us": round(rng.uniform(*PIPE_US), 3)}
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, inputs: dict) -> System:
    """Build the System, trace, lower and register the program, start jobs."""
    if workload in ("chain_seq", "chain_par"):
        n = CHAIN_HOSTS * CHAIN_DPH
        system = System(small_cluster(hosts=CHAIN_HOSTS,
                                      devices_per_host=CHAIN_DPH))
        fns = [CompiledFunction(f"f{i}", n, (1024,), (1024,), d,
                                collective=True)
               for i, d in enumerate(inputs["durations_us"])]
        # every workload places its slices through resman; here each slice
        # gets all 96 devices in order
        system.register_traced("chain", chain_program(fns))
        mode = "sequential" if workload == "chain_seq" else "parallel"
        system.start_job(system.add_client("c0"), StreamJob(
            system.new_job_id(), "chain", CHAIN_COUNT[workload],
            window=CHAIN_WINDOW, trigger="complete", mode=mode))
    elif workload == "tenants":
        # as the fairness suite: memory pressure makes gangs wait at the
        # scheduler, where the policy chooses who goes next
        gang_bytes = 1024 + TENANT_OUT_KB * 1024
        spec = small_cluster(hosts=1, devices_per_host=1,
                             hbm_bytes=TENANT_RESIDENT * gang_bytes + 4096)
        system = System(spec, policy=Policy(kind="proportional",
                                            weights=dict(TENANT_WEIGHTS)),
                        record_trace=False)
        prog = one_gang_program(1, inputs["duration_us"],
                                out_kb=TENANT_OUT_KB, collective=False)
        system.register_traced("g", prog)
        wsum = sum(TENANT_WEIGHTS.values())
        for name in sorted(TENANT_WEIGHTS):
            count = max(TENANT_WINDOW,
                        round(TENANT_GANGS * TENANT_WEIGHTS[name] / wsum))
            system.start_job(system.add_client(name), StreamJob(
                system.new_job_id(), "g", count, window=TENANT_WINDOW,
                trigger="complete"), at_ns=us(inputs["offsets_us"][name]))
    elif workload == "pipeline_xisland":
        spec = small_cluster(hosts=max(1, PIPE_STAGES // (4 * PIPE_ISLANDS)),
                             devices_per_host=4, islands=PIPE_ISLANDS)
        system = System(spec)
        prog = pipeline_program(PIPE_STAGES, PIPE_MICRO, inputs["stage_us"],
                                islands=PIPE_ISLANDS)
        system.register_traced("pipe", prog)
        system.start_job(system.add_client("c0"), StreamJob(
            system.new_job_id(), "pipe", 1, mode="parallel"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return system


# -- correctness gate -------------------------------------------------------

def planned_instances(system: System) -> int:
    return sum(job.count for c in system.clients.values()
               for job in c.jobs.values())


def count_failed(system: System, status: str) -> int:
    """Instances that failed, out of planned_instances(system).

    An instance fails if it never completed or landed in client.failed. A
    run that did not end quiescent, leaked device memory or freed a shard
    twice fails every instance it planned.
    """
    planned = planned_instances(system)
    if (status != "quiescent" or audit_leaks(system.cluster)
            or audit_no_double_free(system.audit)):
        return planned
    ok = sum(1 for c in system.clients.values() for inst in c.completed_at
             if inst not in c.failed)
    return planned - ok


# -- simulated-fleet metrics ------------------------------------------------

def latency_samples_ns(workload: str, system: System) -> list[int]:
    """Per-instance latency, submit to result at the client.

    The pipeline runs one instance, so its samples are per microbatch: from
    the instance's submit to the completion of the microbatch's last stage.
    """
    if workload == "pipeline_xisland":
        client = system.clients["c0"]
        info = system.programs["pipe"]
        last = {src for _rid, src, _port in info.results}
        return [t - client.submitted_at[inst]
                for t, inst, node in system.sim.completions if node in last]
    return [c.completed_at[inst] - c.submitted_at[inst]
            for c in system.clients.values() for inst in c.completed_at]


def tail(samples: list[int]) -> tuple[int, float]:
    """(value, percentile) of the highest rank with TAIL_BEYOND samples
    beyond it."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND          # 1-based rank
    if k < 1:
        raise ValueError(f"{len(s)} samples leave no tail percentile")
    return s[k - 1], 100.0 * k / len(s)


def share_error(system: System) -> float:
    """Largest |grant share - weight share| over the middle of the grant
    log; 0 with one client."""
    weights = {name: TENANT_WEIGHTS.get(name, 1) for name in system.clients}
    if len(weights) < 2:
        return 0.0
    log = system.scheds[0].dispatched
    mid = log[int(len(log) * 0.2):int(len(log) * 0.9)]
    counts: dict[str, int] = {}
    for _seq, _t, client, _inst, _node in mid:
        counts[client] = counts.get(client, 0) + 1
    wsum = sum(weights.values())
    return max(abs(counts.get(c, 0) / len(mid) - w / wsum)
               for c, w in weights.items())


def value_digests_agree(system: System) -> bool:
    """Every finished instance of one program computed the same values."""
    by_prog: dict[str, set] = {}
    for inst, digs in system.inst_digests.items():
        by_prog.setdefault(system.instances[inst].program.pid,
                           set()).add(tuple(digs))
    return all(len(v) == 1 for v in by_prog.values())


# -- machine speed ----------------------------------------------------------

class _Cell:
    __slots__ = ("a", "b", "d")

    def __init__(self, a: int):
        self.a = a
        self.b = [a]
        self.d = {"x": a}


def probe() -> float:
    """Seconds a fixed loop of object, dict and heap work takes now.

    On a shared virtual machine the CPU speed can drift by up to 2x over
    seconds to minutes, and process CPU time drifts with it, so one
    wall-clock reading says as much about the machine as about the
    simulator. Like the simulator, the loop
    touches many small objects in scattered order. It uses no flowpath
    code, so a change to the program cannot move it.
    """
    t0 = time.perf_counter()
    cells = [_Cell(i) for i in range(60_000)]
    j, acc = 1, 0
    for _ in range(120_000):
        j = (j * 1103515245 + 12345) & 0x7fffffff
        c = cells[j % len(cells)]
        acc += c.a + c.b[0] + c.d["x"]
    heap: list = []
    for i in range(12_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


# -- iterations -------------------------------------------------------------

# simulated results of one iteration; they must repeat exactly for a seed
SIM_KEYS = ("status", "events", "gangs", "sim_clock_ns", "completion_digest",
            "sim_gangs_per_s", "sim_latency_p50_us", "sim_latency_tail_us",
            "sim_latency_tail_pct", "sim_latency_samples", "sim_share_err",
            "instances_retained", "audit_rows")


def iteration(workload: str, inputs: dict, trace: bool) -> dict:
    """Build and run the workload once; its host times and sim results."""
    rec = install() if trace else None
    try:
        t0 = time.perf_counter()
        system = build(workload, inputs)
        t1 = time.perf_counter()
        stats = system.run()
        t2 = time.perf_counter()
    finally:
        if rec is not None:
            rec.restore()
    series = system.completion_series()
    lat = latency_samples_ns(workload, system)
    tail_ns, tail_pct = tail(lat)
    out = {
        "setup_s": t1 - t0, "run_s": t2 - t1, "total_s": t2 - t0,
        "gangs_per_host_s": len(series) / (t2 - t1),
        "status": stats.status, "events": stats.events, "gangs": len(series),
        "sim_clock_ns": stats.clock_ns,
        "completion_digest": hashlib.sha256(json.dumps(
            series, separators=(",", ":")).encode()).hexdigest(),
        "sim_gangs_per_s": steady_rate(series),
        "sim_latency_p50_us": statistics.median(lat) / 1000.0,
        "sim_latency_tail_us": tail_ns / 1000.0,
        "sim_latency_tail_pct": tail_pct,
        "sim_latency_samples": len(lat),
        "sim_share_err": share_error(system),
        "instances_retained": len(system.instances),
        "audit_rows": len(system.audit),
        "attempted": planned_instances(system),
        "failed": count_failed(system, stats.status),
        "values_agree": value_digests_agree(system),
    }
    if rec is not None:
        out["layers"] = rec.layer_metrics(system, stats, t2 - t1)
        out["split"] = rec.layer_split()
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Iterate the workload in this process for about `seconds`.

    The first iteration runs in a fresh process: peak RSS is read after it,
    and its times are left out as a warm-up. Later iterations are timed;
    at least two are, and none starts that would end past the deadline.
    A probe runs before and after each timed iteration; the iteration's
    `scale` is PROBE_REF_S over the mean of the two.
    """
    deadline = time.perf_counter() + seconds
    inputs = make_inputs(workload, seed)
    first = iteration(workload, inputs, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed: list[dict] = []
    mismatched: list[str] = []
    attempted, failed = first["attempted"], first["failed"]
    values_agree = first["values_agree"]
    # collect the last iteration's garbage first, so neither the probe nor
    # the next iteration pays for it
    gc.collect()
    before = probe()
    while True:
        it = iteration(workload, inputs, trace)
        gc.collect()
        after = probe()
        it["scale"] = PROBE_REF_S / ((before + after) / 2)
        before = after
        timed.append(it)
        attempted += it["attempted"]
        failed += it["failed"]
        values_agree = values_agree and it["values_agree"]
        mismatched += [k for k in SIM_KEYS
                       if it[k] != first[k] and k not in mismatched]
        per_it = statistics.median(t["total_s"] for t in timed) + after
        if len(timed) >= 2 and time.perf_counter() + per_it > deadline:
            break
    return {"workload": workload, "seed": seed, "inputs": inputs,
            "traced": trace, "peak_rss_mb": peak_rss_mb,
            "sim": {k: first[k] for k in SIM_KEYS}, "mismatched": mismatched,
            "attempted": attempted, "failed": failed,
            "values_agree": values_agree,
            "timed": [{k: v for k, v in t.items() if k not in SIM_KEYS}
                      for t in timed]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
