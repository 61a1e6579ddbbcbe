"""Benchmark drivers and their reporting.

Every driver builds fresh systems from a spec, runs to quiescence, and
returns a plain dict: {"benchmark", "params", "rows", "audit"}. The audit
block re-derives the headline numbers from the raw completion records so a
reporting bug cannot silently disagree with the simulation.
"""
from __future__ import annotations

import json

from .config import ClusterSpec, Policy, ValidationError, small_cluster
from .ir import CompiledFunction, Tracer, chain_program
from .runtime import (StreamJob, System, multicontroller_baseline, steady_rate)
from .simcore import Simulator, us


# -- reporting ---------------------------------------------------------------

def export_chrome_trace(sim: Simulator, path: str) -> None:
    """Complete-event trace, microsecond units, stable ordering."""
    evs = []
    for r in sim.trace:
        evs.append({
            "name": r.name, "ph": "X",
            "ts": r.start_ns / 1000.0, "dur": (r.end_ns - r.start_ns) / 1000.0,
            "pid": r.pid, "tid": r.tid,
            "args": {"program": r.instance or ""}})
    evs.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
    with open(path, "w") as f:
        json.dump(evs, f, separators=(",", ":"))


def write_results(doc: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _recheck_rate(series: list[tuple[int, int]], reported: float,
                  lo: float = 0.25, hi: float = 0.95) -> dict:
    """Independent recomputation of a steady-state rate from completions."""
    a = int(len(series) * lo)
    b = max(a + 2, int(len(series) * hi))
    b = min(b, len(series))
    t0 = series[a - 1][0] if a > 0 else 0
    units = 0
    t1 = t0
    for t, u in series[a:b]:
        units += u
        t1 = t
    again = units * 1e9 / (t1 - t0)
    return {"reported_per_s": reported, "recomputed_per_s": again,
            "agree": abs(again - reported) < 1e-6 * max(1.0, reported)}


# -- shared drivers ----------------------------------------------------------

def one_gang_program(n_devices: int, duration_us: float, out_kb: int = 1,
                     collective: bool = True):
    """Arg -> one sharded computation -> Result, one shard per device."""
    t = Tracer()
    fn = CompiledFunction("step", n_devices, (1024,), (out_kb * 1024,),
                          duration_us, collective=collective)
    v = t.arg(shards=n_devices, bytes_per_shard=1024)
    v = t.call(fn, v)
    return t.finish([v])


def run_stream(spec: ClusterSpec, n_devices: int, duration_us: float,
               count: int, window: int, trigger: str = "complete",
               clients: int = 1, record_trace: bool = True,
               record_log: bool = False) -> tuple[System, list[StreamJob]]:
    """Stream `count` instances per client over one shared device group."""
    sys = System(spec, record_trace=record_trace, record_log=record_log)
    prog = one_gang_program(n_devices, duration_us)
    devs = tuple(range(n_devices))
    sys.register_traced("g", prog, {sid: devs for sid in prog.slices})
    jobs = []
    for i in range(clients):
        c = sys.add_client(f"c{i}")
        job = StreamJob(sys.new_job_id(), "g", count, window=window,
                        trigger=trigger)
        sys.start_job(c, job)
        jobs.append(job)
    r = sys.run()
    if r.status != "quiescent":
        raise RuntimeError(f"stream run wedged: {r.blocked}")
    return sys, jobs


# -- dispatch throughput and latency -----------------------------------------

def bench_dispatch(host_counts=(1, 2, 4), devices_per_host: int = 2,
                   chain_len: int = 6, duration_us: float = 50.0,
                   count: int = 30, record_log: bool = False) -> dict:
    """Sequential vs parallel dispatch of a sharded chain."""
    rows = []
    audit = []
    last_sys = None
    for hosts in host_counts:
        spec = small_cluster(hosts=hosts, devices_per_host=devices_per_host)
        n_dev = hosts * devices_per_host
        fns = [CompiledFunction(f"f{i}", n_dev, (1024,), (1024,), duration_us)
               for i in range(chain_len)]
        for mode in ("sequential", "parallel"):
            prog = chain_program(fns)
            sys = System(spec)
            devs = tuple(range(n_dev))
            sys.register_traced("chain", prog,
                                {sid: devs for sid in prog.slices})
            c = sys.add_client("c0")
            job = StreamJob(sys.new_job_id(), "chain", 1, mode=mode)
            sys.start_job(c, job)
            one = sys.run()
            if one.status != "quiescent":
                raise RuntimeError(f"dispatch run wedged: {one.blocked}")
            inst = job.instances[0]
            makespan = c.completed_at[inst] - c.submitted_at[inst]

            sys2 = System(spec, record_log=record_log)
            sys2.register_traced("chain", prog,
                                 {sid: devs for sid in prog.slices})
            c2 = sys2.add_client("c0")
            job2 = StreamJob(sys2.new_job_id(), "chain", count, window=4,
                             trigger="complete", mode=mode)
            sys2.start_job(c2, job2)
            rr = sys2.run()
            if rr.status != "quiescent":
                raise RuntimeError(f"dispatch stream wedged: {rr.blocked}")
            series = sys2.completion_series()
            rate = steady_rate(series)
            rows.append({"hosts": hosts, "mode": mode,
                         "single_makespan_us": makespan / 1000.0,
                         "steady_gangs_per_s": rate})
            audit.append({"hosts": hosts, "mode": mode,
                          **_recheck_rate(series, rate)})
            last_sys = sys2
    return {"benchmark": "dispatch",
            "params": {"host_counts": list(host_counts),
                       "devices_per_host": devices_per_host,
                       "chain_len": chain_len, "duration_us": duration_us,
                       "count": count},
            "rows": rows, "audit": audit, "_system": last_sys}


# -- coordinated vs coordinator-free crossover --------------------------------

def _stream_rate(spec: ClusterSpec, n_dev: int, t_us: int, count: int,
                 window: int) -> float:
    sys, _ = run_stream(spec, n_dev, float(t_us), count, window,
                        trigger="handles", record_trace=False)
    return steady_rate(sys.completion_series())


def _baseline_rate(spec: ClusterSpec, t_us: int, count: int) -> float:
    run = multicontroller_baseline(spec, count, us(t_us))
    return run.rate()


def crossover_point(hosts: int, devices_per_host: int = 2, count: int = 40,
                    window: int = 32, lo_us: int = 1, hi_us: int = 4096,
                    threshold: float = 0.99) -> int:
    """Smallest per-kernel duration (us) at which coordinated dispatch
    sustains the coordinator-free rate, by bisection on the ratio."""
    spec = small_cluster(hosts=hosts, devices_per_host=devices_per_host)
    n_dev = hosts * devices_per_host

    def ratio_ok(t_us: int) -> bool:
        r_sys = _stream_rate(spec, n_dev, t_us, count, window)
        r_mc = _baseline_rate(spec, t_us, count)
        return r_sys >= threshold * r_mc

    if not ratio_ok(hi_us):
        raise RuntimeError(f"no crossover below {hi_us}us at {hosts} hosts")
    lo, hi = lo_us, hi_us
    while lo < hi:
        mid = (lo + hi) // 2
        if ratio_ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def bench_crossover(host_counts=(2, 4, 8, 16, 32, 64),
                    devices_per_host: int = 2, count: int = 40,
                    window: int = 32) -> dict:
    rows = []
    for hosts in host_counts:
        t_star = crossover_point(hosts, devices_per_host, count, window)
        spec = small_cluster(hosts=hosts, devices_per_host=devices_per_host)
        n_dev = hosts * devices_per_host
        r_sys = _stream_rate(spec, n_dev, t_star, count, window)
        r_mc = _baseline_rate(spec, t_star, count)
        rows.append({"hosts": hosts, "crossover_us": t_star,
                     "rate_per_s": r_sys, "baseline_per_s": r_mc,
                     "ratio": r_sys / r_mc})
    points = [r["crossover_us"] for r in rows]
    audit = [{"check": "nondecreasing in host count",
              "ok": all(b >= a for a, b in zip(points, points[1:]))},
             {"check": "growth across sweep",
              "ok": points[-1] >= 5 * points[0],
              "factor": points[-1] / points[0]}]
    return {"benchmark": "crossover",
            "params": {"host_counts": list(host_counts),
                       "devices_per_host": devices_per_host, "count": count,
                       "window": window},
            "rows": rows, "audit": audit}


# -- staged pipeline ----------------------------------------------------------

def pipeline_program(stages: int, micro: int, stage_us: float,
                     micro_kb: int = 1, islands: int = 1):
    """stages x micro grid: microbatch m flows through every stage in order."""
    t = Tracer()
    slices = []
    for s in range(stages):
        island = None if islands == 1 else s * islands // stages
        slices.append(t.virtual_slice([1], island=island))
    fns = [CompiledFunction(f"st{s}", 1, (micro_kb * 1024,),
                            (micro_kb * 1024,), stage_us)
           for s in range(stages)]
    outs = []
    for _m in range(micro):
        v = t.arg(shards=1, bytes_per_shard=micro_kb * 1024)
        for s in range(stages):
            v = t.call(fns[s], v, slice_id=slices[s])
        outs.append(v)
    return t.finish(outs)


def run_pipeline(stages: int, micro: int, stage_us: float = 1000.0,
                 micro_kb: int = 1, islands: int = 1,
                 record_log: bool = False) -> dict:
    if stages % islands:
        raise ValidationError(f"{stages} stages do not split over "
                              f"{islands} islands")
    spec = small_cluster(hosts=max(1, stages // (4 * islands)),
                         devices_per_host=4, islands=islands)
    sys = System(spec, record_log=record_log)
    prog = pipeline_program(stages, micro, stage_us, micro_kb, islands)
    sys.register_traced("pipe", prog, None)
    c = sys.add_client("c0")
    job = StreamJob(sys.new_job_id(), "pipe", 1, mode="parallel")
    sys.start_job(c, job)
    r = sys.run()
    if r.status != "quiescent":
        raise RuntimeError(f"pipeline run wedged: {r.blocked}")
    kernels = [t for t in sys.sim.trace if t.category == "kernel"]
    t0 = min(k.start_ns for k in kernels)
    t1 = max(k.end_ns for k in kernels)
    by_dev: dict[int, int] = {}
    for k in kernels:
        by_dev[k.tid] = by_dev.get(k.tid, 0) + (k.end_ns - k.start_ns)
    fracs = [busy / (t1 - t0) for busy in by_dev.values()]
    measured = sum(fracs) / len(fracs)
    expected = micro / (micro + stages - 1)
    return {"stages": stages, "micro": micro, "islands": islands,
            "busy_fraction": measured, "expected": expected,
            "abs_error": abs(measured - expected),
            "makespan_ms": (t1 - t0) / 1e6, "_system": sys}


def bench_pipeline(cases=((4, 16), (8, 32), (16, 64)),
                   stage_us: float = 1000.0, cross_island: bool = True,
                   record_log: bool = False) -> dict:
    rows = []
    last = None
    for s, m in cases:
        row = run_pipeline(s, m, stage_us, record_log=record_log)
        last = row.pop("_system")
        rows.append(row)
    if cross_island:
        # split the largest case over 4 islands; stage compute dwarfs the
        # inter-island hop, so throughput should match the one-island run
        row = run_pipeline(cases[-1][0], cases[-1][1], stage_us, islands=4,
                           record_log=record_log)
        last = row.pop("_system")
        rows.append(row)
    audit = [{"stages": r["stages"], "micro": r["micro"],
              "islands": r["islands"],
              "within_1pct": r["abs_error"] <= 0.01} for r in rows]
    if cross_island:
        one = rows[len(cases) - 1]["makespan_ms"]
        four = rows[-1]["makespan_ms"]
        audit.append({"check": "cross-island throughput parity",
                      "rel_error": abs(four - one) / one,
                      "within_1pct": abs(four - one) / one <= 0.01})
    return {"benchmark": "pipeline",
            "params": {"cases": [list(c) for c in cases],
                       "stage_us": stage_us, "cross_island": cross_island},
            "rows": rows, "audit": audit, "_system": last}


# -- multitenancy -------------------------------------------------------------

def bench_utilization(client_counts=(1, 2, 4, 8, 16), duration_us: float = 330.0,
                      per_client: int = 30, devices: int = 4,
                      spec: ClusterSpec | None = None,
                      record_log: bool = False) -> dict:
    """Device busy fraction as submit-on-completion tenants pile up."""
    spec = spec or small_cluster(hosts=1, devices_per_host=devices)
    devices = spec.islands[0].device_count   # the shared gang spans island 0
    rows = []
    audit = []
    last_sys = None
    for k in client_counts:
        sys, _jobs = run_stream(spec, devices, duration_us, per_client,
                                window=1, trigger="complete", clients=k,
                                record_log=record_log)
        series = sys.completion_series()
        a = int(len(series) * 0.25)
        b = max(a + 2, int(len(series) * 0.95))
        t0, t1 = series[a][0], series[min(b, len(series)) - 1][0]
        util = sys.device_busy_fraction(range(devices), t0, t1)
        rows.append({"clients": k, "utilization": util,
                     "gangs": len(series)})
        rate = steady_rate(series)
        audit.append({"clients": k, **_recheck_rate(series, rate)})
        last_sys = sys
    return {"benchmark": "utilization",
            "params": {"client_counts": list(client_counts),
                       "duration_us": duration_us,
                       "per_client": per_client, "devices": devices},
            "rows": rows, "audit": audit, "_system": last_sys}


def bench_fairness(weights: dict[str, float], total_gangs: int = 10400,
                   duration_us: float = 50.0, window: int = 24,
                   out_kb: int = 1024, resident: int = 2,
                   spec: ClusterSpec | None = None,
                   record_log: bool = False) -> dict:
    """Grant share per client under proportional-share ordering.

    Device memory is sized so at most `resident` gangs hold buffers at a
    time; everyone else waits at the scheduler, which is where the policy
    picks who goes next. Without that pressure every arrival is granted on
    the spot and the shares only mirror submission interleaving. Per-client
    gang counts follow the weights so no queue runs dry inside the
    measurement window; a policy that ignored the weights would still be
    caught there, as the mid-run grant mix would drift toward uniform.
    """
    gang_bytes = 1024 + out_kb * 1024
    spec = spec or small_cluster(hosts=1, devices_per_host=1,
                                 hbm_bytes=resident * gang_bytes + 4096)
    wsum = sum(weights.values())
    sys = System(spec, policy=Policy(kind="proportional", weights=weights),
                 record_trace=False, record_log=record_log)
    prog = one_gang_program(1, duration_us, out_kb=out_kb, collective=False)
    sys.register_traced("g", prog, {sid: (0,) for sid in prog.slices})
    for name in sorted(weights):
        c = sys.add_client(name)
        count = max(window, round(total_gangs * weights[name] / wsum))
        job = StreamJob(sys.new_job_id(), "g", count, window=window,
                        trigger="complete")
        sys.start_job(c, job)
    r = sys.run()
    if r.status != "quiescent":
        raise RuntimeError(f"fairness run wedged: {r.blocked}")
    log = sys.scheds[0].dispatched
    a, b = int(len(log) * 0.2), int(len(log) * 0.9)
    mid = log[a:b]
    counts: dict[str, int] = {}
    for _seq, _t, client, _i, _n in mid:
        counts[client] = counts.get(client, 0) + 1
    total = sum(counts.values())
    wsum = sum(weights.values())
    rows = []
    for name in sorted(weights):
        share = counts.get(name, 0) / total
        rows.append({"client": name, "weight": weights[name],
                     "share": share, "expected": weights[name] / wsum,
                     "abs_error": abs(share - weights[name] / wsum)})
    audit = [{"check": "window size", "grants_measured": total,
              "total_grants": len(log)}]
    return {"benchmark": "fairness",
            "params": {"weights": weights, "total_gangs": total_gangs,
                       "duration_us": duration_us, "window": window,
                       "out_kb": out_kb, "resident": resident},
            "rows": rows, "audit": audit, "_system": sys}


# -- registry used by the command line ----------------------------------------

# the workload keys each suite reads; any other key is rejected, so a typo
# cannot silently run (and record) the defaults
WORKLOAD_KEYS = {
    "dispatch": ("host_counts", "devices_per_host", "chain_len",
                 "duration_us", "count"),
    "crossover": ("host_counts", "devices_per_host", "count", "window"),
    "pipeline": ("cases", "stage_us", "cross_island"),
    "utilization": ("client_counts", "duration_us", "per_client", "devices"),
    "fairness": ("weights", "total_gangs", "duration_us", "window", "out_kb",
                 "resident"),
}


def run_benchmark(name: str, workload: dict | None = None,
                  spec: ClusterSpec | None = None,
                  record_log: bool = False) -> dict:
    if name not in WORKLOAD_KEYS:
        raise ValidationError(f"unknown benchmark {name!r}")
    w = dict(workload or {})
    w.pop("benchmark", None)
    unknown = sorted(set(w) - set(WORKLOAD_KEYS[name]))
    if unknown:
        raise ValidationError(
            f"workload for {name!r} has unknown keys: {', '.join(unknown)}")
    if name in ("dispatch", "crossover", "pipeline") and spec is not None:
        raise ValidationError(
            f"benchmark {name!r} sweeps its own cluster shapes; "
            "--config does not apply")
    if name == "dispatch":
        return bench_dispatch(record_log=record_log, **_kwargs(w))
    if name == "crossover":
        if record_log:
            raise ValidationError(
                "crossover runs many short systems; no event log is kept")
        return bench_crossover(**_kwargs(w))
    if name == "pipeline":
        cases = w.pop("cases", None)
        return bench_pipeline(
            cases=tuple(tuple(c) for c in cases) if cases else
            ((4, 16), (8, 32), (16, 64)),
            record_log=record_log, **_kwargs(w))
    if name == "utilization":
        return bench_utilization(spec=spec, record_log=record_log, **_kwargs(w))
    weights = w.pop("weights", {"c0": 1, "c1": 1, "c2": 1, "c3": 1})
    return bench_fairness(weights={str(k): v for k, v in weights.items()},
                          spec=spec, record_log=record_log, **_kwargs(w))


def _kwargs(d: dict) -> dict:
    """Workload parameters as keyword arguments, JSON lists as tuples."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
