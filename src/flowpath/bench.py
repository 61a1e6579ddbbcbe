"""Benchmark drivers and their reporting.

Every suite, and `flowpath run`, builds each System itself and starts its
program and clients through the one builder, `start_streams`; a suite then
runs it with `run_to_quiescence`. Each suite returns a plain dict:
{"benchmark", "params", "rows", "audit"}. The audit block re-derives the
headline numbers from the raw completion records so a reporting bug cannot
silently disagree with the simulation.
"""
from __future__ import annotations

import inspect
import json
import math

from .config import (MAX_DEVICES, MAX_KERNELS, MAX_NODES, MAX_RUNS,
                     ClusterSpec, CostModel, Policy, ValidationError,
                     check_keys, small_cluster)
from .ir import CompiledFunction, TracedProgram, Tracer, chain_program
from .runtime import StreamJob, System, steady_rate
from .sched import _weight
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


def _recheck_rate(series: list[tuple[int, int]], reported: float) -> dict:
    """Independent recomputation of `steady_rate` from completions."""
    a = int(len(series) * 0.25)
    b = max(a + 2, int(len(series) * 0.95))
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


def start_streams(system: System, program: TracedProgram,
                  clients: list[tuple[str, int, int, str, str]],
                  placement: tuple[int, ...] | None = None) -> list[StreamJob]:
    """Register `program` on `system` as "main" and start one `StreamJob`
    per client entry (name, count, window, trigger, mode), in order, at
    t = 0. With `placement` None the resource manager places every slice;
    otherwise every slice runs on the `placement` devices.
    """
    system.register_traced("main", program, None if placement is None else
                           {sid: placement for sid in program.slices})
    return [system.start_job(system.add_client(name), StreamJob(
                system.new_job_id(), "main", count, window=window,
                trigger=trigger, mode=mode))
            for name, count, window, trigger, mode in clients]


def run_to_quiescence(system: System) -> None:
    """Run `system`; a run that is not quiescent raises what is blocked."""
    r = system.run()
    if r.status != "quiescent":
        raise RuntimeError(f"run wedged: {r.blocked}")


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
        devs = tuple(range(hosts * devices_per_host))
        prog = chain_program([
            CompiledFunction(f"f{i}", len(devs), (1024,), (1024,), duration_us)
            for i in range(chain_len)])
        for mode in ("sequential", "parallel"):
            sys = System(spec)
            job, = start_streams(sys, prog, [("c0", 1, 1, "complete", mode)],
                                 devs)
            run_to_quiescence(sys)
            inst, c = job.instances[0], sys.clients["c0"]
            makespan = c.completed_at[inst] - c.submitted_at[inst]

            sys2 = System(spec, record_log=record_log, record_trace=True)
            start_streams(sys2, prog, [("c0", count, 4, "complete", mode)],
                          devs)
            run_to_quiescence(sys2)
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
    sys = System(spec)
    start_streams(sys, one_gang_program(n_dev, float(t_us)),
                  [("c0", count, window, "handles", "parallel")],
                  tuple(range(n_dev)))
    run_to_quiescence(sys)
    return steady_rate(sys.completion_series())


def reference_rate(spec: ClusterSpec, t_us: int) -> float:
    """Coordinator-free computations per second at `t_us` per kernel.

    Each host enqueues its own kernels open-loop, with no client, scheduler
    or cross-host traffic, so a computation is paced by its duration or by
    the host's PCIe enqueue occupancy (`pcie_enqueue_ns` per local device),
    whichever is longer. A reference with contention would need simulating.
    """
    per_host = max(isl.devices_per_host for isl in spec.islands)
    return 1e9 / max(us(t_us), CostModel().pcie_enqueue_ns * per_host)


def smallest_passing(passes, seed: int) -> int:
    """Smallest kernel duration t in [1, 4096] us with `passes(t)`, for a
    predicate that fails below some threshold and passes from it on.

    Gallops away from `seed` by 1, 2, 4, ... until the predicate flips, then
    bisects, keeping "lo fails, hi passes". It probes nothing outside the
    range and nothing twice, and it probes both t* - 1 (unless t* is the
    low end) and t*. Raises `RuntimeError` if the high end fails.
    """
    first, last = 1, 4096
    lo, hi = first - 1, last + 1       # fail and pass without a probe
    t, step = min(max(seed, first), last), 1
    while lo < t < hi:                 # a flip sends t past the other end
        if passes(t):
            hi, t = t, max(first, t - step)
        else:
            lo, t = t, min(last, t + step)
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    if hi > last:
        raise RuntimeError(f"no crossover below {last}us")
    return hi


def crossover_point(hosts: int, devices_per_host: int = 2, count: int = 40,
                    window: int = 32) -> tuple[int, dict]:
    """Smallest kernel duration t* (us) at which coordinated dispatch keeps
    99% of `reference_rate`, and each probe's coordinated rate and verdict.

    The search starts at the scheduler's charge per gang (one decision and
    one send per host, in whole us): shorter kernels leave the scheduler
    pacing dispatch, so t* lies at or just above it.
    """
    spec = small_cluster(hosts=hosts, devices_per_host=devices_per_host)
    n_dev = hosts * devices_per_host
    cost = CostModel()
    seed = -(-(cost.sched_decision_ns + cost.sched_send_ns * hosts) // 1000)
    probes: dict[int, tuple[float, bool]] = {}

    def ratio_ok(t_us: int) -> bool:
        r_sys = _stream_rate(spec, n_dev, t_us, count, window)
        probes[t_us] = r_sys, r_sys >= 0.99 * reference_rate(spec, t_us)
        return probes[t_us][1]

    try:
        t_star = smallest_passing(ratio_ok, seed)
    except RuntimeError as e:
        raise RuntimeError(f"{e} at {hosts} hosts") from e
    return t_star, probes


def bench_crossover(host_counts=(2, 4, 8, 16, 32, 64),
                    devices_per_host: int = 2, count: int = 40,
                    window: int = 32) -> dict:
    """Crossover t* per host count (see `crossover_point`); each row reuses
    the search's probe at t* and runs no system again. One audit entry per
    row reads the same probes: t* - 1 failed (or t* is 1us) and t* passed."""
    rows, neighbours = [], []
    for hosts in host_counts:
        t_star, probes = crossover_point(hosts, devices_per_host, count,
                                         window)
        spec = small_cluster(hosts=hosts, devices_per_host=devices_per_host)
        r_sys, passed = probes[t_star]
        r_mc = reference_rate(spec, t_star)
        rows.append({"hosts": hosts, "crossover_us": t_star,
                     "rate_per_s": r_sys, "baseline_per_s": r_mc,
                     "ratio": r_sys / r_mc})
        r_below, below_passed = probes.get(t_star - 1, (None, False))
        neighbours.append({
            "check": "fails 1us below the crossover, passes at it",
            "hosts": hosts, "ok": passed and not below_passed,
            "below_ratio": r_below if r_below is None else
            r_below / reference_rate(spec, t_star - 1)})
    points = [r["crossover_us"] for r in rows]
    audit = [{"check": "nondecreasing in host count",
              "ok": all(b >= a for a, b in zip(points, points[1:]))},
             {"check": "growth across sweep",
              "ok": points[-1] >= 5 * points[0],
              "factor": points[-1] / points[0]}, *neighbours]
    return {"benchmark": "crossover",
            "params": {"host_counts": list(host_counts),
                       "devices_per_host": devices_per_host, "count": count,
                       "window": window},
            "rows": rows, "audit": audit}


# -- staged pipeline ----------------------------------------------------------

def pipeline_program(stages: int, micro: int, stage_us: float,
                     islands: int = 1):
    """stages x micro grid: 1 KB microbatch m flows through every stage."""
    t = Tracer()
    slices = []
    for s in range(stages):
        island = None if islands == 1 else s * islands // stages
        slices.append(t.virtual_slice([1], island=island))
    fns = [CompiledFunction(f"st{s}", 1, (1024,), (1024,), stage_us)
           for s in range(stages)]
    outs = []
    for _m in range(micro):
        v = t.arg(shards=1, bytes_per_shard=1024)
        for s in range(stages):
            v = t.call(fns[s], v, slice_id=slices[s])
        outs.append(v)
    return t.finish(outs)


def run_pipeline(stages: int, micro: int, stage_us: float = 1000.0,
                 islands: int = 1, record_log: bool = False) -> dict:
    if stages % islands:
        raise ValidationError(f"{stages} stages do not split over "
                              f"{islands} islands")
    # one device per stage: round the hosts up, or stages share devices
    spec = small_cluster(hosts=-(-stages // (4 * islands)),
                         devices_per_host=4, islands=islands)
    sys = System(spec, record_log=record_log, record_trace=True)
    start_streams(sys, pipeline_program(stages, micro, stage_us, islands),
                  [("c0", 1, 1, "complete", "parallel")])
    run_to_quiescence(sys)
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
        sys = System(spec, record_log=record_log, record_trace=True)
        start_streams(sys, one_gang_program(devices, duration_us),
                      [(f"c{i}", per_client, 1, "complete", "parallel")
                       for i in range(k)], tuple(range(devices)))
        run_to_quiescence(sys)
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


def _fair_counts(weights: dict, total_gangs: int,
                 window: int) -> dict[str, int]:
    """Instances per client, by name: its weighted share of `total_gangs`,
    at least `window`. A bad weight raises, as in the policy."""
    for c, v in weights.items():
        _weight(c, v)
    wsum = sum(weights.values())
    return {c: max(window, round(total_gangs * weights[c] / wsum))
            for c in sorted(weights)}


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
    counts = _fair_counts(weights, total_gangs, window)
    sys = System(spec, policy=Policy(kind="proportional", weights=weights),
                 record_log=record_log)
    wsum = sum(weights.values())
    start_streams(
        sys, one_gang_program(1, duration_us, out_kb=out_kb, collective=False),
        [(name, n, window, "complete", "parallel")
         for name, n in counts.items()], (0,))
    run_to_quiescence(sys)
    log = sys.scheds[0].dispatched
    a, b = int(len(log) * 0.2), int(len(log) * 0.9)
    mid = log[a:b]
    counts: dict[str, int] = {}
    for _seq, _t, client, _i, _n in mid:
        counts[client] = counts.get(client, 0) + 1
    total = sum(counts.values())
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

# the workload keys each suite reads and the kind of value each takes; any
# other key is rejected, so a typo cannot silently run (and record) the
# defaults, and a bad value exits 2 before any system is built
WORKLOAD_KEYS = {
    "dispatch": {"host_counts": "ints", "devices_per_host": "int",
                 "chain_len": "int", "duration_us": "num", "count": "count"},
    "crossover": {"host_counts": "ints", "devices_per_host": "int",
                  "count": "count", "window": "int"},
    "pipeline": {"cases": "pairs", "stage_us": "num", "cross_island": "flag"},
    "utilization": {"client_counts": "ints", "duration_us": "num",
                    "per_client": "count", "devices": "int"},
    "fairness": {"weights": "weights", "total_gangs": "count",
                 "duration_us": "num", "window": "int", "out_kb": "int",
                 "resident": "int"},
}


def _pos_int(v, least: int = 1) -> bool:
    return type(v) is int and v >= least     # a bool is no int here


# kind -> (what the value must be, its check)
_KINDS = {
    "int": ("positive int", _pos_int),
    # a steady rate or a grant share is measured over the middle of a run
    "count": ("int of at least 4", lambda v: _pos_int(v, 4)),
    "num": ("finite positive number",
            lambda v: type(v) in (int, float) and 0 < v < math.inf),
    "flag": ("true or false", lambda v: type(v) is bool),
    "ints": ("non-empty list of positive ints",
             lambda v: type(v) is list and v != [] and all(map(_pos_int, v))),
    "pairs": ("non-empty list of [stages, micro] pairs of positive ints",
              lambda v: type(v) is list and v != [] and all(
                  type(p) is list and len(p) == 2 and all(map(_pos_int, p))
                  for p in v)),
    "weights": ("object of client weights",
                lambda v: type(v) is dict and v != {}),
}


def run_benchmark(name: str, workload: dict | None = None,
                  spec: ClusterSpec | None = None,
                  record_log: bool = False) -> dict:
    if name not in WORKLOAD_KEYS:
        raise ValidationError(f"unknown benchmark {name!r}")
    w = dict(workload or {})
    w.pop("benchmark", None)
    where = f"workload for {name!r}"
    check_keys(w, WORKLOAD_KEYS[name], where)
    for key, v in sorted(w.items()):
        what, ok = _KINDS[WORKLOAD_KEYS[name][key]]
        if not ok(v):
            raise ValidationError(f"{where}: {key}: {what} required, "
                                  f"got {v!r}")
    if name in ("dispatch", "crossover", "pipeline") and spec is not None:
        raise ValidationError(
            f"benchmark {name!r} sweeps its own cluster shapes; "
            "--config does not apply")
    sized = {"utilization": "devices", "fairness": "resident"}.get(name)
    if spec is not None and sized in w:
        raise ValidationError(f"{where}: {sized}: --config sizes the cluster")
    # a size over its cap exits before anything is traced or built: the
    # fleet (a sweep's most hosts times its devices per host, utilization's
    # devices or a pipeline case's stages, one device each), the program
    # and each run count
    dev, nodes = (MAX_DEVICES, "devices"), (MAX_NODES, "nodes")
    runs = (MAX_RUNS, "instances")
    # the workload over the suite's defaults
    a = {k: p.default for k, p in inspect.signature(
        globals()[f"bench_{name}"]).parameters.items()} | w
    cases = w.get("cases", ())
    caps = [(f"cases: stages {s}", s, dev) for s, _m in cases]
    if "devices" in w:
        caps.append((f"devices {w['devices']}", w["devices"], dev))
    if name in ("dispatch", "crossover"):
        hosts, per = max(a["host_counts"]), a["devices_per_host"]
        caps.append((f"host_counts {hosts} x devices_per_host {per}",
                     hosts * per, dev))
    caps += [(f"cases: stages {s} x micro {m}", s * m, nodes) for s, m in cases]
    caps += [(f"{k} {w[k]}", w[k], nodes if k == "chain_len" else runs)
             for k in ("chain_len", "count", "per_client", "total_gangs")
             if k in w]
    # then each run's size: an instance's device kernels, a suite's instances
    if name == "dispatch":
        caps.append((f"chain_len {a['chain_len']} x {hosts * per} devices",
                     a["chain_len"] * hosts * per, (MAX_KERNELS, "kernels")))
    if name == "utilization":
        k = max(a["client_counts"])
        caps.append((f"client_counts {k} x per_client {a['per_client']}",
                     k * a["per_client"], runs))
    if name == "fairness":
        weights = {str(c): v for c, v in w.pop("weights", {
            "c0": 1, "c1": 1, "c2": 1, "c3": 1}).items()}
        n = sum(_fair_counts(weights, a["total_gangs"], a["window"]).values())
        caps.append((f"window {a['window']}: {n}", n, runs))
    for what, n, (cap, unit) in caps:
        if n > cap:
            raise ValidationError(f"{where}: {what} is over {cap} {unit}")
    if name == "dispatch":
        return bench_dispatch(record_log=record_log, **_kwargs(w))
    if name == "crossover":
        if record_log:
            raise ValidationError(
                "crossover runs many short systems; no event log is kept")
        return bench_crossover(**_kwargs(w))
    if name == "pipeline":
        return bench_pipeline(record_log=record_log, **_kwargs(w))
    if name == "utilization":
        return bench_utilization(spec=spec, record_log=record_log, **_kwargs(w))
    return bench_fairness(weights=weights, spec=spec, record_log=record_log,
                          **_kwargs(w))


def _kwargs(d: dict) -> dict:
    """Workload parameters as keyword arguments, JSON lists as tuples."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
