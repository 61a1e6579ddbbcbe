"""Command line front end.

`flowpath bench <name>` runs one of the built-in measurement drivers and
writes a results document. `flowpath run <program.json>` executes a single
serialized program on a cluster and prints its makespan and output digests.
Bad input (configs, workloads, programs) exits with status 2; a run that
deadlocks or fails exits with status 1.
"""
from __future__ import annotations

import argparse
import sys

from .bench import (WORKLOAD_KEYS, export_chrome_trace, run_benchmark,
                    write_results)
from .config import ValidationError, load_cluster, load_workload, small_cluster
from .ir import LowerError, TraceError, deserialize
from .ir import digest as program_digest
from .resman import AllocationError
from .runtime import StreamJob, System

BENCHMARKS = tuple(WORKLOAD_KEYS)
_USER_ERRORS = (ValidationError, AllocationError, TraceError, LowerError)
# suites whose last system records no execution trace, or that keep none
_UNTRACED = ("crossover", "fairness")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flowpath",
        description="deterministic simulator of a gang-scheduled ML fleet")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("bench", help="run a built-in measurement suite")
    b.add_argument("name", choices=BENCHMARKS)
    b.add_argument("--workload", metavar="FILE",
                   help="JSON object of benchmark parameters")
    b.add_argument("--config", metavar="FILE",
                   help="cluster spec JSON (utilization and fairness only; "
                        "the other suites sweep their own cluster shapes)")
    b.add_argument("--out", metavar="FILE", default="results.json",
                   help="results document path (default: results.json)")
    b.add_argument("--trace-out", metavar="FILE",
                   help="Chrome trace of the last system the suite ran")
    b.add_argument("--event-log", metavar="FILE",
                   help="NDJSON event log of the last system the suite ran")
    b.set_defaults(fn=_bench)

    r = sub.add_parser("run", help="execute one serialized program")
    r.add_argument("program", help="program JSON file")
    r.add_argument("--config", metavar="FILE",
                   help="cluster spec JSON (default: 2 hosts x 4 devices)")
    r.add_argument("--mode", choices=("parallel", "sequential", "auto"),
                   default="parallel")
    r.add_argument("--trace-out", metavar="FILE")
    r.add_argument("--event-log", metavar="FILE")
    r.set_defaults(fn=_run)
    return ap


def _bench(args) -> int:
    workload = load_workload(args.workload) if args.workload else None
    if workload and workload.get("benchmark", args.name) != args.name:
        raise ValidationError(
            f"workload file is for {workload['benchmark']!r}, "
            f"not {args.name!r}")
    spec = load_cluster(args.config) if args.config else None
    if args.trace_out and args.name in _UNTRACED:
        raise ValidationError(
            f"benchmark {args.name!r} keeps no execution trace")
    doc = run_benchmark(args.name, workload, spec=spec,
                        record_log=bool(args.event_log))
    system = doc.pop("_system", None)
    write_results(doc, args.out)
    wrote = [args.out]
    if args.trace_out:
        export_chrome_trace(system.sim, args.trace_out)
        wrote.append(args.trace_out)
    if args.event_log:
        if system is None:
            raise ValidationError(
                f"benchmark {args.name!r} keeps no event log")
        system.sim.dump_event_log(args.event_log)
        wrote.append(args.event_log)
    print("wrote " + ", ".join(wrote))
    return 0


def _run(args) -> int:
    try:
        with open(args.program) as f:
            text = f.read()
    except OSError as e:
        raise ValidationError(f"program {args.program}: {e}") from e
    prog = deserialize(text)
    spec = load_cluster(args.config) if args.config else small_cluster()
    system = System(spec, record_log=bool(args.event_log),
                    record_trace=bool(args.trace_out))
    system.register_traced("main", prog)
    client = system.add_client("cli")
    job = StreamJob(system.new_job_id(), "main", count=1, mode=args.mode)
    system.start_job(client, job)
    stats = system.run()
    if args.trace_out:
        export_chrome_trace(system.sim, args.trace_out)
    if args.event_log:
        system.sim.dump_event_log(args.event_log)
    print(f"program {program_digest(prog)} mode={args.mode} "
          f"status={stats.status} t={stats.clock_ns / 1000:.1f}us")
    for inst in sorted(client.completed_at):
        print(f"{inst} results " + " ".join(system.inst_digests[inst]))
    if stats.status != "quiescent":
        for pid in stats.blocked:
            print(f"blocked: {pid}", file=sys.stderr)
        return 1
    if client.failed or not client.completed_at:
        print("no instance completed", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
