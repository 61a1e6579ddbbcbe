"""Self-test of the correctness gate behind error_rate.

    python3 perfbench/selftest.py

Runs a tiny three-instance system to quiescence, then injects one fault at a
time and checks that `worker.count_failed` counts it: leaked device bytes and
a duplicated `free` audit row fail every instance, and an unfinished or
failed instance fails itself. `run.py` runs these cases before it measures.
"""
from __future__ import annotations

from worker import count_failed, planned_instances

from flowpath import StreamJob, System, small_cluster
from flowpath.bench import one_gang_program


def _tiny() -> tuple[System, object, str]:
    system = System(small_cluster(hosts=1, devices_per_host=2),
                    record_trace=False)
    prog = one_gang_program(2, 10.0)
    system.register_traced("g", prog, {sid: (0, 1) for sid in prog.slices})
    client = system.add_client("c0")
    system.start_job(client, StreamJob(system.new_job_id(), "g", 3))
    return system, client, system.run().status


def cases() -> list[tuple[str, int, int]]:
    """(case, failures expected, failures counted) per injected fault."""
    system, client, status = _tiny()
    every = planned_instances(system)
    out = [("clean run", 0, count_failed(system, status))]

    dev = system.cluster.devices[0]
    dev.free_bytes -= 4096
    out.append(("leaked device bytes", every, count_failed(system, status)))
    dev.free_bytes += 4096

    system.audit.append(next(r for r in system.audit if r[0] == "free"))
    out.append(("duplicated free row", every, count_failed(system, status)))
    system.audit.pop()

    inst = min(client.completed_at)
    done_at = client.completed_at.pop(inst)
    out.append(("unfinished instance", 1, count_failed(system, status)))
    client.completed_at[inst] = done_at

    client.failed.add(inst)
    out.append(("failed instance", 1, count_failed(system, status)))
    client.failed.discard(inst)

    out.append(("run not quiescent", every, count_failed(system, "deadlock")))
    return out


def main() -> int:
    bad = 0
    for case, want, got in cases():
        ok = want == got
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {case}: {got} failed, want {want}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
