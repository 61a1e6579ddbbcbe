"""The benchmark's per-layer hooks still find every name they wrap or read.

`perfbench/spans.py` patches flowpath entry points from outside and reads
counters off a finished System. Deleting or renaming one of those names
would otherwise only break `perfbench/run.py --trace 1`. The self-test of
the benchmark's failure gate runs here too.
"""
import json
import sys
import time
from pathlib import Path

import pytest

from flowpath import (CompiledFunction, StreamJob, System, chain_program,
                      small_cluster)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans as mod
    yield mod
    sys.modules.pop("spans", None)


def test_layer_metrics_cover_the_benchmark_and_restore_is_exact(spans):
    rec = spans.install()
    patched = list(rec._patches)
    try:
        # a 4-to-2 gather across two hosts in sequential dispatch reaches
        # every layer: resman and lowering at registration, then scheduler,
        # executor, tracker, batcher, devices, transfers and the store
        fns = [CompiledFunction("wide", 4, (4096,), (4096,), 20.0,
                                collective=True),
               CompiledFunction("narrow", 2, (8192,), (8192,), 20.0,
                                collective=True)]
        system = System(small_cluster(hosts=2, devices_per_host=2))
        system.register_traced("chain", chain_program(fns))
        system.start_job(system.add_client("c0"), StreamJob(
            system.new_job_id(), "chain", 1, mode="sequential"))
        t0 = time.perf_counter()
        stats = system.run()
        run_s = time.perf_counter() - t0
        metrics = rec.layer_metrics(system, stats, run_s)
    finally:
        rec.restore()
    assert stats.status == "quiescent"
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is orig, f"{owner.__name__}.{attr}"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py adds these two from whole runs, not from one traced System
    from_runs = {"trace_overhead", "sched.share_err"}
    assert set(metrics) | from_runs == {m["name"] for m in declared}
    for name in ("resman.allocate_calls", "sched.handle_calls",
                 "executor.handle_calls", "coord.on_punctuation_calls",
                 "coord.batcher_send_calls", "hardware.transfers",
                 "store.put_calls"):
        assert metrics[name] > 0, name
    # each member device arrives once, so each of the two collectives
    # tallies to one
    assert metrics["hardware.collectives"] == 2


@pytest.fixture
def selftest(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import selftest as mod
    yield mod
    for name in ("selftest", "worker", "spans"):
        sys.modules.pop(name, None)


def test_failure_gate_counts_every_injected_fault(selftest):
    # the benchmark's error_rate reads ClientProcess.failed and completed_at
    # and the store audits; each injected fault must move its count
    for case, want, got in selftest.cases():
        assert got == want, case
