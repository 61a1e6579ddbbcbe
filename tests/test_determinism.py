"""Event logs and completion series pinned across commits.

Each `PINS` entry is the sha256 of `dump_event_log` for one small run. A
change that moves the simulation (timing, event order, message payloads)
changes a pin; such a change must update the pin and say which model change
moved it. A payload's `GangRequest` or `KernelExec` is digested as the list
of its field values, so renaming a field moves no pin.

Each `SCHEDULE_PINS` entry is the sha256 of the same event log with
`payload_digest` dropped: one (t_ns, seq, target, kind) row per event. A
change that reshapes only message payloads moves `PINS` but must leave
these alone, so such a change shows itself mechanically.

Each `COMPLETION_PINS` entry is the sha256 of the same run's
`completion_series()`: when and how much work finished. A change that only
drops or merges control messages may move `PINS` but must leave these alone.

`COLLECTIVE_COMPLETION_PINS` do the same for the chain run with every node
collective, the one pinned run in which a gang spans hosts in one
rendezvous. In this chain no member waits at the rendezvous, so its series
equals the non-collective one. `COLLECTIVE_SCHEDULE_PINS` pin that run's
event schedule, as `SCHEDULE_PINS` do. Its home host alone drains each
in-place edge and reports the result: 111 events in parallel and 141 in
sequential dispatch, where each member host doing so took 6 and 21 more.

A host closes its own source shards by a call, not a message to itself,
so the sequential and auto runs log no `edge_fut`/`edge_dat` event from a
host to itself: the sequential chain runs 204 events (18 more with those
messages), auto 195 (12 more) and the sequential collective chain 141 (12
more). Each host drops an instance at the last event of its own part, with
no message from the client: the parallel chain runs 168 events.

`DISPATCH_DOC_PIN` is the sha256 of the `flowpath bench dispatch` document
at `configs/workloads/dispatch.json`, the one suite that runs sequential
dispatch: a change that moves it moves a published number.
`UTILIZATION_DOC_PIN` does the same for the `utilization` suite, whose
event log is mostly kernel enqueues, kernel completions and per-shard
results: a change that only merges those messages must leave it alone.
`CROSSOVER_DOC_PIN` pins the `crossover` suite at 2, 4 and 8 hosts, the one
suite whose rows come from a search over kernel durations, each compared with
the closed-form coordinator-free `reference_rate`.
`PIPELINE_DOC_PIN` pins the `pipeline` suite on two small cases, the one
suite whose numbers are read from the execution trace's kernel spans.
`FAIRNESS_DOC_PIN` pins the `fairness` suite on two weighted clients, the
one suite whose rows come from the scheduler's grant log under memory
pressure. With it, every `flowpath bench` suite has a document pin.

`RUN_LOG_PINS` are the sha256 of `flowpath run --event-log` for
`configs/programs/chain4.json` in each mode: the one pin of the command
line's own run. Every node of chain4 is regular, so auto runs as parallel.
It is the one pinned run whose data crosses devices, in 12 transfers. A
consumer host drains when its kernels end, not when a transfer lands: 78
events in parallel and 87 in sequential dispatch, where a message from
each landing to its host took 12 more.

`TENANTS_PINS` pin the memory-pressure path, which none of the runs above
reaches: four weighted clients on one device that holds two gangs, so
gangs park at the scheduler. Its "grant" entry is the sha256 of the
scheduler's grant log and the completion series, its "schedule" entry the
sha256 of the event schedule, as in `SCHEDULE_PINS`.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowpath import (CompiledFunction, StreamJob, System, chain_program,
                      small_cluster)
from flowpath import bench
from flowpath.bench import one_gang_program, run_benchmark, write_results
from flowpath.cli import main
from flowpath.config import Policy, load_workload
from flowpath.simcore import Simulator

PINS = {
    "parallel":
        "49c642b62ee046494bc1301a3d4c5af68a2a924b5348a1f01994b0b239f15018",
    "sequential":
        "d010f518d24fea8cc288c1895ec13e0ba44a3ca22961ada4a023dd04215175d2",
    "auto":
        "8640d47be85fdc9fc32a5969ca0bb8641846cb39d62cff5634a0a6c828831c6f",
}

SCHEDULE_PINS = {
    "parallel":
        "a02c62f51efc5b6c6d3ed0c4f404cdea0247e6600ea51482651bbc3f2ad5e3f6",
    "sequential":
        "a80a9d54f49e7727681246a89062b571e09e9b5107a74fa0a800d6aad22d832d",
    "auto":
        "5260bbaaed57e0534bd33678b936fc5a5f1b53d21949e4531d82c0b2df98324b",
}

COMPLETION_PINS = {
    "parallel":
        "cdc8011f81ab354c32526cd14648d92f94fe1971f8f9c3788f57b2a02947da60",
    "sequential":
        "a4f2c3b425d502cf7b3fb312e0c33d1cca9aa1e3b3c0ba589c3764c106517a2b",
    "auto":
        "63ad342807942ae109863ff0595d56cb58cb2cc17b993f6a805ae10b41d9433e",
}

COLLECTIVE_COMPLETION_PINS = {
    "parallel":
        "cdc8011f81ab354c32526cd14648d92f94fe1971f8f9c3788f57b2a02947da60",
    "sequential":
        "a4f2c3b425d502cf7b3fb312e0c33d1cca9aa1e3b3c0ba589c3764c106517a2b",
}
COLLECTIVE_SCHEDULE_PINS = {
    "parallel":
        "572488125b7319a5f1bef27026dcafd6449142a6dc08c5cfb661527277b42bb6",
    "sequential":
        "b61af483bdbba783cab2407eb5bba6c559d93daa47bc47a6a18c4661d5a05664",
}

DISPATCH_DOC_PIN = \
    "2a9f886a4640eaba7f8a658488cb459cbd6b0da355cb934644d5fcadc5c6a70e"
UTILIZATION_DOC_PIN = \
    "047a1d52644e1472891076c90d3eeb96ebe37d7eae1453f7a8c0aa1178f0de69"
CROSSOVER_DOC_PIN = \
    "1242b9cbf1924d74cb221da3498d06ad0feda86876d6c8f710e8020b034466fa"
PIPELINE_DOC_PIN = \
    "675d81ef66659a0a95c37a52e279efab44cb84e303bcea3c0b6cf0c45b90097e"
FAIRNESS_DOC_PIN = \
    "71c2f9e6e5e2a0bb4311d4e324005518c50c4149b395a729013201248cbadd5e"
TENANTS_PINS = {
    "grant":
        "e632997bd6b48f2f73f10b70528ca8f1a40ad286eded2567c77338a046a6de25",
    "schedule":
        "c0ec118d7ecfc963d979f0e2cfe18881d93450159e4cdce91fe9d898c1752ca2",
}
RUN_LOG_PINS = {
    "parallel":
        "30cd545148f3fb1379bcdba42e3b6dbebac2d348845317d68a06a302636fec16",
    "sequential":
        "97dd9ed7b3b2d266b1d5d4ac3860629fe6c39786d1f8ae824627ff98e442d8a6",
    "auto":
        "30cd545148f3fb1379bcdba42e3b6dbebac2d348845317d68a06a302636fec16",
}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WORKLOADS = CONFIGS / "workloads"


def run_chain(mode: str, collective: bool = False) -> System:
    # parallel dispatch needs every node's sizes up front; the other two
    # modes run the middle node as data-dependent, so auto splits stages
    fns = [CompiledFunction(name, 4, (4096,), (4096,), 20.0,
                            regular=(name != "mid" or mode == "parallel"),
                            collective=collective)
           for name in ("head", "mid", "tail")]
    system = System(small_cluster(hosts=2, devices_per_host=2),
                    record_log=True)
    system.register_traced("chain", chain_program(fns))
    system.start_job(system.add_client("c0"), StreamJob(
        system.new_job_id(), "chain", 3, window=2, mode=mode))
    assert system.run().status == "quiescent"
    return system


def log_sha(system: System, path: Path) -> str:
    """sha256 of the event log."""
    system.sim.dump_event_log(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(PINS))
def test_event_log_matches_pin(mode, tmp_path):
    assert log_sha(run_chain(mode), tmp_path / f"{mode}.ndjson") == PINS[mode]


def schedule_sha(system: System, path: Path) -> str:
    """sha256 of the event log with each row's payload digest dropped."""
    system.sim.dump_event_log(str(path))
    rows = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        del row["payload_digest"]
        rows.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return hashlib.sha256("".join(r + "\n" for r in rows).encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(SCHEDULE_PINS))
def test_event_schedule_matches_pin(mode, tmp_path):
    sha = schedule_sha(run_chain(mode), tmp_path / f"{mode}.ndjson")
    assert sha == SCHEDULE_PINS[mode]


@pytest.mark.parametrize("mode", sorted(COMPLETION_PINS))
def test_completion_series_matches_pin(mode):
    series = repr(run_chain(mode).completion_series()).encode()
    assert hashlib.sha256(series).hexdigest() == COMPLETION_PINS[mode]


@pytest.mark.parametrize("mode", sorted(COLLECTIVE_COMPLETION_PINS))
def test_collective_completion_series_matches_pin(mode):
    series = repr(run_chain(mode, collective=True).completion_series())
    pin = COLLECTIVE_COMPLETION_PINS[mode]
    assert hashlib.sha256(series.encode()).hexdigest() == pin


@pytest.mark.parametrize("mode", sorted(COLLECTIVE_SCHEDULE_PINS))
def test_collective_event_schedule_matches_pin(mode, tmp_path):
    system = run_chain(mode, collective=True)
    sha = schedule_sha(system, tmp_path / f"{mode}.ndjson")
    assert sha == COLLECTIVE_SCHEDULE_PINS[mode]


@pytest.mark.parametrize("mode,collective", [
    *((m, False) for m in sorted(PINS)),
    *((m, True) for m in sorted(COLLECTIVE_SCHEDULE_PINS))])
def test_no_pinned_run_logs_a_host_messaging_itself(mode, collective):
    # a host closes its own source shards and reads its own addr rows by a
    # call: no `addr` goes to its sender, no edge update to its srcs' host
    system = run_chain(mode, collective)
    host_of = [d.host_id for d in system.cluster.devices]
    info = system.programs["chain"]
    for _t, _seq, target, kind, p in system.sim.log:
        if kind == "addr":
            assert target != f"host{p['from_host']}"
        elif kind in ("edge_fut", "edge_dat"):
            src = info.lowered.placement[info.edges[p["edge"]].src]
            assert all(target != f"host{host_of[src[s]]}" for s in p["srcs"])


@pytest.mark.parametrize("case", ["sequential", "tenants"])
def test_event_log_pin_holds_under_another_hash_seed(case, tmp_path):
    # str hashes differ per PYTHONHASHSEED: set and dict order built from
    # them must never reach the event log. The tenants run keys the
    # proportional-share queues by client name.
    sha, pin = {
        "sequential": ("t.log_sha(t.run_chain('sequential'), p)",
                       PINS["sequential"]),
        "tenants": ("t.schedule_sha(t.run_tenants(), p)",
                    TENANTS_PINS["schedule"]),
    }[case]
    script = ("import sys, pathlib, test_determinism as t; "
              f"p = pathlib.Path(sys.argv[1]); print({sha})")
    env = dict(os.environ, PYTHONHASHSEED="1")
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", script,
                          str(tmp_path / f"{case}.ndjson")], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == pin


@pytest.mark.parametrize("mode", sorted(RUN_LOG_PINS))
def test_cli_run_event_log_matches_pin(mode, tmp_path, capsys):
    path = tmp_path / f"{mode}.ndjson"
    assert main(["run", str(CONFIGS / "programs" / "chain4.json"),
                 "--mode", mode, "--event-log", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RUN_LOG_PINS[mode]


def run_tenants() -> System:
    """The shape of `_tenants` in test_exec: 4 weighted clients stream
    one-device gangs onto a device whose HBM holds two of them."""
    gang_bytes = 65 * 1024
    system = System(small_cluster(hosts=1, devices_per_host=1,
                                  hbm_bytes=2 * gang_bytes + 4 * 1024),
                    policy=Policy(kind="proportional",
                                  weights={"a": 1, "b": 2, "c": 4, "d": 8}),
                    record_log=True)
    system.register_traced("g", one_gang_program(1, 50.0, out_kb=64,
                                                 collective=False))
    for name in "abcd":
        system.start_job(system.add_client(name), StreamJob(
            system.new_job_id(), "g", 12, window=3))
    assert system.run().status == "quiescent"
    return system


def test_tenants_grants_and_schedule_match_pins(tmp_path):
    system = run_tenants()
    grants = repr((system.scheds[0].dispatched, system.completion_series()))
    assert hashlib.sha256(grants.encode()).hexdigest() == TENANTS_PINS["grant"]
    sha = schedule_sha(system, tmp_path / "tenants.ndjson")
    assert sha == TENANTS_PINS["schedule"]


def document_sha(name: str, tmp_path, workload: dict | None = None) -> str:
    if workload is None:
        workload = load_workload(str(WORKLOADS / f"{name}.json"))
    doc = run_benchmark(name, workload)
    doc.pop("_system", None)
    path = tmp_path / f"{name}.json"
    write_results(doc, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_dispatch_document_matches_pin(tmp_path):
    assert document_sha("dispatch", tmp_path) == DISPATCH_DOC_PIN


def test_utilization_document_matches_pin(tmp_path):
    assert document_sha("utilization", tmp_path) == UTILIZATION_DOC_PIN


def test_crossover_document_matches_pin(tmp_path, monkeypatch):
    # the search is seeded at the scheduler charge and each row reuses its
    # probe at t*, so 8 + 6 + 6 runs of one coordinated system each; the
    # reference is a closed form and builds no system at all
    probes, sims = [], []
    stream_rate, sim_init = bench._stream_rate, Simulator.__init__

    def counted_rate(*a):
        probes.append(a)
        return stream_rate(*a)

    def counted_init(self, *a, **k):
        sims.append(self)
        sim_init(self, *a, **k)

    monkeypatch.setattr(bench, "_stream_rate", counted_rate)
    monkeypatch.setattr(Simulator, "__init__", counted_init)
    sha = document_sha("crossover", tmp_path, {"host_counts": [2, 4, 8]})
    assert sha == CROSSOVER_DOC_PIN
    assert len(probes) == len(sims) == 20


def test_pipeline_document_matches_pin(tmp_path):
    sha = document_sha("pipeline", tmp_path, {"cases": [[4, 8], [8, 16]]})
    assert sha == PIPELINE_DOC_PIN


def test_fairness_document_matches_pin(tmp_path):
    sha = document_sha("fairness", tmp_path, {
        "weights": {"c0": 1, "c1": 3}, "total_gangs": 800, "window": 8})
    assert sha == FAIRNESS_DOC_PIN
