"""Event logs and completion series pinned across commits.

Each `PINS` entry is the sha256 of `dump_event_log` for one small run. A
change that moves the simulation (timing, event order, message payloads)
changes a pin; such a change must update the pin and say which model change
moved it.

Each `SCHEDULE_PINS` entry is the sha256 of the same event log with
`payload_digest` dropped: one (t_ns, seq, target, kind) row per event. A
change that reshapes only message payloads moves `PINS` but must leave
these alone, so such a change shows itself mechanically.

Each `COMPLETION_PINS` entry is the sha256 of the same run's
`completion_series()`: when and how much work finished. A change that only
drops or merges control messages may move `PINS` but must leave these alone.

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
"""
import hashlib
import json
from pathlib import Path

import pytest

from flowpath import (CompiledFunction, StreamJob, System, chain_program,
                      small_cluster)
from flowpath import bench
from flowpath.bench import run_benchmark, write_results
from flowpath.config import load_workload
from flowpath.simcore import Simulator

PINS = {
    "parallel":
        "3c6a90bd1fe94a8bec593b732bbf41687990ec2edb436b2018c3931e3e3ad3e5",
    "sequential":
        "0a1a1bdda81a6ea801a9d6cff4f50e83497e7becbeee081d1f2f820d3b9d3b6e",
    "auto":
        "8cd41694f5a093e66b1b1cb3ef5d9b090f3c330533ea7340b77b3139be0c9df9",
}

SCHEDULE_PINS = {
    "parallel":
        "ac288a2fe2b0e6827d25a5b9ffb75495e7ad2d759a3ad85140a3244fe13bc94e",
    "sequential":
        "dc19ed8dad56dc6cb73684ea12c1c2be6e5e14db6bbf26865ae0e6edf20526b8",
    "auto":
        "7ff4f6268da82dfdb3b2c1d77b0e88900ff51ede1b99f8d580b5163457d95783",
}

COMPLETION_PINS = {
    "parallel":
        "cdc8011f81ab354c32526cd14648d92f94fe1971f8f9c3788f57b2a02947da60",
    "sequential":
        "a4f2c3b425d502cf7b3fb312e0c33d1cca9aa1e3b3c0ba589c3764c106517a2b",
    "auto":
        "63ad342807942ae109863ff0595d56cb58cb2cc17b993f6a805ae10b41d9433e",
}

DISPATCH_DOC_PIN = \
    "2a9f886a4640eaba7f8a658488cb459cbd6b0da355cb934644d5fcadc5c6a70e"
UTILIZATION_DOC_PIN = \
    "047a1d52644e1472891076c90d3eeb96ebe37d7eae1453f7a8c0aa1178f0de69"
CROSSOVER_DOC_PIN = \
    "1242b9cbf1924d74cb221da3498d06ad0feda86876d6c8f710e8020b034466fa"
PIPELINE_DOC_PIN = \
    "675d81ef66659a0a95c37a52e279efab44cb84e303bcea3c0b6cf0c45b90097e"
WORKLOADS = Path(__file__).resolve().parent.parent / "configs" / "workloads"


def run_chain(mode: str) -> System:
    # parallel dispatch needs every node's sizes up front; the other two
    # modes run the middle node as data-dependent, so auto splits stages
    fns = [CompiledFunction(name, 4, (4096,), (4096,), 20.0,
                            regular=(name != "mid" or mode == "parallel"))
           for name in ("head", "mid", "tail")]
    system = System(small_cluster(hosts=2, devices_per_host=2),
                    record_log=True)
    system.register_traced("chain", chain_program(fns))
    system.start_job(system.add_client("c0"), StreamJob(
        system.new_job_id(), "chain", 3, window=2, mode=mode))
    assert system.run().status == "quiescent"
    return system


@pytest.mark.parametrize("mode", sorted(PINS))
def test_event_log_matches_pin(mode, tmp_path):
    path = tmp_path / f"{mode}.ndjson"
    run_chain(mode).sim.dump_event_log(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINS[mode]


@pytest.mark.parametrize("mode", sorted(SCHEDULE_PINS))
def test_event_schedule_matches_pin(mode, tmp_path):
    path = tmp_path / f"{mode}.ndjson"
    run_chain(mode).sim.dump_event_log(str(path))
    rows = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        del row["payload_digest"]
        rows.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    sha = hashlib.sha256("".join(r + "\n" for r in rows).encode()).hexdigest()
    assert sha == SCHEDULE_PINS[mode]


@pytest.mark.parametrize("mode", sorted(COMPLETION_PINS))
def test_completion_series_matches_pin(mode):
    series = repr(run_chain(mode).completion_series()).encode()
    assert hashlib.sha256(series).hexdigest() == COMPLETION_PINS[mode]


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
