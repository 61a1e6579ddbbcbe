"""Event logs pinned across commits.

Each pin is the sha256 of `dump_event_log` for one small run. A change that
moves the simulation (timing, event order, message payloads) changes a pin;
such a change must update the pin and say which model change moved it.
"""
import hashlib

import pytest

from flowpath import (CompiledFunction, StreamJob, System, chain_program,
                      small_cluster)

PINS = {
    "parallel":
        "c15756e6627c0892f8ecdf88590bd8d60d6a2918425d3370eb59bc24f62ca698",
    "sequential":
        "36f4316dc47d7c20739a569adc312df09a04ed2063b8471a4d84eddb9a7079b4",
    "auto":
        "aa32f07e6180d1480880cf5ceed54f5f30b13ee2123eca0d45a13145ac6d8311",
}


def chain_log_digest(mode: str, tmp_path) -> str:
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
    path = tmp_path / f"{mode}.ndjson"
    system.sim.dump_event_log(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(PINS))
def test_event_log_matches_pin(mode, tmp_path):
    assert chain_log_digest(mode, tmp_path) == PINS[mode]
