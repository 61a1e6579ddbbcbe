"""Deterministic discrete-event simulator of a gang-scheduled ML fleet.

The package models the control plane of a fleet of accelerator islands: a
client traces a sharded dataflow program, a resource manager carves device
slices, per-island schedulers grant gangs, and host executors move data and
enqueue device kernels. Everything runs on one simulated clock, so latency,
throughput, fairness, and utilization claims can be measured exactly and
reproduced byte for byte.

Typical use::

    from flowpath import System, StreamJob, small_cluster
    from flowpath.ir import CompiledFunction, chain_program

    sys_ = System(small_cluster())
    prog = chain_program([CompiledFunction("step", 4, (2**20,), (2**20,), 50.0)])
    sys_.register_traced("main", prog)
    client = sys_.add_client("me")
    sys_.start_job(client, StreamJob("j1", "main", count=8, window=2))
    stats = sys_.run()
"""
from .bench import export_chrome_trace, run_benchmark, write_results
from .config import (BatchingConfig, ClusterSpec, CostModel, IslandSpec,
                     LinkSpec, Policy, ValidationError, load_cluster,
                     load_workload, small_cluster)
from .ir import (CompiledFunction, LowerError, TraceError, Tracer,
                 chain_program, deserialize, lower, serialize)
from .resman import AllocationError, ResourceManager
from .runtime import StreamJob, System
from .simcore import Process, Simulator

__version__ = "0.1.0"

__all__ = [
    "AllocationError", "BatchingConfig", "ClusterSpec", "CompiledFunction",
    "CostModel", "IslandSpec", "LinkSpec", "LowerError", "Policy", "Process",
    "ResourceManager", "Simulator", "StreamJob", "System", "TraceError",
    "Tracer", "ValidationError", "chain_program", "deserialize",
    "export_chrome_trace", "load_cluster", "load_workload", "lower",
    "run_benchmark", "serialize", "small_cluster", "write_results",
]
