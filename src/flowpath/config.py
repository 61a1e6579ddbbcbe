"""Configuration schemas: cluster topology, cost model, scheduling policy.

The cluster document is JSON:

    {"islands": [{"devices_per_host": 4, "hosts": 2,
                  "ici": {"latency_ns": 1000, "gbps": 100.0}}, ...],
     "dcn": {"latency_ns": 50000, "gbps": 10.0},
     "pcie": {"latency_ns": 5000, "gbps": 16.0},
     "hbm_bytes": 17179869184}

gbps means gigabytes per second. An island's device count is hosts x
devices_per_host, and its ICI is one flat link. A cluster has at most
`MAX_DEVICES` devices. Any other key is rejected, so a typo cannot silently
run the default. A benchmark suite's workload has caps of its own: its
program has at most `MAX_NODES` compute nodes (a pipeline case's stages x
micro, a dispatch chain's `chain_len`), and each run count (`count`,
`per_client`, `total_gangs`) is at most `MAX_RUNS` instances. So are a
utilization run's most clients x `per_client` and a fairness run's clients'
instances, each its weighted share of `total_gangs` or `window` if more. A
dispatch instance has at most `MAX_KERNELS` device kernels: `chain_len` x
its most hosts x `devices_per_host`. No document sets the cost-model
constants or the batching limits; the CLI and the benchmark suites run
with the defaults below. The scheduling policy is built by the driver that
needs one; the fairness suite takes its weights from the workload document.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .simcore import us


class ValidationError(Exception):
    """Bad config, workload, or program input. CLI maps this to exit code 2."""


@dataclass(frozen=True)
class LinkSpec:
    latency_ns: int
    gbps: float

    @property
    def bytes_per_sec(self) -> int:
        return int(self.gbps * 1e9)


@dataclass(frozen=True)
class IslandSpec:
    devices_per_host: int
    hosts: int
    ici: LinkSpec

    @property
    def device_count(self) -> int:
        return self.devices_per_host * self.hosts


@dataclass(frozen=True)
class ClusterSpec:
    islands: tuple[IslandSpec, ...]
    dcn: LinkSpec
    pcie: LinkSpec
    hbm_bytes: int


DEFAULT_ICI = LinkSpec(latency_ns=1_000, gbps=100.0)
DEFAULT_DCN = LinkSpec(latency_ns=50_000, gbps=10.0)
DEFAULT_PCIE = LinkSpec(latency_ns=5_000, gbps=16.0)
DEFAULT_HBM = 16 * 1000**3  # per-device capacity, bytes
MAX_DEVICES = 2**16         # in a cluster document; 32x the paper's 2,048
MAX_NODES = 2**16           # in a suite's program; 16x perfbench's pipeline
MAX_RUNS = 2**17            # per suite run count; 12x the fairness default
MAX_KERNELS = 2**16         # per dispatch instance; 1,365x its default


def check_keys(doc, known, where: str) -> None:
    """Reject a document row that is no object or has a key outside known."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected object")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValidationError(f"{where}: unknown keys: {', '.join(unknown)}")


def _link(doc: dict | None, default: LinkSpec, where: str) -> LinkSpec:
    if doc is None:
        return default
    check_keys(doc, ("latency_ns", "gbps"), where)
    lat = doc.get("latency_ns", default.latency_ns)
    gbps = doc.get("gbps", default.gbps)
    if type(lat) is not int or not 0 <= lat < 2**63:   # a 64-bit clock
        raise ValidationError(f"{where}.latency_ns: non-negative int "
                              "required, below 2**63")
    # a bool is no number; nan and infinity are no rate, and neither is
    # one below 1 byte/s, at which a transfer never finishes
    if type(gbps) not in (int, float) or not 1e-9 <= gbps < math.inf:
        raise ValidationError(f"{where}.gbps: positive number required, "
                              "at least 1e-9 (1 byte/s)")
    return LinkSpec(latency_ns=lat, gbps=float(gbps))


def cluster_from_dict(doc: dict) -> ClusterSpec:
    if not isinstance(doc, dict) or not isinstance(doc.get("islands"), list):
        raise ValidationError("cluster config: 'islands' list required")
    check_keys(doc, ("islands", "dcn", "pcie", "hbm_bytes"), "cluster config")
    islands = []
    for i, isl in enumerate(doc["islands"]):
        check_keys(isl, ("devices_per_host", "hosts", "ici"), f"islands[{i}]")
        dph = isl.get("devices_per_host")
        hosts = isl.get("hosts")
        if type(dph) is not int or dph < 1:
            raise ValidationError(f"islands[{i}].devices_per_host: positive int required")
        if type(hosts) is not int or hosts < 1:
            raise ValidationError(f"islands[{i}].hosts: positive int required")
        islands.append(IslandSpec(
            devices_per_host=dph, hosts=hosts,
            ici=_link(isl.get("ici"), DEFAULT_ICI, f"islands[{i}].ici")))
    if sum(isl.device_count for isl in islands) > MAX_DEVICES:
        raise ValidationError(f"cluster config: over {MAX_DEVICES} devices")
    hbm = doc.get("hbm_bytes", DEFAULT_HBM)
    if type(hbm) is not int or hbm <= 0:
        raise ValidationError("hbm_bytes: positive int required")
    return ClusterSpec(
        islands=tuple(islands),
        dcn=_link(doc.get("dcn"), DEFAULT_DCN, "dcn"),
        pcie=_link(doc.get("pcie"), DEFAULT_PCIE, "pcie"),
        hbm_bytes=hbm)


def load_cluster(path: str) -> ClusterSpec:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ValidationError(f"cluster config {path}: {e}") from e
    return cluster_from_dict(doc)


def small_cluster(hosts: int = 2, devices_per_host: int = 4,
                  islands: int = 1, hbm_bytes: int = DEFAULT_HBM) -> ClusterSpec:
    """Convenience builder used by tests and benchmark sweeps."""
    isl = IslandSpec(devices_per_host=devices_per_host, hosts=hosts,
                     ici=DEFAULT_ICI)
    return ClusterSpec(islands=(isl,) * islands, dcn=DEFAULT_DCN,
                       pcie=DEFAULT_PCIE, hbm_bytes=hbm_bytes)


@dataclass(frozen=True)
class CostModel:
    """Host/controller cost constants. All times integer nanoseconds."""

    client_rpc_ns: int = us(500)      # client <-> scheduler / host, one way
    sched_decision_ns: int = us(10)   # per-gang ordering decision
    sched_send_ns: int = us(5)        # scheduler occupancy per outgoing message
    host_prep_ns: int = us(5)         # per-node host-side preparatory work (h)
    pcie_enqueue_ns: int = us(5)      # host occupancy per kernel enqueue


@dataclass(frozen=True)
class Policy:
    kind: str = "fifo"                               # "fifo" | "proportional"
    weights: dict = field(default_factory=dict)      # client id -> weight


@dataclass(frozen=True)
class BatchingConfig:
    max_messages: int = 16
    max_delay_ns: int = us(100)


def load_workload(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ValidationError(f"workload {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ValidationError(f"workload {path}: expected a JSON object")
    return doc
