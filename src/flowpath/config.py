"""Configuration schemas: cluster topology, cost model, scheduling policy.

The cluster document is JSON:

    {"islands": [{"devices_per_host": 4, "hosts": 2, "mesh": [8],
                  "ici": {"latency_ns": 1000, "gbps": 100.0}}, ...],
     "dcn": {"latency_ns": 50000, "gbps": 10.0},
     "pcie": {"latency_ns": 5000, "gbps": 16.0},
     "hbm_bytes": 17179869184}

gbps means gigabytes per second. No document sets the cost-model constants
or the batching limits; the CLI and the benchmark suites run with the
defaults below. The scheduling policy is built by the driver that needs
one; the fairness suite takes its weights from the workload document.
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
    mesh: tuple[int, ...]
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

    @property
    def device_count(self) -> int:
        return sum(i.device_count for i in self.islands)


DEFAULT_ICI = LinkSpec(latency_ns=1_000, gbps=100.0)
DEFAULT_DCN = LinkSpec(latency_ns=50_000, gbps=10.0)
DEFAULT_PCIE = LinkSpec(latency_ns=5_000, gbps=16.0)
DEFAULT_HBM = 16 * 1000**3  # per-device capacity, bytes


def _link(doc: dict | None, default: LinkSpec, where: str) -> LinkSpec:
    if doc is None:
        return default
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected object")
    lat = doc.get("latency_ns", default.latency_ns)
    gbps = doc.get("gbps", default.gbps)
    if not isinstance(lat, int) or lat < 0:
        raise ValidationError(f"{where}.latency_ns: non-negative int required")
    if not isinstance(gbps, (int, float)) or gbps <= 0:
        raise ValidationError(f"{where}.gbps: positive number required")
    return LinkSpec(latency_ns=lat, gbps=float(gbps))


def cluster_from_dict(doc: dict) -> ClusterSpec:
    if not isinstance(doc, dict) or "islands" not in doc:
        raise ValidationError("cluster config: 'islands' list required")
    islands = []
    for i, isl in enumerate(doc["islands"]):
        dph = isl.get("devices_per_host")
        hosts = isl.get("hosts")
        if not isinstance(dph, int) or dph < 1:
            raise ValidationError(f"islands[{i}].devices_per_host: positive int required")
        if not isinstance(hosts, int) or hosts < 1:
            raise ValidationError(f"islands[{i}].hosts: positive int required")
        mesh = tuple(isl.get("mesh", [dph * hosts]))
        if math.prod(mesh) != dph * hosts:
            raise ValidationError(
                f"islands[{i}].mesh {list(mesh)}: product must equal device count "
                f"{dph * hosts}")
        islands.append(IslandSpec(
            devices_per_host=dph, hosts=hosts, mesh=mesh,
            ici=_link(isl.get("ici"), DEFAULT_ICI, f"islands[{i}].ici")))
    hbm = doc.get("hbm_bytes", DEFAULT_HBM)
    if not isinstance(hbm, int) or hbm <= 0:
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
                  islands: int = 1, hbm_bytes: int = DEFAULT_HBM,
                  ici: LinkSpec = DEFAULT_ICI, dcn: LinkSpec = DEFAULT_DCN,
                  pcie: LinkSpec = DEFAULT_PCIE) -> ClusterSpec:
    """Convenience builder used by tests and benchmark sweeps."""
    isl = IslandSpec(devices_per_host=devices_per_host, hosts=hosts,
                     mesh=(devices_per_host * hosts,), ici=ici)
    return ClusterSpec(islands=(isl,) * islands, dcn=dcn, pcie=pcie,
                       hbm_bytes=hbm_bytes)


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
