"""Virtual slice allocation over islands.

Slices are device-count requirements (mesh shape honored as a count within a
single island). Devices are shareable between slices. Allocation picks the
least-loaded island, then the least-assigned devices, with all ties broken
by lowest id, so identical request sequences always produce identical
placements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class AllocationError(Exception):
    pass


@dataclass
class DeviceInfo:
    device_id: int
    island: int
    assigned: int = 0          # number of slices currently using this device


@dataclass
class SliceState:
    slice_id: str
    shape: tuple[int, ...]
    island: int
    devices: tuple[int, ...]


class ResourceManager:
    """Single logical allocator; every request is serialized through it."""

    def __init__(self, island_devices: dict[int, list[int]]):
        self.devices: dict[int, DeviceInfo] = {}
        self.islands: dict[int, list[int]] = {}
        for iid in sorted(island_devices):
            self.islands[iid] = list(island_devices[iid])
            for did in island_devices[iid]:
                self.devices[did] = DeviceInfo(did, iid)
        self._n = 0

    def allocate_slice(self, shape: list[int] | tuple[int, ...],
                       island: int | None = None) -> SliceState:
        n = math.prod(tuple(shape))
        if n < 1:
            raise AllocationError(f"bad slice shape {tuple(shape)}")
        choice = self._choose(n, island)
        if choice is None:
            raise AllocationError(self._shortage_report(n, island))
        iid, devs = choice
        self._n += 1
        sid = f"slice{self._n}"
        for d in devs:
            self.devices[d].assigned += 1
        return SliceState(sid, tuple(shape), iid, tuple(devs))

    def _choose(self, n: int, island: int | None) -> tuple[int, list[int]] | None:
        candidates = []
        for iid in sorted(self.islands):
            if island is not None and iid != island:
                continue
            devs = self.islands[iid]
            if len(devs) < n:
                continue
            load = sum(self.devices[d].assigned for d in devs)
            candidates.append((load, iid, devs))
        if not candidates:
            return None
        load, iid, devs = min(candidates, key=lambda c: (c[0], c[1]))
        chosen = sorted(devs, key=lambda d: (self.devices[d].assigned, d))[:n]
        return iid, sorted(chosen)

    def _shortage_report(self, n: int, island: int | None) -> str:
        per = {iid: len(self.islands[iid]) for iid in sorted(self.islands)}
        return (f"cannot place slice of {n} devices"
                f"{'' if island is None else f' on island {island}'}: "
                f"eligible per island {per}")
