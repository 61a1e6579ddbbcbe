"""Per-host sharded object store.

A logical buffer is one handle covering N shards that live in device HBM.
Reference counts act on the logical buffer: one op per producer/consumer
regardless of shard count. Ownership labels (client or program instance)
allow a garbage collection sweep that frees everything an owner left behind
and returns the freed handles, so the executor can fail their consumers.
"""
from __future__ import annotations

from dataclasses import dataclass

from .hardware import Cluster


class StoreError(Exception):
    pass


class UnknownHandleError(StoreError):
    pass


class RefcountError(StoreError):
    """Release below zero: fatal accounting bug."""


@dataclass
class ShardLoc:
    shard: int
    device: int
    nbytes: int
    resolved: bool = False      # data physically present


@dataclass
class LogicalBuffer:
    handle: str
    owner: str
    refcount: int
    shards: list[ShardLoc]


class HostStore:
    """The store fragment on one host. Handles are unique across hosts."""

    def __init__(self, host_id: int, cluster: Cluster, audit: list | None = None):
        self.host_id = host_id
        self.cluster = cluster
        self.buffers: dict[str, LogicalBuffer] = {}
        self._n = 0
        self._released: set[str] = set()   # dead handles, tolerated in release
        # audit rows: (op, handle, shard, device, bytes, t_ns)
        self.audit = audit if audit is not None else []

    def _now(self) -> int:
        return self.cluster.sim.now()

    # -- allocation --------------------------------------------------------

    def put(self, shard_sizes: list[tuple[int, int]], owner: str,
            refcount: int = 1, reserve: bool = True,
            handle: str | None = None) -> LogicalBuffer:
        """Create a logical buffer from (device, nbytes) per shard.

        reserve=False means the bytes were already taken out of device HBM
        by a gang reservation; reserve=True draws them here and raises if a
        device cannot supply the bytes immediately.
        """
        self._n += 1
        h = handle or f"b{self.host_id}.{self._n}"
        if h in self.buffers:
            raise StoreError(f"duplicate handle {h}")
        shards = []
        for i, (dev, nbytes) in enumerate(shard_sizes):
            if reserve and nbytes > 0:
                if not self.cluster.device(dev).hbm_try_take(nbytes):
                    for s in shards:   # roll back partial
                        if s.nbytes > 0:
                            self.cluster.device(s.device).hbm_release(s.nbytes)
                    raise StoreError(
                        f"device {dev} lacks {nbytes} free bytes for {h}")
            shards.append(ShardLoc(i, dev, nbytes))
            self.audit.append(("alloc", h, i, dev, nbytes, self._now()))
        buf = LogicalBuffer(h, owner, refcount, shards)
        self.buffers[h] = buf
        return buf

    def get(self, handle: str) -> LogicalBuffer:
        buf = self.buffers.get(handle)
        if buf is None:
            raise UnknownHandleError(f"unknown handle {handle}")
        return buf

    def resolve_shard(self, handle: str, shard: int) -> None:
        self.get(handle).shards[shard].resolved = True

    # -- reference counting ------------------------------------------------

    def release(self, handle: str) -> bool:
        """Drop one logical reference; free all shards at zero."""
        if handle in self._released:
            return False           # owner was garbage-collected already
        buf = self.buffers.get(handle)
        if buf is None:
            raise UnknownHandleError(f"release of unknown handle {handle}")
        buf.refcount -= 1
        if buf.refcount < 0:
            raise RefcountError(f"refcount below zero for {handle}")
        if buf.refcount == 0:
            self._free(buf)
            return True
        return False

    def _free(self, buf: LogicalBuffer) -> None:
        for loc in buf.shards:
            if loc.nbytes > 0:
                self.cluster.device(loc.device).hbm_release(loc.nbytes)
            self.audit.append(("free", buf.handle, loc.shard, loc.device,
                               loc.nbytes, self._now()))
        del self.buffers[buf.handle]
        self._released.add(buf.handle)

    # -- ownership GC ------------------------------------------------------

    def gc_owner(self, owner: str) -> list[str]:
        """Free every buffer of this owner regardless of refcount.

        Returns the freed handles; the caller fails their in-flight
        consumers, so they observe the loss instead of hanging.
        """
        victims = [h for h, b in self.buffers.items() if b.owner == owner]
        for h in victims:
            self._free(self.buffers[h])
        return victims

    # -- audits ------------------------------------------------------------

    def live_bytes(self) -> int:
        return sum(loc.nbytes for b in self.buffers.values() for loc in b.shards)


def audit_no_double_free(audit_rows: list) -> list[tuple[str, int]]:
    """Return (handle, shard) pairs freed more than once (should be empty)."""
    seen: set[tuple[str, int]] = set()
    dups = []
    for op, handle, shard, _dev, _nbytes, _t in audit_rows:
        if op != "free":
            continue
        key = (handle, shard)
        if key in seen:
            dups.append(key)
        seen.add(key)
    return dups


def audit_leaks(cluster: Cluster) -> dict[int, int]:
    """Bytes still unaccounted per device (free != capacity)."""
    out = {}
    for dev in cluster.devices:
        if dev.free_bytes != dev.hbm_capacity:
            out[dev.device_id] = dev.hbm_capacity - dev.free_bytes
    return out
