"""Per-host sharded object store.

A logical buffer is one handle covering N shards that live in device HBM.
It keeps its shards as the `(device, bytes)` pairs it was created from,
the rows `ProgramInfo.buffers` yields, with no object per shard. Reference
counts act on the logical buffer: one op per producer/consumer
regardless of shard count. Ownership labels (client or program instance)
allow a garbage collection sweep that frees everything an owner left behind:
a finished or failed instance, or a dead client.

The audit trail follows the same rule: one row per logical buffer per
operation, `(op, handle, shards, bytes, host, t_ns)`, where `op` is "alloc"
or "free", `shards` is the shard count and `bytes` the buffer's total size.
A buffer's shards are allocated together in `put` and freed together in
`_free`, so a per-shard row would add nothing but its length.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .hardware import Cluster


class StoreError(Exception):
    pass


class UnknownHandleError(StoreError):
    pass


class RefcountError(StoreError):
    """Release below zero: fatal accounting bug."""


class ShardRows(tuple):
    """(device, bytes) per shard, with their `total` bytes known once: the
    rows a program's tables share between the buffers of one shape."""

    def __new__(cls, rows: Iterable[tuple[int, int]]) -> ShardRows:
        self = super().__new__(cls, rows)
        self.total = sum(nb for _d, nb in self)
        return self


@dataclass(slots=True)
class LogicalBuffer:
    handle: str
    owner: str
    refcount: int
    shards: list[tuple[int, int]]          # (device, bytes) per shard
    resolved: tuple[int, ...] = ()         # shards whose data is present


class HostStore:
    """The store fragment on one host. Handles are unique across hosts."""

    def __init__(self, host_id: int, cluster: Cluster, audit: list | None = None):
        self.host_id = host_id
        self.cluster = cluster
        self.buffers: dict[str, LogicalBuffer] = {}
        # owner -> its live handles, in put order: what gc_owner frees
        self._owned: dict[str, dict[str, None]] = {}
        self._n = 0
        # audit rows, one per buffer op: (op, handle, shards, bytes, host, t_ns)
        self.audit = audit if audit is not None else []

    def _log(self, op: str, handle: str, shards: list[tuple[int, int]]) -> None:
        # rows from a program's tables share their total: no int per row
        total = getattr(shards, "total", None)
        if total is None:
            total = sum(nb for _d, nb in shards)
        self.audit.append((op, handle, len(shards), total, self.host_id,
                           self.cluster.sim.now()))

    # -- allocation --------------------------------------------------------

    def put(self, shard_sizes: list[tuple[int, int]], owner: str,
            refcount: int = 1, reserve: bool = True,
            handle: str | None = None) -> LogicalBuffer:
        """Create a logical buffer from (device, nbytes) per shard; the
        buffer keeps that list.

        reserve=False means the bytes were already taken out of device HBM
        by a gang reservation; reserve=True draws them here and raises if a
        device cannot supply the bytes immediately.
        """
        self._n += 1
        h = handle or f"b{self.host_id}.{self._n}"
        if h in self.buffers:
            raise StoreError(f"duplicate handle {h}")
        if reserve:
            for i, (dev, nbytes) in enumerate(shard_sizes):
                if nbytes > 0 and not self.cluster.device(dev).hbm_try_take(
                        nbytes):
                    self.cluster.release_hbm(shard_sizes[:i])   # roll back
                    raise StoreError(
                        f"device {dev} lacks {nbytes} free bytes for {h}")
        self._log("alloc", h, shard_sizes)
        buf = LogicalBuffer(h, owner, refcount, shard_sizes)
        self.buffers[h] = buf
        self._owned.setdefault(owner, {})[h] = None
        return buf

    def get(self, handle: str) -> LogicalBuffer:
        buf = self.buffers.get(handle)
        if buf is None:
            raise UnknownHandleError(f"unknown handle {handle}")
        return buf

    def resolve_shard(self, handle: str, shard: int) -> None:
        buf = self.get(handle)
        if not 0 <= shard < len(buf.shards):
            raise IndexError(f"{handle} has no shard {shard}")
        if shard not in buf.resolved:
            buf.resolved += (shard,)

    # -- reference counting ------------------------------------------------

    def release(self, handle: str) -> bool:
        """Drop one logical reference; free all shards at zero."""
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
        self.cluster.release_hbm(buf.shards)
        self._log("free", buf.handle, buf.shards)
        del self.buffers[buf.handle]
        owned = self._owned[buf.owner]
        if len(owned) == 1:             # its last buffer: forget the owner
            del self._owned[buf.owner]
        else:
            del owned[buf.handle]

    # -- ownership GC ------------------------------------------------------

    def gc_owner(self, owner: str) -> list[str]:
        """Free every buffer of this owner regardless of refcount.

        Returns the freed handles. Only the owner's own instances could
        still read them, and they are finished or failed with it.
        """
        victims = list(self._owned.get(owner, ()))
        for h in victims:
            self._free(self.buffers[h])
        return victims

    # -- audits ------------------------------------------------------------

    def live_bytes(self) -> int:
        return sum(nb for b in self.buffers.values() for _d, nb in b.shards)


def audit_no_double_free(audit_rows: list) -> list[tuple[str, int]]:
    """Return (handle, t_ns) for each free of an already freed handle
    (should be empty)."""
    seen: set[str] = set()
    dups = []
    for op, handle, _shards, _nbytes, _host, t_ns in audit_rows:
        if op != "free":
            continue
        if handle in seen:
            dups.append((handle, t_ns))
        seen.add(handle)
    return dups


def audit_leaks(cluster: Cluster) -> dict[int, int]:
    """Bytes still unaccounted per device (free != capacity)."""
    out = {}
    for dev in cluster.devices:
        if dev.free_bytes != dev.hbm_capacity:
            out[dev.device_id] = dev.hbm_capacity - dev.free_bytes
    return out
