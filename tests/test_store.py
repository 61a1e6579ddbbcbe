"""Logical buffers: refcounts, ownership GC, audit trail, HBM conservation."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpath.config import small_cluster
from flowpath.hardware import Cluster
from flowpath.simcore import Simulator
from flowpath.store import (HostStore, RefcountError, StoreError,
                            UnknownHandleError, audit_leaks,
                            audit_no_double_free)

MB = 1 << 20


def make_store(hbm=64 * MB):
    sim = Simulator()
    cl = Cluster(sim, small_cluster(hosts=1, devices_per_host=2,
                                    hbm_bytes=hbm))
    return cl, HostStore(0, cl)


# -- allocation ------------------------------------------------------------

def test_put_reserves_bytes_and_audits():
    cl, store = make_store()
    buf = store.put([(0, 2 * MB), (1, 3 * MB)], owner="c0")
    assert cl.device(0).free_bytes == 62 * MB
    assert cl.device(1).free_bytes == 61 * MB
    # one row for the buffer: (op, handle, shards, bytes, host, t_ns)
    assert store.audit == [("alloc", buf.handle, 2, 5 * MB, 0, 0)]
    assert store.live_bytes() == 5 * MB


def test_put_rolls_back_on_partial_failure():
    cl, store = make_store(hbm=4 * MB)
    with pytest.raises(StoreError, match="lacks"):
        store.put([(0, 2 * MB), (0, 3 * MB)], owner="c0")
    assert cl.device(0).free_bytes == 4 * MB
    assert store.buffers == {}
    assert store.audit == []


def test_put_without_reserve_leaves_hbm_alone():
    cl, store = make_store()
    cl.device(0).hbm_try_take(2 * MB)          # gang reservation took them
    store.put([(0, 2 * MB)], owner="c0", reserve=False)
    assert cl.device(0).free_bytes == 62 * MB


def test_duplicate_handle_rejected():
    _, store = make_store()
    store.put([(0, MB)], owner="c0", handle="h1")
    with pytest.raises(StoreError, match="duplicate"):
        store.put([(0, MB)], owner="c0", handle="h1")


def test_handles_are_unique_per_host():
    _, store = make_store()
    a = store.put([(0, MB)], owner="c0")
    b = store.put([(0, MB)], owner="c0")
    assert a.handle != b.handle
    other = HostStore(1, store.cluster)
    c = other.put([(0, MB)], owner="c0", reserve=False)
    assert c.handle not in (a.handle, b.handle)


# -- reference counting ----------------------------------------------------

def test_release_frees_at_zero():
    cl, store = make_store()
    buf = store.put([(0, 2 * MB)], owner="c0", refcount=2)
    assert store.release(buf.handle) is False
    assert cl.device(0).free_bytes == 62 * MB
    assert [r[0] for r in store.audit] == ["alloc"]
    assert store.release(buf.handle) is True
    assert cl.device(0).free_bytes == 64 * MB
    assert store.audit[-1] == ("free", buf.handle, 1, 2 * MB, 0, 0)


def test_release_after_free_raises():
    _, store = make_store()
    buf = store.put([(0, MB)], owner="c0")
    assert store.release(buf.handle) is True
    with pytest.raises(UnknownHandleError):
        store.release(buf.handle)


def test_release_unknown_handle_raises():
    _, store = make_store()
    with pytest.raises(UnknownHandleError):
        store.release("never-existed")


def test_refcount_below_zero_is_fatal():
    _, store = make_store()
    buf = store.put([(0, MB)], owner="c0", refcount=0)
    with pytest.raises(RefcountError):
        store.release(buf.handle)


def test_resolve_shard_marks_only_that_shard():
    _, store = make_store()
    buf = store.put([(0, MB), (1, MB)], owner="c0")
    store.resolve_shard(buf.handle, 0)
    assert buf.resolved == (0,)


# -- ownership GC ----------------------------------------------------------

def test_gc_owner_frees_everything_and_fails_waiters():
    cl, store = make_store()
    a = store.put([(0, 2 * MB)], owner="victim", refcount=5)
    b = store.put([(1, MB)], owner="victim")
    keep = store.put([(0, MB)], owner="other")
    victims = store.gc_owner("victim")
    assert sorted(victims) == sorted([a.handle, b.handle])
    assert cl.device(0).free_bytes == 63 * MB      # only keep remains
    assert cl.device(1).free_bytes == 64 * MB
    assert list(store.buffers) == [keep.handle]
    assert sorted(r[1] for r in store.audit if r[0] == "free") == \
        sorted(victims)
    # a release racing with the sweep is the host's to drop, not the store's
    with pytest.raises(UnknownHandleError):
        store.release(a.handle)


def test_gc_owner_with_nothing_returns_empty():
    _, store = make_store()
    store.put([(0, MB)], owner="other")
    assert store.gc_owner("nobody") == []


def test_gc_owner_frees_in_put_order_and_forgets_freed_buffers():
    _, store = make_store()
    a = store.put([(0, MB)], owner="victim")
    store.put([(1, MB)], owner="other")
    b = store.put([(1, MB)], owner="victim")
    c = store.put([(0, MB)], owner="victim")
    store.release(b.handle)              # freed already: not swept again
    d = store.put([(1, MB)], owner="victim")
    assert store.gc_owner("victim") == [a.handle, c.handle, d.handle]
    assert [r[1] for r in store.audit if r[0] == "free"] == [
        b.handle, a.handle, c.handle, d.handle]
    assert store.gc_owner("victim") == []


# -- audits ----------------------------------------------------------------

def test_double_free_detector_flags_planted_rows():
    rows = [("alloc", "h", 2, 20, 0, 0),
            ("alloc", "g", 1, 10, 1, 0),
            ("free", "h", 2, 20, 0, 5),
            ("free", "g", 1, 10, 1, 7),
            ("free", "h", 2, 20, 0, 9)]
    assert audit_no_double_free(rows) == [("h", 9)]
    assert audit_no_double_free(rows[:4]) == []


def test_leak_detector_reports_outstanding_bytes():
    cl, store = make_store()
    assert audit_leaks(cl) == {}
    cl.device(1).hbm_try_take(3 * MB)
    assert audit_leaks(cl) == {1: 3 * MB}
    cl.release_hbm([(1, 3 * MB)])
    assert audit_leaks(cl) == {}


def test_normal_lifecycle_leaves_clean_audits():
    cl, store = make_store()
    for i in range(5):
        buf = store.put([(0, MB), (1, MB)], owner="c0")
        store.release(buf.handle)
    assert audit_no_double_free(store.audit) == []
    assert audit_leaks(cl) == {}


# -- conservation property -------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["put", "release", "gc"]),
                          st.integers(min_value=0, max_value=7),
                          st.integers(min_value=1, max_value=3)),
                max_size=60))
@settings(max_examples=80, deadline=None)
def test_hbm_is_conserved_under_random_op_sequences(ops):
    cl, store = make_store()
    cap = cl.device(0).hbm_capacity + cl.device(1).hbm_capacity
    live = []
    for action, pick, n in ops:
        if action == "put":
            buf = store.put([(pick % 2, n * MB)], owner=f"o{pick % 3}",
                            refcount=n)
            live.append(buf.handle)
        elif action == "release" and live:
            h = live[pick % len(live)]
            if store.release(h):
                live = [x for x in live if x != h]
        elif action == "gc":
            owner = f"o{pick % 3}"
            # the owner's live buffers, in put order: audit rows keep it
            owned = [h for h, b in store.buffers.items() if b.owner == owner]
            gone = store.gc_owner(owner)
            assert gone == owned
            live = [x for x in live if x not in gone]
        free = cl.device(0).free_bytes + cl.device(1).free_bytes
        assert free + store.live_bytes() == cap
    assert audit_no_double_free(store.audit) == []
