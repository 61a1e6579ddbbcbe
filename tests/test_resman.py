"""Slice allocation: placement determinism and shortage errors."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpath.resman import AllocationError, ResourceManager


def make_rm(island_devices=None):
    return ResourceManager(island_devices or {0: [0, 1, 2, 3],
                                              1: [4, 5, 6, 7]})


# -- placement rules -------------------------------------------------------

def test_first_allocation_prefers_lowest_island_and_devices():
    rm = make_rm()
    st_ = rm.allocate_slice((2,))
    assert st_.island == 0
    assert st_.devices == (0, 1)
    assert st_.slice_id == "slice1"


def test_second_allocation_goes_to_less_loaded_island():
    rm = make_rm()
    rm.allocate_slice((2,))
    st2 = rm.allocate_slice((2,))
    assert st2.island == 1
    assert st2.devices == (4, 5)
    # both islands now at load 2; tie falls back to island 0, fresh devices
    st3 = rm.allocate_slice((2,))
    assert st3.island == 0
    assert st3.devices == (2, 3)


def test_island_pin_overrides_load():
    rm = make_rm()
    rm.allocate_slice((2,), island=1)
    st2 = rm.allocate_slice((2,), island=1)
    assert st2.island == 1
    assert st2.devices == (6, 7)


def test_devices_can_be_shared():
    rm = make_rm({0: [0, 1]})
    a = rm.allocate_slice((2,))
    b = rm.allocate_slice((2,))
    assert a.devices == b.devices == (0, 1)
    counts = {d: info.assigned for d, info in rm.devices.items()}
    assert counts == {0: 2, 1: 2}


def test_least_assigned_devices_win_within_island():
    rm = make_rm({0: [0, 1, 2]})
    rm.allocate_slice((2,))             # devices 0,1
    st_ = rm.allocate_slice((2,))
    # device 2 is untouched, then lowest-id loaded device
    assert st_.devices == (0, 2)


def test_identical_request_sequences_place_identically():
    def run():
        rm = make_rm()
        seq = [(2,), (4,), (1,), (2,), (3,)]
        return [rm.allocate_slice(s).devices for s in seq]
    assert run() == run()


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                max_size=12))
@settings(max_examples=50, deadline=None)
def test_placement_is_a_pure_function_of_history(sizes):
    def run():
        rm = make_rm()
        out = []
        for n in sizes:
            st_ = rm.allocate_slice((n,))
            out.append((st_.island, st_.devices))
        return out
    assert run() == run()


# -- errors ---------------------------------------------------------------

def test_oversized_request_reports_per_island_shortage():
    rm = make_rm()
    with pytest.raises(AllocationError) as ei:
        rm.allocate_slice((5,))
    msg = str(ei.value)
    assert "5 devices" in msg and "eligible per island" in msg


def test_empty_shape_rejected():
    rm = make_rm()
    with pytest.raises(AllocationError):
        rm.allocate_slice((0,))


def test_island_pin_to_missing_island_fails():
    rm = make_rm({0: [0, 1]})
    with pytest.raises(AllocationError):
        rm.allocate_slice((1,), island=7)
