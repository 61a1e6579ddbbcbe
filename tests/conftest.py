import pytest

from flowpath.config import small_cluster


@pytest.fixture
def spec():
    return small_cluster()


@pytest.fixture
def tiny_spec():
    return small_cluster(hosts=1, devices_per_host=1)
