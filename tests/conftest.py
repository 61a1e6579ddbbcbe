import pytest

from flowpath.config import small_cluster
from flowpath.executor import HostExecutor


@pytest.fixture
def spec():
    return small_cluster()


@pytest.fixture
def tiny_spec():
    return small_cluster(hosts=1, devices_per_host=1)


@pytest.fixture
def drains(monkeypatch):
    """(t_ns, host pid, payload) of each drain a host handles, whether
    another host sent it or the host called itself."""
    seen = []
    on_drain = HostExecutor._on_drain

    def spy(self, payload):
        seen.append((self.sim.now(), self.pid, payload))
        return on_drain(self, payload)

    monkeypatch.setattr(HostExecutor, "_on_drain", spy)
    return seen
