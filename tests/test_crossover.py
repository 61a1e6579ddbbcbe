"""The crossover search, on synthetic predicates: no system is built."""
import pytest

from flowpath.bench import smallest_passing

FIRST, LAST = 1, 4096       # the durations (us) the search may probe


def search(threshold: int, seed: int) -> tuple[int, list[int]]:
    probes = []

    def passes(t):
        probes.append(t)
        return t >= threshold

    return smallest_passing(passes, seed), probes


def test_search_finds_every_threshold_from_any_seed():
    for threshold in range(FIRST, LAST + 1):
        for seed in {FIRST, threshold - 3, threshold - 1, threshold,
                     threshold + 1, threshold + 3, LAST}:
            found, probes = search(threshold, seed)
            assert found == threshold, (threshold, seed)
            assert FIRST <= min(probes) and max(probes) <= LAST
            # each probe builds a system, so none is made twice
            assert len(set(probes)) == len(probes), (threshold, seed)
            assert threshold in probes
            assert threshold == FIRST or threshold - 1 in probes


@pytest.mark.parametrize("seed", [FIRST - 1, FIRST, 2048, LAST, LAST + 1])
def test_search_raises_when_nothing_passes(seed):
    probes = []

    def never(t):
        probes.append(t)
        return False

    with pytest.raises(RuntimeError, match=f"no crossover below {LAST}us"):
        smallest_passing(never, seed)
    assert LAST in probes and FIRST <= min(probes) and max(probes) <= LAST
