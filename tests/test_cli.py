"""Command-line exit codes: 0 for a clean run, 2 for bad input with a reason."""
import json
from pathlib import Path

import pytest

from flowpath import CompiledFunction, Tracer
from flowpath.cli import main
from flowpath.ir import serialize

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CHAIN4 = str(CONFIGS / "programs" / "chain4.json")


def write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_with_defaults_exits_zero(capsys):
    assert main(["run", CHAIN4]) == 0
    out = capsys.readouterr().out
    assert "status=quiescent" in out and "results" in out


@pytest.mark.parametrize("mode", ["parallel", "sequential", "auto"])
def test_edge_order_does_not_change_a_run(tmp_path, capsys, mode):
    # an arg read by a (host 0) and b (host 1): its first consumer in node
    # order places and creates it, however the edge list is ordered
    t = Tracer()
    x = t.arg(4, 4096)
    a = t.call(CompiledFunction("a", 4, (4096,), (4096,), 20.0), x)
    b = t.call(CompiledFunction("b", 4, (4096,), (4096,), 30.0), x)
    doc = json.loads(serialize(t.finish(results=[a, b])))
    runs = []
    for name in ("forward", "reversed"):
        path = write_json(tmp_path / f"{name}.json", doc)
        assert main(["run", path, "--mode", mode]) == 0
        head, *digests = capsys.readouterr().out.splitlines()
        runs.append((head.split(" ", 2)[2], digests))   # drop the program id
        doc["edges"].reverse()
    assert runs[0] == runs[1]
    assert "status=quiescent" in runs[0][0]


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_run_with_undersized_hbm_exits_two(tmp_path, capsys, mode):
    cfg = write_json(tmp_path / "tiny.json", {
        "islands": [{"devices_per_host": 4, "hosts": 1}], "hbm_bytes": 1000})
    assert main(["run", CHAIN4, "--config", cfg, "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert "HBM" in err and "node n1" in err and "device 0" in err
    assert "deadlock" not in err


@pytest.mark.parametrize("mode", ["parallel", "sequential", "auto"])
def test_run_with_nodes_out_of_order_exits_two(tmp_path, capsys, mode):
    doc = json.loads(Path(CHAIN4).read_text())
    doc["nodes"].reverse()
    path = write_json(tmp_path / "reversed.json", doc)
    assert main(["run", path, "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert "node n5 is listed before its producer n4" in err
    assert "incomplete" not in err


def test_bench_rejects_unknown_workload_keys(tmp_path, capsys):
    wl = write_json(tmp_path / "typo.json", {
        "benchmark": "dispatch", "duraton_us": 5,
        "costs": {"client_rpc_us": 1}})
    out = tmp_path / "results.json"
    assert main(["bench", "dispatch", "--workload", wl,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown keys: costs, duraton_us" in err
    assert not out.exists()


def test_bench_dispatch_rejects_a_cluster_config(tmp_path, capsys):
    out = tmp_path / "results.json"
    assert main(["bench", "dispatch", "--config",
                 str(CONFIGS / "cluster_small.json"), "--out", str(out)]) == 2
    assert "--config does not apply" in capsys.readouterr().err
    assert not out.exists()
