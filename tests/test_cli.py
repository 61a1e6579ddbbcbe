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


def join_program() -> dict:
    """n0 arg -> n1, n2 -> n3 joins them on input ports 0 and 1 -> n4."""
    t = Tracer()
    x = t.arg(4, 4096)
    a = t.call(CompiledFunction("a", 4, (4096,), (4096,), 20.0), x)
    b = t.call(CompiledFunction("b", 4, (4096,), (4096,), 30.0), x)
    j = t.call(CompiledFunction("join", 4, (4096, 4096), (4096,), 10.0), a, b)
    return json.loads(serialize(t.finish(results=[j])))


def edge(doc: dict, src: str, dst: str) -> dict:
    return next(e for e in doc["edges"] if (e["src"], e["dst"]) == (src, dst))


# case -> (change to join_program's document, reason printed)
MALFORMED = {
    "dst_port_out_of_range": (
        lambda doc: edge(doc, "n2", "n3").update(dst_port=7),
        "node n3: an edge feeds input port 7, which does not exist "
        "(2 inputs)"),
    "port_fed_twice": (
        lambda doc: edge(doc, "n2", "n3").update(dst_port=0),
        "node n3: input port 0 is fed by 2 edges, not 1"),
    "src_port_out_of_range": (
        lambda doc: edge(doc, "n1", "n3").update(src_port=1),
        "node n3: edge from n1 reads output port 1, which n1 does not have"),
    "port_not_an_integer": (
        lambda doc: edge(doc, "n2", "n3").update(dst_port="1"),
        "ports must be integers"),
    "result_fed_twice": (
        lambda doc: doc["edges"].append(
            {"src": "n1", "dst": "n4", "src_port": 0, "dst_port": 0}),
        "node n4: input port 0 is fed by 2 edges, not 1"),
    "result_not_fed": (
        lambda doc: doc["edges"].remove(edge(doc, "n3", "n4")),
        "node n4: input port 0 is fed by 0 edges, not 1"),
    "result_not_returned": (
        lambda doc: doc["results"].clear(),
        "result node n4 is listed 0 times in results, not once"),
    "result_returned_twice": (
        lambda doc: doc["results"].append("n4"),
        "result node n4 is listed 2 times in results, not once"),
}


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_run_with_malformed_graph_exits_two(tmp_path, capsys, mode, case):
    doc = join_program()
    assert main(["run", write_json(tmp_path / "ok.json", doc),
                 "--mode", mode]) == 0
    capsys.readouterr()
    change, reason = MALFORMED[case]
    change(doc)
    path = write_json(tmp_path / f"{case}.json", doc)
    assert main(["run", path, "--mode", mode]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_run_with_duplicate_node_id_exits_two(tmp_path, capsys, mode):
    doc = json.loads(Path(CHAIN4).read_text())
    doc["nodes"].append(dict(next(n for n in doc["nodes"] if n["id"] == "n2")))
    path = write_json(tmp_path / "twice.json", doc)
    assert main(["run", path, "--mode", mode]) == 2
    assert "duplicate node id n2" in capsys.readouterr().err


def node(doc: dict, nid: str) -> dict:
    return next(n for n in doc["nodes"] if n["id"] == nid)


# case -> (change to chain4's document, reason printed)
WRONG_TYPES = {
    "us_per_shard_str": (
        lambda doc: node(doc, "n1")["fn"].update(us_per_shard="50"),
        "node n1: 'us_per_shard' must be of type number, not '50'"),
    "in_bytes_strs": (
        lambda doc: node(doc, "n2")["fn"].update(in_bytes=["1048576"]),
        "node n2: 'in_bytes' must be of type int list, not ['1048576']"),
    "arg_shards_str": (
        lambda doc: node(doc, "n0").update(shards="4"),
        "node n0: 'shards' must be of type int, not '4'"),
    "arg_shards_float": (
        lambda doc: node(doc, "n0").update(shards=4.0),
        "node n0: 'shards' must be of type int, not 4.0"),
    "apply_count_str": (
        lambda doc: node(doc, "n3")["fn"].update(apply_count="2"),
        "node n3: 'apply_count' must be of type int, not '2'"),
    "bytes_per_shard_str": (
        lambda doc: node(doc, "n0").update(bytes_per_shard="1048576"),
        "node n0: 'bytes_per_shard' must be of type int, not '1048576'"),
    "regular_str": (
        lambda doc: node(doc, "n4")["fn"].update(regular="no"),
        "node n4: 'regular' must be of type bool, not 'no'"),
    "collective_int": (
        lambda doc: node(doc, "n1")["fn"].update(collective=1),
        "node n1: 'collective' must be of type bool, not 1"),
    "fn_shards_bool": (
        lambda doc: node(doc, "n2")["fn"].update(shards=True),
        "node n2: 'shards' must be of type int, not True"),
    "slice_shape_strs": (
        lambda doc: doc["slices"]["s2"].update(shape=["4"]),
        "slice s2: 'shape' must be of type int list, not ['4']"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_run_with_wrong_typed_field_exits_two(tmp_path, capsys, case):
    doc = json.loads(Path(CHAIN4).read_text())
    change, reason = WRONG_TYPES[case]
    change(doc)
    path = write_json(tmp_path / f"{case}.json", doc)
    assert main(["run", path]) == 2
    assert reason in capsys.readouterr().err


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
