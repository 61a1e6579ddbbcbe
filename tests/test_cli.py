"""Command-line exit codes: 0 for a clean run, 2 for bad input with a reason."""
import json
import re
from pathlib import Path

import pytest

from flowpath import CompiledFunction, System, Tracer, small_cluster
from flowpath.bench import WORKLOAD_KEYS
from flowpath.cli import main
from flowpath.config import load_cluster
from flowpath.ir import deserialize, serialize
from flowpath.runtime import StreamJob
from flowpath.simcore import Simulator

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
def test_chain4_value_digest_is_pinned(capsys, mode):
    assert main(["run", CHAIN4, "--mode", mode]) == 0
    assert "i1 results 591f348e2045cf61\n" in capsys.readouterr().out


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
    "results_entry_not_a_result": (
        lambda doc: doc["results"].append("n1"),
        "results entry n1 is not a result node"),
    "unknown_slice": (
        lambda doc: node(doc, "n1").update(slice="zz"),
        "node n1 references unknown slice zz"),
    "shards_off_the_slice": (
        lambda doc: node(doc, "n1")["fn"].update(shards=5),
        "node n1: 5 shards on slice of 4 devices"),
    "slice_dimension_below_1": (
        lambda doc: doc["slices"]["s0"].update(shape=[-2, -2]),
        "slice shape [-2, -2]: a dimension is below 1"),
    "no_compute_node": (
        lambda doc: doc.update(nodes=[node(doc, "n0")], edges=[], results=[],
                               slices={}),
        "program has no compute node"),
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
    "slice_id_list": (
        lambda doc: node(doc, "n1").update(slice=["s0"]),
        "bad program JSON: unhashable type: 'list'"),
    "slice_island_str": (
        lambda doc: doc["slices"]["s1"].update(island="0"),
        "slice s1: 'island' must be of type int or null, not '0'"),
    "fn_name_int": (
        lambda doc: node(doc, "n1")["fn"].update(name=7),
        "node n1: 'name' must be of type string, not 7"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_run_with_wrong_typed_field_exits_two(tmp_path, capsys, case):
    doc = json.loads(Path(CHAIN4).read_text())
    change, reason = WRONG_TYPES[case]
    change(doc)
    path = write_json(tmp_path / f"{case}.json", doc)
    assert main(["run", path]) == 2
    assert reason in capsys.readouterr().err


# case -> (node, fn key, JSON literal written for it, reason printed)
BAD_FN_VALUES = {
    "us_per_shard_nan": ("n1", "us_per_shard", "NaN",
                         "layer0: duration nan is not finite"),
    "us_per_shard_infinity": ("n2", "us_per_shard", "Infinity",
                              "layer1: duration inf is not finite"),
    "us_per_shard_1e400": ("n3", "us_per_shard", "1e400",
                           "layer2: duration inf is not finite"),
    "us_per_shard_1e300": ("n2", "us_per_shard", "1e300",
                           "layer1: duration 1e+300 us is 2**63 ns or more"),
    "apply_count_zero": ("n3", "apply_count", "0",
                         "layer2: apply_count must be >= 1"),
    "apply_count_negative": ("n4", "apply_count", "-3",
                             "layer3: apply_count must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_FN_VALUES))
def test_run_with_bad_fn_value_exits_two(tmp_path, capsys, case):
    nid, key, literal, reason = BAD_FN_VALUES[case]
    doc = json.loads(Path(CHAIN4).read_text())
    node(doc, nid)["fn"][key] = "@literal@"
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc).replace('"@literal@"', literal))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err


# case -> (change to chain4's document, reason printed)
RETURNS_AN_ARG = {
    "chain4_also_returns_its_arg": (
        lambda doc: (doc["nodes"].append({"id": "n6", "kind": "result"}),
                     doc["edges"].append({"src": "n0", "dst": "n6"}),
                     doc["results"].append("n6")),
        "result node n6 returns arg n0"),
    "no_compute_node": (
        lambda doc: doc.update(
            nodes=[node(doc, "n0"), {"id": "n1", "kind": "result"}],
            edges=[{"src": "n0", "dst": "n1"}], results=["n1"], slices={}),
        "result node n1 returns arg n0"),
}


@pytest.mark.parametrize("mode", ["parallel", "sequential", "auto"])
@pytest.mark.parametrize("case", sorted(RETURNS_AN_ARG))
def test_run_returning_an_arg_exits_two(tmp_path, capsys, mode, case):
    doc = json.loads(Path(CHAIN4).read_text())
    change, reason = RETURNS_AN_ARG[case]
    change(doc)
    path = write_json(tmp_path / f"{case}.json", doc)
    assert main(["run", path, "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err


# case -> (change to chain4's document, reason printed)
UNKNOWN_PROGRAM_KEYS = {
    "top": (lambda doc: doc.update(result=["n5"]),
            "program: unknown keys: result"),
    "arg_handle": (lambda doc: node(doc, "n0").update(handle="x"),
                   "node n0: unknown keys: handle"),
    "arg_layout": (lambda doc: node(doc, "n0").update(layout="row"),
                   "node n0: unknown keys: layout"),
    "compute": (lambda doc: node(doc, "n2").update(slic="s0"),
                "node n2: unknown keys: slic"),
    "fn": (lambda doc: node(doc, "n1")["fn"].update(colective=True),
           "node n1: unknown keys: colective"),
    "fn_layouts": (lambda doc: node(doc, "n1")["fn"].update(
                       in_layouts=["row"], out_layouts=["col"]),
                   "node n1: unknown keys: in_layouts, out_layouts"),
    "result": (lambda doc: node(doc, "n5").update(port=0),
               "node n5: unknown keys: port"),
    "edge": (lambda doc: doc["edges"][2].update(dst_prt=0),
             "edges[2]: unknown keys: dst_prt"),
    "slice": (lambda doc: doc["slices"]["s3"].update(mesh=[2, 2]),
              "slice s3: unknown keys: mesh"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_PROGRAM_KEYS))
def test_run_with_unknown_program_key_exits_two(tmp_path, capsys, case):
    doc = json.loads(Path(CHAIN4).read_text())
    change, reason = UNKNOWN_PROGRAM_KEYS[case]
    change(doc)
    path = write_json(tmp_path / f"{case}.json", doc)
    assert main(["run", path]) == 2
    assert reason in capsys.readouterr().err


# case -> (change to cluster_small.json, reason printed)
UNKNOWN_CLUSTER_KEYS = {
    "top": (lambda doc: doc.update(hbm_byte=1000),
            "cluster config: unknown keys: hbm_byte"),
    "island_mesh": (lambda doc: doc["islands"][0].update(mesh=[2, 4]),
                    "islands[0]: unknown keys: mesh"),
    "ici": (lambda doc: doc["islands"][0].update(ici={"latency": 5}),
            "islands[0].ici: unknown keys: latency"),
    "dcn": (lambda doc: doc["dcn"].update(gpbs=1.0),
            "dcn: unknown keys: gpbs"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_CLUSTER_KEYS))
def test_run_with_unknown_cluster_key_exits_two(tmp_path, capsys, case):
    doc = json.loads((CONFIGS / "cluster_small.json").read_text())
    change, reason = UNKNOWN_CLUSTER_KEYS[case]
    change(doc)
    cfg = write_json(tmp_path / f"{case}.json", doc)
    assert main(["run", CHAIN4, "--config", cfg]) == 2
    assert reason in capsys.readouterr().err


# field set to true -> (change to cluster_small.json, reason printed)
BOOL_CLUSTER_FIELDS = {
    "devices_per_host": (
        lambda doc: doc["islands"][0].update(devices_per_host=True),
        "islands[0].devices_per_host: positive int required"),
    "hosts": (lambda doc: doc["islands"][0].update(hosts=True),
              "islands[0].hosts: positive int required"),
    "hbm_bytes": (lambda doc: doc.update(hbm_bytes=True),
                  "hbm_bytes: positive int required"),
    "latency_ns": (lambda doc: doc["dcn"].update(latency_ns=True),
                   "dcn.latency_ns: non-negative int required"),
    "gbps": (lambda doc: doc["pcie"].update(gbps=True),
             "pcie.gbps: positive number required"),
}


@pytest.mark.parametrize("case", sorted(BOOL_CLUSTER_FIELDS))
def test_run_with_a_bool_cluster_field_exits_two(tmp_path, capsys, case):
    doc = json.loads((CONFIGS / "cluster_small.json").read_text())
    change, reason = BOOL_CLUSTER_FIELDS[case]
    change(doc)
    cfg = write_json(tmp_path / f"{case}.json", doc)
    assert main(["run", CHAIN4, "--config", cfg]) == 2
    assert reason in capsys.readouterr().err


# case -> (change to cluster_small.json, reason printed)
LINKS_OUT_OF_RANGE = {
    # 1e-10 GB/s is 0 bytes/s: a transfer would divide by zero
    "ici_rate": (lambda doc: doc["islands"][0].update(ici={"gbps": 1e-10}),
                 "islands[0].ici.gbps: positive number required, "
                 "at least 1e-9 (1 byte/s)"),
    "dcn_latency": (lambda doc: doc["dcn"].update(latency_ns=2**63),
                    "dcn.latency_ns: non-negative int required, "
                    "below 2**63"),
}


@pytest.mark.parametrize("case", sorted(LINKS_OUT_OF_RANGE))
def test_run_with_a_link_out_of_range_exits_two(tmp_path, capsys, case):
    doc = json.loads((CONFIGS / "cluster_small.json").read_text())
    change, reason = LINKS_OUT_OF_RANGE[case]
    change(doc)
    cfg = write_json(tmp_path / f"{case}.json", doc)
    assert main(["run", CHAIN4, "--config", cfg]) == 2
    assert reason in capsys.readouterr().err


def test_auto_mode_with_irregular_first_node_exits_two(tmp_path, capsys):
    doc = json.loads(Path(CHAIN4).read_text())
    node(doc, "n1")["fn"]["regular"] = False
    path = write_json(tmp_path / "irregular.json", doc)
    assert main(["run", path, "--mode", "auto"]) == 2
    assert "n1: data-dependent source node" in capsys.readouterr().err


# -- trace export ------------------------------------------------------------

def test_run_writes_a_sorted_chrome_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["run", CHAIN4, "--trace-out", str(out)]) == 0
    events = json.loads(out.read_text())
    assert isinstance(events, list) and events
    assert {e["ph"] for e in events} == {"X"}
    kernels = [e for e in events if re.fullmatch(r"n\d+\[\d+\]", e["name"])]
    assert len(kernels) == 16                    # 4 nodes x 4 shards
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)


# suite -> a small workload; each suite's last system keeps its trace
TRACED_WORKLOADS = {
    "dispatch": {"host_counts": [1], "chain_len": 2, "count": 8},
    "pipeline": {"cases": [[4, 8]], "cross_island": False},
    "utilization": {"client_counts": [1, 2], "per_client": 8},
}


@pytest.mark.parametrize("name", sorted(TRACED_WORKLOADS))
def test_bench_trace_out_writes_kernel_spans(tmp_path, capsys, name):
    wl = write_json(tmp_path / "w.json", TRACED_WORKLOADS[name])
    out = tmp_path / "trace.json"
    assert main(["bench", name, "--workload", wl,
                 "--out", str(tmp_path / "r.json"),
                 "--trace-out", str(out)]) == 0
    events = json.loads(out.read_text())
    assert [e for e in events if re.fullmatch(r"n\d+\[\d+\]", e["name"])]


def test_bench_pipeline_gives_each_stage_its_own_device(tmp_path, capsys):
    # 6 and 5 stages leave a 4-device host part empty; sharing a device
    # between stages read 0.291 and 0.249 busy against 0.615 and 0.5
    wl = write_json(tmp_path / "w.json", {"cases": [[6, 8], [5, 4]],
                                          "cross_island": False})
    out = tmp_path / "r.json"
    assert main(["bench", "pipeline", "--workload", wl,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [a["within_1pct"] for a in doc["audit"]] == [True, True]


def test_bench_without_a_trace_rejects_trace_out(tmp_path, capsys):
    wl = write_json(tmp_path / "tiny.json", {
        "benchmark": "fairness", "total_gangs": 40, "window": 4})
    assert main(["bench", "fairness", "--workload", wl,
                 "--out", str(tmp_path / "r.json"),
                 "--trace-out", str(tmp_path / "t.json")]) == 2
    assert "keeps no execution trace" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()
    assert not (tmp_path / "r.json").exists()


def refuse_to_run(*_args, **_kwargs):
    raise AssertionError("a suite ran although its input was rejected")


def test_bench_crossover_rejects_trace_out_before_running(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Simulator, "run_until_quiescent", refuse_to_run)
    assert main(["bench", "crossover", "--out", str(tmp_path / "r.json"),
                 "--trace-out", str(tmp_path / "t.json")]) == 2
    assert "keeps no execution trace" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


# case -> (fairness weights, reason printed)
BAD_WEIGHTS = {
    "zero": ({"a": 1, "b": 0}, "client 'b': weight 0 "),
    "negative": ({"a": 1, "b": -1}, "client 'b': weight -1 "),
    "string": ({"a": 1, "b": "2"}, "client 'b': weight '2' "),
    "tiny": ({"a": 1, "b": 1e-9}, "client 'b': weight 1e-09 "),
    "bool": ({"a": 1, "b": True}, "client 'b': weight True "),
    "list": ([1, 2], "weights: object of client weights required"),
    "empty": ({}, "weights: object of client weights required"),
}


@pytest.mark.parametrize("case", sorted(BAD_WEIGHTS))
def test_bench_fairness_rejects_bad_weights(tmp_path, capsys, monkeypatch,
                                            case):
    monkeypatch.setattr(Simulator, "run_until_quiescent", refuse_to_run)
    weights, reason = BAD_WEIGHTS[case]
    wl = write_json(tmp_path / "w.json", {
        "benchmark": "fairness", "total_gangs": 40, "window": 4,
        "weights": weights})
    out = tmp_path / "r.json"
    assert main(["bench", "fairness", "--workload", wl,
                 "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


# kind -> (suite, workload values, reason printed); every key of every
# suite has one of these kinds (the weights kind is BAD_WEIGHTS above)
BAD_VALUES = {
    "count-string": ("dispatch", {"count": "3"},
                     "count: int of at least 4 required, got '3'"),
    "count-zero": ("utilization", {"per_client": 0},
                   "per_client: int of at least 4 required, got 0"),
    "count-small": ("crossover", {"count": 3},
                    "count: int of at least 4 required, got 3"),
    "int-zero": ("dispatch", {"chain_len": 0},
                 "chain_len: positive int required, got 0"),
    "int-window": ("crossover", {"window": 0},
                   "window: positive int required, got 0"),
    "int-bool": ("fairness", {"window": True},
                 "window: positive int required, got True"),
    "int-fairness-zero": ("fairness", {"window": 0},
                          "window: positive int required, got 0"),
    "num-string": ("pipeline", {"stage_us": "x"},
                   "stage_us: finite positive number required, got 'x'"),
    "num-infinite": ("dispatch", {"duration_us": float("inf")},
                     "duration_us: finite positive number required, got inf"),
    "num-negative": ("utilization", {"duration_us": -1.5},
                     "duration_us: finite positive number required"),
    "ints-empty": ("crossover", {"host_counts": []},
                   "host_counts: non-empty list of positive ints required"),
    "ints-empty-rows": ("utilization", {"client_counts": []},
                        "client_counts: non-empty list of positive ints"),
    "ints-zero": ("dispatch", {"host_counts": [2, 0]},
                  "host_counts: non-empty list of positive ints required"),
    "pairs-short": ("pipeline", {"cases": [[4]]},
                    "cases: non-empty list of [stages, micro] pairs"),
    "pairs-string": ("pipeline", {"cases": [[4, "8"]]},
                     "cases: non-empty list of [stages, micro] pairs"),
    "flag-int": ("pipeline", {"cross_island": 1},
                 "cross_island: true or false required, got 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bench_rejects_bad_workload_values(tmp_path, capsys, monkeypatch,
                                           case):
    name, values, reason = BAD_VALUES[case]
    monkeypatch.setattr(Simulator, "__init__", refuse_to_run)
    wl = write_json(tmp_path / "w.json", {"benchmark": name, **values})
    out = tmp_path / "r.json"
    assert main(["bench", name, "--workload", wl, "--out", str(out)]) == 2
    assert f"workload for {name!r}: {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_every_workload_key_has_a_checked_kind():
    kinds = {kind for keys in WORKLOAD_KEYS.values() for kind in keys.values()}
    assert kinds == {case.split("-")[0] for case in BAD_VALUES} | {"weights"}


def test_bench_crossover_rejects_event_log(tmp_path, capsys):
    assert main(["bench", "crossover", "--out", str(tmp_path / "r.json"),
                 "--event-log", str(tmp_path / "log.ndjson")]) == 2
    assert "no event log is kept" in capsys.readouterr().err


# -- shipped documents -------------------------------------------------------

def test_every_shipped_document_loads():
    clusters = sorted(CONFIGS.glob("cluster_*.json"))
    programs = sorted((CONFIGS / "programs").glob("*.json"))
    workloads = sorted((CONFIGS / "workloads").glob("*.json"))
    assert clusters and programs and workloads
    for path in clusters:
        assert load_cluster(str(path)).islands, path
    for path in programs:
        text = path.read_text().strip()
        prog = deserialize(text)
        assert serialize(prog) == text, path
        sys_ = System(small_cluster())
        sys_.register_traced("p", prog)
        c = sys_.add_client("c0")
        sys_.start_job(c, StreamJob(sys_.new_job_id(), "p", count=1))
        assert sys_.run().status == "quiescent", path
        assert len(c.completed_at) == 1, path
    for path in workloads:
        doc = json.loads(path.read_text())
        name = doc.pop("benchmark")
        assert set(doc) <= set(WORKLOAD_KEYS[name]), path


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


@pytest.mark.parametrize("name,key,value", [("utilization", "devices", 2),
                                            ("fairness", "resident", 3)])
def test_bench_rejects_a_cluster_key_next_to_a_cluster_config(
        tmp_path, capsys, monkeypatch, name, key, value):
    monkeypatch.setattr(Simulator, "__init__", refuse_to_run)
    wl = write_json(tmp_path / "w.json", {"benchmark": name, key: value})
    out = tmp_path / "results.json"
    assert main(["bench", name, "--workload", wl, "--config",
                 str(CONFIGS / "cluster_small.json"), "--out", str(out)]) == 2
    assert (f"workload for {name!r}: {key}: --config sizes the cluster"
            in capsys.readouterr().err)
    assert not out.exists()
