"""Command-line exit codes: 0 for a clean run, 2 for bad input with a reason."""
import json
from pathlib import Path

import pytest

from flowpath.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CHAIN4 = str(CONFIGS / "programs" / "chain4.json")


def write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_with_defaults_exits_zero(capsys):
    assert main(["run", CHAIN4]) == 0
    out = capsys.readouterr().out
    assert "status=quiescent" in out and "results" in out


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_run_with_undersized_hbm_exits_two(tmp_path, capsys, mode):
    cfg = write_json(tmp_path / "tiny.json", {
        "islands": [{"devices_per_host": 4, "hosts": 1}], "hbm_bytes": 1000})
    assert main(["run", CHAIN4, "--config", cfg, "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert "HBM" in err and "node n1" in err and "device 0" in err
    assert "deadlock" not in err


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
