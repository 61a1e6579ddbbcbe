"""Benchmark harness for the flowpath simulator.

    python3 perfbench/run.py --workload chain_seq --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in a worker process of its own (`worker.py`), which
builds the inputs from the seed and iterates the workload for `--seconds`.
`--trace 0` reports the end-to-end metrics named in BENCHMARK.json, medians
over the timed iterations. `--trace 1` splits the time between an untraced
and a traced worker and reports the per-layer metrics; the traced run must
reproduce the untraced run's simulated results exactly.

Before measuring, the harness checks that the seed changes the generated
inputs and that the correctness gate counts injected faults (`selftest.py`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Without the program's
sources next to this directory it exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# every run must end within this many seconds, workers included
RUN_LIMIT_S = 170.0
# tenants: largest |grant share - weight share| the proportional policy may
# show over the middle of the grant log
SHARE_TOL = 0.01


def spawn(workload: str, seed: int, seconds: float, trace: bool,
          deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(int(trace))]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"error: {workload} worker exited {r.returncode}")
    return json.loads(r.stdout.splitlines()[-1])


def median_of(samples: list[dict], key: str, scaled: bool = True) -> float:
    """Median of a host time (or, for *_per_host_s, a rate) over timed
    iterations, each scaled to the probe's nominal machine speed."""
    def value(t: dict) -> float:
        if not scaled:
            return t[key]
        if key.endswith("_per_host_s"):
            return t[key] / t["scale"]
        return t[key] * t["scale"]
    return statistics.median(value(s) for s in samples)


def check(workload: str, seed: int, runs: list[dict]) -> list[str]:
    """Reasons the outputs are not correct; empty when they are."""
    # imported here: these import flowpath, which main() checks for first
    from selftest import cases
    from worker import make_inputs

    problems = [f"gate self-test '{case}': counted {got}, want {want}"
                for case, want, got in cases() if got != want]
    if make_inputs(workload, seed) == make_inputs(workload, seed + 1):
        problems.append("seeds differ but the generated inputs do not")
    for r in runs:
        kind = "traced" if r["traced"] else "untraced"
        if r["mismatched"]:
            problems.append(f"{kind} iterations of one seed disagree on "
                            + ", ".join(r["mismatched"]))
        if not r["values_agree"]:
            problems.append(f"{kind}: instances of one program computed "
                            "different value digests")
        if r["sim"]["status"] != "quiescent":
            problems.append(f"{kind}: run ended {r['sim']['status']}")
    if len(runs) == 2:
        differ = [k for k in runs[0]["sim"]
                  if runs[0]["sim"][k] != runs[1]["sim"][k]]
        if differ:
            problems.append("traced run changed " + ", ".join(differ))
    if workload == "tenants" and runs[0]["sim"]["sim_share_err"] > SHARE_TOL:
        problems.append(f"share error {runs[0]['sim']['sim_share_err']:.4f} "
                        f"above {SHARE_TOL}")
    return problems


def end_to_end(run: dict) -> dict[str, float]:
    timed = run["timed"]
    sim = run["sim"]
    return {"setup_s": median_of(timed, "setup_s"),
            "total_s": median_of(timed, "total_s"),
            "gangs_per_host_s": median_of(timed, "gangs_per_host_s"),
            "peak_rss_mb": run["peak_rss_mb"],
            "sim_gangs_per_s": sim["sim_gangs_per_s"],
            "sim_latency_p50_us": sim["sim_latency_p50_us"],
            "sim_latency_tail_us": sim["sim_latency_tail_us"]}


def per_layer(base: dict, traced: dict) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and the layer split, medians over traced
    iterations; every *_s value is a scaled host time."""
    timed = traced["timed"]

    def med(part: str, k: str) -> float:
        scaled = part == "split" or k.endswith("_s")
        return statistics.median(t[part][k] * (t["scale"] if scaled else 1)
                                 for t in timed)

    out = {k: med("layers", k) for k in timed[0]["layers"]}
    out["sched.share_err"] = traced["sim"]["sim_share_err"]
    out["trace_overhead"] = (median_of(timed, "total_s")
                             / median_of(base["timed"], "total_s"))
    return out, {k: med("split", k) for k in timed[0]["split"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 units: dict[str, str], deadline: float) -> dict:
    if trace:
        runs = [spawn(workload, seed, seconds / 2, False, deadline),
                spawn(workload, seed, seconds / 2, True, deadline)]
    else:
        runs = [spawn(workload, seed, seconds, False, deadline)]
    problems = check(workload, seed, runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    base, sim = runs[0], runs[0]["sim"]

    print(f"{workload} seed={seed} inputs={json.dumps(base['inputs'])}")
    for r in runs:
        scales = [t["scale"] for t in r["timed"]]
        print(f"  {'traced' if r['traced'] else 'untraced'} worker: "
              f"1 warm-up + {len(r['timed'])} timed iterations, machine "
              f"speed scale {min(scales):.3f}..{max(scales):.3f}")
    if trace:
        values, split = per_layer(base, runs[1])
        run_s = values["trace.run_s"]
        print(f"  layer self time in traced System.run ({run_s:.3f} s):")
        for layer, s in sorted(split.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<10} {s:9.4f} s {100 * s / run_s:5.1f}%")
        print(f"    {'(rest)':<10} {values['trace.unattributed_s']:9.4f} s")
    else:
        values = end_to_end(base)
    for name, unit in units.items():
        note = ""
        if name == "peak_rss_mb":
            note = (f"  instances_retained={sim['instances_retained']} "
                    f"audit_rows={sim['audit_rows']}")
        elif name in ("setup_s", "total_s", "gangs_per_host_s"):
            note = f"  unscaled {median_of(base['timed'], name, False):.6g}"
        elif name == "sim_latency_tail_us":
            note = (f"  p{sim['sim_latency_tail_pct']:.2f} of "
                    f"{sim['sim_latency_samples']} samples")
        print(f"  {name:<32} {values[name]:.6g} {unit}{note}")
    if workload == "tenants":
        print(f"  {'sim_share_err':<32} {sim['sim_share_err']:.6g}")
    print(f"  {'error_rate':<32} {failed / attempted:.6g} "
          f"({failed} failed of {attempted} instances)")
    for p in problems:
        print(f"  INCORRECT: {p}")
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(
        description="flowpath benchmark: one workload per run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flowpath" / "__init__.py").is_file():
        print(f"error: no flowpath sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from worker import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(w not in WORKLOADS for w in names):
        ap.error(f"--workload: choose from {', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds,
                                   bool(args.trace), units,
                                   time.monotonic() + RUN_LIMIT_S)
                   for w in names}
        print(json.dumps(results, sort_keys=True))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), units, start + RUN_LIMIT_S)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
