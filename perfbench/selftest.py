"""Fast self-test of the benchmark harness (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload shrunk to a few seconds, traced and untraced,
and checks that every metric ``BENCHMARK.json`` declares is printed
with its unit; that ``perfbench/layers.json`` maps every per-layer
metric to exactly one layer; that tampered TCP results (a diverging
chain, an acknowledged block missing from the chains) fail the
correctness check, as does each failed simulator check; and that a directory holding only the benchmark
exits non-zero without printing a result.  Exits 0 when all pass.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import sim, tcp  # noqa: E402
from perfbench.report import OUT_DIR, BenchmarkFailure, result_line  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Simulated-duration scale of the shrunk sim workloads.
SIM_SCALE = {"sim_geo_n100": 0.3, "sim_kv_crash_n16": 0.5}


def check_line(line: str, traced: bool) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if traced else "end_to_end"]
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for entry in section:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], (entry, metric)
        assert isinstance(metric["value"], float), metric
    assert len(result["metrics"]) == len(section)


def check_layer_map() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())["layers"]
    per_layer = [entry["name"] for entry in declared["per_layer"]]
    mapped = [name for layer in layers.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer), set(mapped) ^ set(per_layer)
    end_to_end = {entry["name"] for entry in declared["end_to_end"]}
    workloads = {entry["name"] for entry in declared["workloads"]}
    assert workloads == set(WORKLOADS), workloads ^ set(WORKLOADS)
    for layer in layers.values():
        for metric, names in layer["moves"].items():
            assert metric in end_to_end, metric
            assert set(names) <= workloads, names


def check_sim(name: str) -> None:
    workload = WORKLOADS[name]
    scale = SIM_SCALE[name]
    values, attempted, failed = sim.run_untraced(workload, 1, 0.0, 0.0, scale)
    check_line(result_line(values, False, attempted, failed), traced=False)
    values, attempted, failed = sim.run_traced(workload, 1, 0.0, scale)
    check_line(result_line(values, True, attempted, failed), traced=True)
    assert (OUT_DIR / f"{name}.trace.json").is_file()


def check_sim_gate() -> None:
    """Each simulator correctness check alone fails the run."""
    healthy = {"safety_ok": True, "invariants": {"ok": True, "violations": []},
               "strong_safety_violations": 0, "commits": 10}
    sim.check_outputs(healthy)
    for broken in ({"safety_ok": False},
                   {"invariants": {"ok": False, "violations": ["double-vote"]}},
                   {"strong_safety_violations": 1}):
        try:
            sim.check_outputs({**healthy, **broken})
        except BenchmarkFailure:
            continue
        raise AssertionError(f"{broken} passed the correctness check")


def check_tcp() -> None:
    workload = WORKLOADS["tcp_kv_n4"]
    values, attempted, failed = tcp.run_untraced(workload, 1, 3.0)
    check_line(result_line(values, False, attempted, failed), traced=False)
    values, attempted, failed = tcp.run_traced(workload, 1, 2.0)
    check_line(result_line(values, True, attempted, failed), traced=True)

    cycle = tcp.run_cycle(workload, 2, 1.0, 0, traced=False)
    assert tcp.cycle_problems(cycle) == []
    acked = next(r for r in cycle["client"].records.values() if r.acked is not None)

    diverged = copy.copy(cycle)
    diverged["dumps"] = copy.deepcopy(cycle["dumps"])
    diverged["dumps"][3]["commits"][0][1] = "00" * 32
    assert any("diverging" in p for p in tcp.cycle_problems(diverged))

    lost = copy.copy(cycle)
    lost["dumps"] = copy.deepcopy(cycle["dumps"])
    for replica_id in (0, 1, 2):
        for entry in lost["dumps"][replica_id]["commits"]:
            if entry[1] == acked.block_hex:
                entry[5] = []
    assert any("acked tx" in p for p in tcp.cycle_problems(lost))


def check_without_sources() -> None:
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim_geo_n100",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert run.returncode != 0 and not run.stdout.strip(), run


def main() -> int:
    checks = [
        ("layer map", check_layer_map),
        ("simulator correctness gate", check_sim_gate),
        ("sim_geo_n100", lambda: check_sim("sim_geo_n100")),
        ("sim_kv_crash_n16", lambda: check_sim("sim_kv_crash_n16")),
        ("tcp_kv_n4 and tampered results", check_tcp),
        ("checkout without sources", check_without_sources),
    ]
    for label, check in checks:
        check()
        print(f"ok  {label}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
