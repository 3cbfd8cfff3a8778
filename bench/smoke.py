"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 bench/smoke.py

Runs each workload of run.py, listed in BENCHMARK.json or not, untraced and
traced, in this process. Checks that each run emits exactly the metrics
BENCHMARK.json names for its mode, with their units, that no operation
failed, and that the traced self times plus the caller's remainder add up to
the traced wall time. Exits 1 on a problem.
"""

import json
import math
import os
import sys

import run

SECONDS = 0.2


def problems(config, name, trace):
    expected = {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}
    result, _ = run.run_workload(name, seed=0, seconds=SECONDS, trace=trace, tiny=True)
    metrics = result["metrics"]
    found = []
    if set(metrics) != set(expected):
        found.append(f"metrics differ from BENCHMARK.json: missing "
                     f"{sorted(set(expected) - set(metrics))}, extra "
                     f"{sorted(set(metrics) - set(expected))}")
    for key, unit in expected.items():
        if key in metrics and metrics[key]["unit"] != unit:
            found.append(f"{key}: unit {metrics[key]['unit']!r}, expected {unit!r}")
        if key in metrics and not math.isfinite(metrics[key]["value"]):
            found.append(f"{key}: value {metrics[key]['value']} is not finite")
    if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
        found.append(f"attempted {result['attempted']}, failed {result['failed']}")
    if trace:
        if metrics["failed_frac"]["value"] != 0.0:
            found.append(f"failed_frac {metrics['failed_frac']['value']}")
        parts = sum(v["value"] for k, v in metrics.items() if k.endswith(".ms_per_step"))
        wall = metrics["trace.wall_ms_per_step"]["value"]
        if not math.isclose(parts, wall, rel_tol=1e-9):
            found.append(f"self times plus remainder {parts} ms != traced wall {wall} ms")
    return found


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    unknown = {w["name"] for w in config["workloads"]} - set(run.WORKLOADS)
    failures = len(unknown)
    if unknown:
        print(f"FAIL BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for name in run.WORKLOADS:
        for trace in (False, True):
            found = problems(config, name, trace)
            status = "ok" if not found else "FAIL"
            print(f"{status} {name} trace {int(trace)}")
            for line in found:
                print(f"    {line}")
            failures += bool(found)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
