"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json declares the metrics the harness prints, that
each workload's check accepts its reference and rejects a corrupted
output, and that the small variant of each workload, with tracing off
and on, prints every named metric with its unit and matches its
references.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import layers
import run
from workloads import REF, WORKLOADS

HERE = Path(__file__).resolve().parent


def declared() -> tuple[dict, dict]:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return e2e, per_layer


def check_declarations() -> list[str]:
    e2e, per_layer = declared()
    errors = []
    if e2e != run.END_TO_END:
        errors.append(f"end_to_end in BENCHMARK.json {e2e} != harness {run.END_TO_END}")
    harness = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    if per_layer != harness:
        errors.append("per_layer in BENCHMARK.json differs from layers.PER_LAYER")
    return errors


def check_gates() -> list[str]:
    """Each workload check accepts the reference and rejects corruptions."""
    suite, exhaustive, catalog = (WORKLOADS[n].check for n in ("suite", "exhaustive", "catalog"))
    claims = (REF / "suite_small.json").read_bytes()
    summary = (REF / "catalog_small.json").read_bytes()
    counts = json.loads((REF / "exhaustive.json").read_text(encoding="utf-8"))

    def weights_output(q, c):
        payload = {"counts": c, "k": 4, "m": 3, "method": "exhaustive", "q": q}
        return (0, json.dumps(payload).encode())

    shifted = dict(counts["q4m3"])
    low, high = sorted(shifted, key=int)[1:3]
    shifted[low] -= 1
    shifted[high] += 1
    cases = [
        ("suite reference", suite([(0, claims)], True), True),
        ("suite exit status", suite([(1, claims)], True), False),
        ("suite claim status", suite([(0, claims.replace(b'"pass"', b'"fail"', 1))], True), False),
        ("exhaustive reference",
         exhaustive([weights_output(4, counts["q4m3"]), weights_output(5, counts["q5m3"])], True),
         True),
        ("exhaustive moved count",
         exhaustive([weights_output(4, shifted), weights_output(5, counts["q5m3"])], True), False),
        ("exhaustive crash", exhaustive([(1, b""), weights_output(5, counts["q5m3"])], True), False),
        ("catalog reference", catalog([(0, summary)], True), True),
        ("catalog root mismatch",
         catalog([(0, summary.replace(b'"root_mismatches":0', b'"root_mismatches":1'))], True),
         False),
    ]
    return [f"gate '{name}': {'rejected' if ok else 'accepted'} ({verdict})"
            for name, verdict, ok in cases if (verdict is None) != ok]


def check_small_runs() -> list[str]:
    e2e, per_layer = declared()
    errors = []
    for name in WORKLOADS:
        for trace, expected in ((0, e2e), (1, per_layer)):
            label = f"{name} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
                 "--seconds", "0", "--trace", str(trace), "--small"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0 or not proc.stdout.strip():
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{label}: outputs do not match the references")
            metrics = result["metrics"]
            if set(metrics) != set(expected):
                errors.append(f"{label}: metrics {sorted(set(metrics) ^ set(expected))} "
                              "missing or undeclared")
            for metric, unit in expected.items():
                entry = metrics.get(metric, {})
                if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
                    errors.append(f"{label}: {metric} = {entry}, expected a number in {unit}")
            for metric in expected:
                if not any(line.startswith(metric + " ") for line in proc.stdout.splitlines()):
                    errors.append(f"{label}: {metric} not printed by name")
            print(f"ok {label}")
    return errors


def main() -> int:
    errors = check_declarations() + check_gates()
    if not errors:
        errors = check_small_runs()
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
