"""Per-layer metrics derived from the spans of a traced run.

A layer's time is the time inside its outermost spans; its self time is
the part of its spans' time not covered by a nested span.  A metric
whose case does not occur in a workload reads 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

EXHAUSTIVE_CASES = ("q8m3", "q9m3", "q7m3", "q5m3")
REDUCED_CASES = ("q5m4",)
# Reduced enumerations of dimension at most this are the "small" ones:
# the catalog enumerates exactly these, one per code.
SMALL_MAX_K = 4

# name -> (unit, better).  README.md gives, for each, the end-to-end
# metric it should move and on which workload.
PER_LAYER = {
    "gf.field_s": ("s", "lower"),
    "curve.orbits_s": ("s", "lower"),
    "agcode.build_s": ("s", "lower"),
    "agcode.build_calls": ("count", "lower"),
    "agcode.cyclic_s": ("s", "lower"),
    "agcode.encode_s": ("s", "lower"),
    **{f"weights.exhaustive.{case}.{metric}": (unit, better)
       for case in EXHAUSTIVE_CASES
       for metric, unit, better in (("s", "s", "lower"), ("msgs_per_s", "1/s", "higher"),
                                    ("cpu_util", "ratio", "higher"))},
    **{f"weights.reduced.{case}.{metric}": (unit, better)
       for case in REDUCED_CASES
       for metric, unit, better in (("s", "s", "lower"), ("codewords_per_s", "1/s", "higher"),
                                    ("cpu_util", "ratio", "higher"))},
    "weights.reduced.small_s": ("s", "lower"),
    "weights.reduced.small_calls": ("count", "lower"),
    "weights.reduced.small_p90_ms": ("ms", "lower"),
    "weights.enum_calls": ("count", "lower"),
    "weights.enum_cache_hit_ratio": ("ratio", "higher"),
    "weights.roots_s": ("s", "lower"),
    "weights.roots_calls": ("count", "lower"),
    "verify.claims": ("count", "higher"),
    "verify.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, from one traced sample."""
    by_key = {(s["run"], s["id"]): s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["run"], s["parent"])].append(s)

    def outermost(pred) -> list[dict]:
        out = []
        for s in spans:
            if not pred(s):
                continue
            parent = s["parent"]
            while parent is not None and not pred(by_key[(s["run"], parent)]):
                parent = by_key[(s["run"], parent)]["parent"]
            if parent is None:
                out.append(s)
        return out

    def time_in(pred) -> float:
        return sum(_dur(s) for s in outermost(pred))

    def self_time(pred) -> float:
        return sum(_dur(s) - sum(_dur(c) for c in children[(s["run"], s["id"])])
                   for s in spans if pred(s))

    def named(*names):
        return lambda s: s["name"] in names

    enums = [s for s in spans if s["name"] == "weights.weight_enumerator"]
    fresh = [s for s in enums if not s["attrs"]["repeat"]]

    def case_of(s: dict) -> str:
        return f"q{s['attrs']['q']}m{s['attrs']['m']}"

    def route_metrics(prefix: str, rate_name: str, method: str, case: str) -> dict:
        sel = [s for s in fresh if s["attrs"]["method"] == method and case_of(s) == case]
        wall = sum(_dur(s) for s in sel)
        wall_jobs = sum(_dur(s) * s["attrs"]["jobs"] for s in sel)
        return {
            f"{prefix}.s": wall,
            f"{prefix}.{rate_name}": sum(s["attrs"]["space"] for s in sel) / wall if wall else 0.0,
            f"{prefix}.cpu_util": sum(s["cpu"] for s in sel) / wall_jobs if wall_jobs else 0.0,
        }

    small = [s for s in fresh
             if s["attrs"]["method"] == "reduced" and s["attrs"]["k"] <= SMALL_MAX_K]
    roots = named("weights.zero_count_via_roots", "weights.roots_of_lacunary")
    out = {
        "gf.field_s": time_in(lambda s: s["layer"] == "gf"),
        "curve.orbits_s": time_in(lambda s: s["layer"] == "curve"),
        "agcode.build_s": time_in(named("agcode.build_code")),
        "agcode.build_calls": sum(1 for s in spans if s["name"] == "agcode.build_code"),
        "agcode.cyclic_s": time_in(named("agcode.check_cyclic")),
        "agcode.encode_s": time_in(named("agcode.encode")),
    }
    for case in EXHAUSTIVE_CASES:
        out.update(route_metrics(f"weights.exhaustive.{case}", "msgs_per_s", "exhaustive", case))
    for case in REDUCED_CASES:
        out.update(route_metrics(f"weights.reduced.{case}", "codewords_per_s", "reduced", case))
    out.update({
        "weights.reduced.small_s": sum(_dur(s) for s in small),
        "weights.reduced.small_calls": len(small),
        "weights.reduced.small_p90_ms": _p90([_dur(s) * 1000.0 for s in small]),
        "weights.enum_calls": len(enums),
        "weights.enum_cache_hit_ratio": (len(enums) - len(fresh)) / len(enums) if enums else 0.0,
        "weights.roots_s": time_in(roots),
        "weights.roots_calls": sum(1 for s in spans if roots(s)),
        "verify.claims": sum(s["attrs"]["claims"] for s in spans
                             if s["name"].startswith("verify.check_")),
        "verify.self_s": self_time(lambda s: s["layer"] == "verify"),
        "cli.self_s": self_time(named("cli.main")),
    })
    return out
