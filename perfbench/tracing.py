"""Traced child process: run one workload command with spans around the
public functions of each hermicode module, then write the spans as JSON
lines.

Run: PYTHONPATH=src python perfbench/tracing.py --spans FILE --run-id ID cli verify --suite all
     PYTHONPATH=src python perfbench/tracing.py --spans FILE --run-id ID catalog --seed 1

The program itself is not changed.  Each traced function is replaced, for
this process only, by a wrapper in every hermicode module that holds it,
so callers that bound the name at import (``verify.weight_enumerator``,
``weights.encode``, ...) reach the wrapper too.  Spans are kept in memory
and written once, when the command has finished.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from hermicode import agcode, cli, curve, gf, verify, weights

# (module, function names) whose calls get a span named "<module>.<function>".
TRACED = (
    (gf, ("field_for_q", "make_field")),
    (curve, ("all_orbit_specs", "orbit_of")),
    (agcode, ("build_code", "check_cyclic", "encode")),
    (weights, ("weight_enumerator", "zero_count_via_roots", "roots_of_lacunary")),
    (verify, ("run_suite", "checks_for", "code_for", "checked_enumerator",
              "claims_to_json", "check_orbit_containment", "check_code_parameters",
              "check_distance_bounds", "check_two_weight", "check_cubic_weights",
              "check_min_weight_characterization", "check_orbit_choice_enumerators")),
    (cli, ("main",)),
)


class Tracer:
    """Spans of one process: name, start, end, CPU time, parent, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # (id(code), method) -> code; holding the code keeps its id unique.
        self.enumerated: dict[tuple[int, str], object] = {}

    def wrap(self, name: str, func):
        layer = name.split(".", 1)[0]
        annotate = _annotator(name)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.process_time() - cpu0
                stack.pop()
                self.spans[span_id] = {
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "layer": layer,
                    "start": start, "end": end, "cpu": cpu, "attrs": {},
                }
            if annotate is not None:
                self.spans[span_id]["attrs"] = annotate(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "hermicode" or k.startswith("hermicode."))]
        for module, names in TRACED:
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _enum_attrs(tracer: Tracer, args, kwargs, result) -> dict:
    code = args[0] if args else kwargs["code"]
    jobs = args[2] if len(args) > 2 else kwargs.get("jobs")
    key = (id(code), result.method)
    repeat = key in tracer.enumerated
    tracer.enumerated[key] = code
    return {
        "q": code.q, "m": code.m, "k": code.k, "space": code.field.order ** code.k,
        "method": result.method,
        "jobs": weights.default_jobs() if jobs is None else max(1, jobs),
        "repeat": repeat,
    }


def _claim_attrs(tracer: Tracer, args, kwargs, result) -> dict:
    return {"claims": len(result) if isinstance(result, list) else 1}


def _annotator(name: str):
    if name == "weights.weight_enumerator":
        return _enum_attrs
    if name.startswith("verify.check_"):
        return _claim_attrs
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one workload command traced")
    parser.add_argument("--spans", required=True, help="JSON-lines output path")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("target", choices=("cli", "catalog"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    tracer = Tracer(opts.run_id)
    tracer.install()
    try:
        if opts.target == "cli":
            return cli.main(opts.args)
        import catalog
        return catalog.main(opts.args)
    finally:
        sys.stdout.flush()
        tracer.write(opts.spans)


if __name__ == "__main__":
    sys.exit(main())
