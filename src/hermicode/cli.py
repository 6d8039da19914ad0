"""Command-line surface: point listings, generator matrices, weight
enumerators, claim verification, and the consolidated report.

All JSON output is canonical (sorted keys, compact separators) so that
identical configurations produce byte-identical files; the only
non-canonical field is elapsed_ms in the weights payload, which is
informational and excluded from determinism comparisons.

Exit codes: 0 success, 1 failed claim, 2 usage error, 3 size guard.
Any other error is a fault of the program and ends with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify, weights
from .curve import HermitianCurve, canonical_orbit_spec, orbit_of
from .gf import SUPPORTED_Q, field_for_q

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIZE_GUARD = 3


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _add_common(sub, need_m: bool) -> None:
    sub.add_argument("--q", type=int, required=True, choices=sorted(SUPPORTED_Q))
    if need_m:
        sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _check_m(q: int, m: int) -> None:
    if not 2 <= m <= q - 1:
        raise _Usage(f"m={m} out of range [2, {q - 1}] for q={q}")


class _Usage(Exception):
    pass


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _cmd_points(args) -> int:
    fld = field_for_q(args.q)
    curve = HermitianCurve(fld)
    spec = canonical_orbit_spec(fld)
    sections = {
        "curve": curve.enumerate_points(),
        "chord": curve.chord_points(),
        "orbit": orbit_of(spec),
    }
    if args.format == "json":
        payload = {
            "q": args.q,
            "p": fld.p,
            "k_ext": fld.k,
            "irreducible": list(fld.irreducible),
            "omega": fld.omega,
            "curve_points": [list(pt) for pt in sections["curve"]],
            "chord": [list(pt) for pt in sections["chord"]],
            "orbit": {
                "u": spec.u,
                "v": spec.v,
                "tau": spec.tau,
                "points": [list(pt) for pt in sections["orbit"]],
            },
        }
        _emit(_canonical_json(payload), args.out)
    else:
        lines = ["section,x1,x2,x3"]
        for name in ("curve", "chord", "orbit"):
            lines += [f"{name},{p[0]},{p[1]},{p[2]}" for p in sections[name]]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_build(args) -> int:
    _check_m(args.q, args.m)
    code = verify.code_for(args.q, args.m)
    if args.format == "json":
        _emit(_canonical_json(code.export_dict()), args.out)
    else:
        _emit("\n".join(",".join(str(x) for x in row) for row in code.rows()) + "\n", args.out)
    return EXIT_OK


def _cmd_weights(args) -> int:
    _check_m(args.q, args.m)
    code = verify.code_for(args.q, args.m)
    enum = weights.weight_enumerator(code, args.method, args.jobs)
    if args.format == "json":
        _emit(_canonical_json(enum.to_dict()), args.out)
    else:
        lines = ["weight,count"] + [f"{w},{c}" for w, c in enum.counts.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _claims_csv(claims) -> str:
    lines = ["claim_id,q,m,status,expected,observed"]
    for c in claims:
        q = c.params.get("q", "")
        m = c.params.get("m", "")
        exp = json.dumps(c.expected, sort_keys=True).replace(",", ";")
        obs = json.dumps(c.observed, sort_keys=True).replace(",", ";")
        lines.append(f"{c.claim_id},{q},{m},{c.status},{exp},{obs}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    if args.suite == "all":
        claims = verify.run_suite(jobs=args.jobs)
    elif args.q is not None:
        if args.m is not None:
            _check_m(args.q, args.m)
        claims = verify.checks_for(args.q, args.m, jobs=args.jobs)
    else:
        raise _Usage("verify needs --q (with optional --m) or --suite all")
    if args.format == "json":
        _emit(verify.claims_to_json(claims), args.out)
    else:
        _emit(_claims_csv(claims), args.out)
    return verify.exit_status(claims)


def _cmd_report(args) -> int:
    claims = verify.run_suite(jobs=args.jobs)
    two_weight = []
    for q in verify.SUITE_QS:
        enum = verify.checked_enumerator(verify.code_for(q, 2), args.jobs)
        two_weight.append({
            "q": q,
            "n": enum.n,
            "k": enum.k,
            "d": enum.min_distance,
            "counts": {str(w): c for w, c in enum.counts.items()},
        })
    cubic = []
    for q in verify.SUITE_QS:
        if q < 4:
            continue
        enum = verify.checked_enumerator(verify.code_for(q, 3), args.jobs)
        nz = enum.nonzero_weights()
        cubic.append({
            "q": q,
            "n": enum.n,
            "k": enum.k,
            "d": enum.min_distance,
            "min_count": enum.count(enum.min_distance),
            "second_weight": nz[1],
            "second_count": enum.count(nz[1]),
            "third_weight": nz[2],
            "distinct_nonzero_weights": len(nz),
        })
    payload = {
        "qs": list(verify.SUITE_QS),
        "two_weight": two_weight,
        "cubic": cubic,
        "claims": [c.to_dict() for c in claims],
    }
    if args.format == "json":
        _emit(_canonical_json(payload), args.out)
    else:
        _emit(_claims_csv(claims), args.out)
    return verify.exit_status(claims)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermicode",
        description="cyclic evaluation codes on Hermitian curves: build, "
                    "enumerate weights, verify claims",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_points = subs.add_parser("points", help="curve, chord and orbit point listings")
    _add_common(p_points, need_m=False)

    p_build = subs.add_parser("build", help="generator matrix of the code")
    _add_common(p_build, need_m=True)

    p_weights = subs.add_parser("weights", help="exact weight enumerator")
    _add_common(p_weights, need_m=True)
    p_weights.add_argument("--method", choices=("auto", "exhaustive", "reduced"),
                           default="auto")
    p_weights.add_argument("--jobs", type=_positive_int, default=None,
                           help="worker threads (default: HERMICODE_JOBS or 1)")

    p_verify = subs.add_parser("verify", help="run claim checks")
    p_verify.add_argument("--q", type=int, choices=sorted(SUPPORTED_Q))
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--suite", choices=("all",), default=None)
    p_verify.add_argument("--jobs", type=_positive_int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")

    p_report = subs.add_parser("report", help="consolidated weight-distribution report")
    p_report.add_argument("--suite", choices=("all",), default="all")
    p_report.add_argument("--jobs", type=_positive_int, default=None)
    p_report.add_argument("--out", default=None)
    p_report.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


_COMMANDS = {
    "points": _cmd_points,
    "build": _cmd_build,
    "weights": _cmd_weights,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "jobs", 1) is None:
            try:
                args.jobs = weights.default_jobs()
            except ValueError as exc:
                raise _Usage(exc) from None
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except weights.SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
