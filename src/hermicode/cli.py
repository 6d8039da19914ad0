"""Command-line surface: point listings, generator matrices, weight
enumerators, claim verification, and the consolidated report.

Each command returns (status, JSON, CSV lines), the JSON as a function;
``main`` renders only the requested format and writes it to stdout or --out.

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
from functools import partial
from itertools import chain

from . import verify, weights
from .curve import HermitianCurve, canonical_orbit_spec, orbit_of
from .gf import SUPPORTED_Q, field_for_q

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIZE_GUARD = 3


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class _Usage(Exception):
    pass


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _checked_m(args) -> int | None:
    if args.m is not None and not 2 <= args.m <= args.q - 1:
        raise _Usage(f"m={args.m} out of range [2, {args.q - 1}] for q={args.q}")
    return args.m


def _cmd_points(args):
    fld = field_for_q(args.q)
    curve = HermitianCurve(fld)
    spec = canonical_orbit_spec(fld)
    sections = {
        "curve": curve.enumerate_points(),
        "chord": curve.chord_points(),
        "orbit": orbit_of(spec),
    }
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
    lines = (f"{name},{p[0]},{p[1]},{p[2]}" for name, pts in sections.items() for p in pts)
    return EXIT_OK, partial(_canonical_json, payload), chain(["section,x1,x2,x3"], lines)


def _cmd_build(args):
    code = verify.code_for(args.q, _checked_m(args))
    lines = (",".join(str(x) for x in row) for row in code.rows())
    return EXIT_OK, partial(_canonical_json, code.export_dict()), lines


def _cmd_weights(args):
    code = verify.code_for(args.q, _checked_m(args))
    enum = weights.weight_enumerator(code, args.method, args.jobs)
    lines = (f"{w},{c}" for w, c in enum.counts.items())
    return EXIT_OK, partial(_canonical_json, enum.to_dict()), chain(["weight,count"], lines)


def _cmd_verify(args):
    """The claims of the suite or of --q [--m]; report's JSON adds the tables."""
    def cell(value) -> str:
        return json.dumps(value, sort_keys=True).replace(",", ";")

    if args.suite is None and args.q is None:
        raise _Usage("verify needs --q (with optional --m) or --suite all")
    if args.suite and (args.q is not None or args.m is not None):
        raise _Usage("--suite all takes neither --q nor --m")
    claims = (verify.run_suite(jobs=args.jobs) if args.suite
              else verify.checks_for(args.q, _checked_m(args), jobs=args.jobs))
    lines = (f"{c.claim_id},{c.params.get('q', '')},{c.params.get('m', '')},{c.status},"
             f"{cell(c.expected)},{cell(c.observed)}" for c in claims)
    lines = chain(["claim_id,q,m,status,expected,observed"], lines)
    if args.command == "report":
        return verify.exit_status(claims), partial(_report_json, claims, args.jobs), lines
    return verify.exit_status(claims), partial(verify.claims_to_json, claims), lines


def _report_json(claims, jobs: int) -> str:
    enums = [verify.checked_enumerator(verify.code_for(q, 2), jobs) for q in verify.SUITE_QS]
    two_weight = [{
        "q": enum.q,
        "n": enum.n,
        "k": enum.k,
        "d": enum.min_distance,
        "counts": {str(w): c for w, c in enum.counts.items()},
    } for enum in enums]
    cubics = [verify.checked_enumerator(verify.code_for(q, 3), jobs)
              for q in verify.SUITE_QS if q >= 4]
    cubic = [{"q": enum.q, "n": enum.n, "k": enum.k, **verify.cubic_facts(enum)}
             for enum in cubics]
    return _canonical_json({
        "qs": list(verify.SUITE_QS),
        "two_weight": two_weight,
        "cubic": cubic,
        "claims": [c.to_dict() for c in claims],
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermicode",
        description="cyclic evaluation codes on Hermitian curves: build, "
                    "enumerate weights, verify claims",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # Every option, declared once; each subcommand names the ones it takes.
    declared = {
        "--q": dict(type=int, choices=sorted(SUPPORTED_Q)),
        "--m": dict(type=int),
        "--suite": dict(choices=("all",)),
        "--method": dict(choices=weights.METHODS, default="auto"),
        "--jobs": dict(type=_positive_int, default=1, help="worker threads (default 1)"),
        "--out": dict(help="output path (default stdout)"),
        "--format": dict(choices=("json", "csv"), default="json"),
    }

    def command(name, func, help, options, required=("--q", "--m"), **defaults):
        """Subcommand ``name`` taking ``options`` in order and running ``func``."""
        sub = subs.add_parser(name, help=help)
        for flag in options:
            sub.add_argument(flag, required=flag in required, **declared[flag])
        sub.set_defaults(func=func, **defaults)

    command("points", _cmd_points, "curve, chord and orbit point listings",
            ("--q", "--out", "--format"))
    command("build", _cmd_build, "generator matrix of the code",
            ("--q", "--m", "--out", "--format"))
    command("weights", _cmd_weights, "exact weight enumerator",
            ("--q", "--m", "--out", "--format", "--method", "--jobs"))
    command("verify", _cmd_verify, "run claim checks",
            ("--q", "--m", "--suite", "--jobs", "--out", "--format"), required=())
    command("report", _cmd_verify, "consolidated weight-distribution report",
            ("--suite", "--jobs", "--out", "--format"), suite="all", q=None, m=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        status, to_json, lines = args.func(args)
        text = to_json() if args.format == "json" else "\n".join(lines) + "\n"
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise _Usage(f"cannot write --out: {exc}") from None
        else:
            sys.stdout.write(text)
        return status
    except (_Usage, weights.SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, _Usage) else EXIT_SIZE_GUARD


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
