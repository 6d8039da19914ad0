"""The `catalog` workload: every code of the catalog, built, checked and sampled.

For each q, each stabilizer orbit and each m in [2, q-1] it builds the
code and checks that it is cyclic.  Codes of dimension k <= 4 get a
reduced-route weight enumerator, which must agree across orbits.  Four
random messages per code are encoded, and each weight must equal n minus
the zero count from the roots of the orbit polynomial.

The seed chooses the messages and the order in which (q, orbit, m) are
visited.  The summary printed on stdout does not depend on the seed, so
it is compared byte for byte with a stored reference.

Run: PYTHONPATH=src python perfbench/catalog.py --seed 1 [--qs 3,4]

Library functions are looked up as module attributes at call time so
that the traced run (tracing.py) sees every call.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from hermicode import agcode, curve, gf, weights

QS = (3, 4, 5, 7, 8, 9)
MESSAGES_PER_CODE = 4
ENUM_MAX_K = 4
JOBS = 2


def run(seed: int, qs: tuple[int, ...]) -> dict:
    rng = random.Random(seed)
    specs = {q: curve.all_orbit_specs(gf.field_for_q(q)) for q in qs}
    cases = [(q, i, m) for q in qs for i in range(len(specs[q])) for m in range(2, q)]
    rng.shuffle(cases)

    enumerators: dict[str, dict[str, int]] = {}
    cyclic_failures = enumerated = orbit_mismatches = root_checks = root_mismatches = 0
    for q, orbit, m in cases:
        fld = gf.field_for_q(q)
        code = agcode.build_code(fld, m, specs[q][orbit])
        if not agcode.check_cyclic(code):
            cyclic_failures += 1
        if code.k <= ENUM_MAX_K:
            enum = weights.weight_enumerator(code, "reduced", jobs=JOBS)
            enumerated += 1
            counts = {str(w): c for w, c in enum.counts.items()}
            key = f"q{q}m{m}"
            if enumerators.setdefault(key, counts) != counts:
                orbit_mismatches += 1
        for _ in range(MESSAGES_PER_CODE):
            msg = [rng.randrange(fld.order) for _ in range(code.k)]
            weight = agcode.encode(code, msg).weight
            zeros = weights.zero_count_via_roots(code, msg)
            root_checks += 1
            if weight != code.n - zeros:
                root_mismatches += 1
    return {
        "codes": len(cases),
        "cyclic_failures": cyclic_failures,
        "enumerated": enumerated,
        "enumerators": enumerators,
        "orbit_mismatches": orbit_mismatches,
        "root_checks": root_checks,
        "root_mismatches": root_mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--qs", default=",".join(map(str, QS)),
                        help="comma-separated q values (default: all)")
    args = parser.parse_args(argv)
    qs = tuple(int(q) for q in args.qs.split(","))
    summary = run(args.seed, qs)
    sys.stdout.write(json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
