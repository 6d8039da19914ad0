"""The benchmark's workloads: the commands of one sample, the field orders
each touches, and the check of a sample's outputs against the references
in ref/, which were taken from the program's own output.

Each workload has a small variant with the same checks, which the
self-test runs and which every benchmark run uses as its discarded
warm-up (it compiles the same modules).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REF = Path(__file__).resolve().parent / "ref"


@dataclass(frozen=True)
class Command:
    """One child process: the hermicode CLI or the catalog program."""

    target: str  # "cli" or "catalog"
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    qs: tuple[int, ...]  # every q whose field tables the workload builds
    commands: Callable[[int, bool], list[Command]]  # (seed, small) -> commands
    check: Callable[[list[tuple[int, bytes]], bool], str | None]  # -> error or None


# -- suite: `hermicode verify --suite all` -------------------------------------

SUITE_EXIT = 0


def _suite_commands(seed: int, small: bool) -> list[Command]:
    scope = ("--q", "4") if small else ("--suite", "all")
    return [Command("cli", ("verify", *scope, "--jobs", "2"))]


def _suite_check(outputs, small: bool) -> str | None:
    [(code, stdout)] = outputs
    if code != SUITE_EXIT:
        return f"verify exited {code}, expected {SUITE_EXIT}"
    ref = (REF / ("suite_small.json" if small else "suite.json")).read_bytes()
    if stdout != ref:
        return "verify output differs from the reference claims"
    return None


# -- exhaustive: single-threaded exhaustive enumeration ------------------------

EXHAUSTIVE_CASES = ((8, 3), (9, 3))
EXHAUSTIVE_SMALL_CASES = ((4, 3), (5, 3))


def _exhaustive_cases(small: bool):
    return EXHAUSTIVE_SMALL_CASES if small else EXHAUSTIVE_CASES


def _exhaustive_commands(seed: int, small: bool) -> list[Command]:
    return [Command("cli", ("weights", "--q", str(q), "--m", str(m),
                            "--method", "exhaustive", "--jobs", "1"))
            for q, m in _exhaustive_cases(small)]


def _exhaustive_check(outputs, small: bool) -> str | None:
    ref = json.loads((REF / "exhaustive.json").read_text(encoding="utf-8"))
    for (q, m), (code, stdout) in zip(_exhaustive_cases(small), outputs, strict=True):
        if code != 0:
            return f"weights q={q} m={m} exited {code}"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"weights q={q} m={m} printed no JSON"
        k = m * (m - 1) // 2 + 1
        counts = payload.get("counts")
        if counts != ref[f"q{q}m{m}"]:
            return f"weights q={q} m={m}: counts differ from the reference"
        if payload.get("k") != k or sum(counts.values()) != (q * q) ** k:
            return f"weights q={q} m={m}: total is not Q^k"
        if payload.get("method") != "exhaustive":
            return f"weights q={q} m={m}: method {payload.get('method')!r}"
    return None


# -- catalog: every code, built, checked and sampled ---------------------------


def _catalog_commands(seed: int, small: bool) -> list[Command]:
    scope = ("--qs", "3,4") if small else ()
    return [Command("catalog", ("--seed", str(seed), *scope))]


def _catalog_check(outputs, small: bool) -> str | None:
    [(code, stdout)] = outputs
    if code != 0:
        return f"catalog exited {code}"
    ref = (REF / ("catalog_small.json" if small else "catalog.json")).read_bytes()
    if stdout != ref:
        return "catalog summary differs from the reference"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite", (3, 4, 5, 7, 8), _suite_commands, _suite_check),
        Workload("exhaustive", (8, 9), _exhaustive_commands, _exhaustive_check),
        Workload("catalog", (3, 4, 5, 7, 8, 9), _catalog_commands, _catalog_check),
    )
}
