"""Command-line surface: schemas, formats, exit codes, determinism."""

import io
import contextlib
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hermicode import cli, verify, weights

REF = Path(__file__).parent / "ref"
SRC = Path(cli.__file__).resolve().parents[1]
REPORT_REF = REF / "report.json"


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, buf.getvalue(), err.getvalue()


def test_points_json():
    rc, out, _ = run_cli(["points", "--q", "3"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["q"] == 3 and payload["p"] == 3 and payload["k_ext"] == 1
    assert len(payload["curve_points"]) == 28
    assert len(payload["chord"]) == 4
    assert len(payload["orbit"]["points"]) == 8
    assert payload["orbit"]["tau"] != 0


def test_points_csv():
    rc, out, _ = run_cli(["points", "--q", "3", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "section,x1,x2,x3"
    assert len(lines) == 1 + 28 + 4 + 8


def test_build_json_schema():
    rc, out, _ = run_cli(["build", "--q", "3", "--m", "2"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 8 and payload["k"] == 2
    assert set(payload) == {
        "q", "p", "k_ext", "m", "n", "k", "irreducible", "omega",
        "base_point", "tau", "rows",
    }
    assert len(payload["rows"]) == 2 and len(payload["rows"][0]) == 8


def test_build_csv():
    rc, out, _ = run_cli(["build", "--q", "3", "--m", "2", "--format", "csv"])
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 2 and all(len(r) == 8 for r in rows)


def test_weights_exhaustive_q5_m3():
    rc, out, _ = run_cli(["weights", "--q", "5", "--m", "3", "--method", "exhaustive"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["counts"]["18"] == 672
    assert payload["method"] == "exhaustive"


def test_weights_csv():
    rc, out, _ = run_cli(["weights", "--q", "3", "--m", "2", "--format", "csv"])
    assert rc == 0
    assert out == "weight,count\n0,1\n6,32\n8,48\n"


def test_weights_determinism_across_jobs():
    rc1, out1, _ = run_cli(["weights", "--q", "4", "--m", "3", "--jobs", "1"])
    rc2, out2, _ = run_cli(["weights", "--q", "4", "--m", "3", "--jobs", "4"])
    assert rc1 == rc2 == 0
    strip = lambda s: {k: v for k, v in json.loads(s).items() if k != "elapsed_ms"}
    assert strip(out1) == strip(out2)


def test_verify_single_pair():
    rc, out, _ = run_cli(["verify", "--q", "3", "--m", "2"])
    assert rc == 0
    claims = json.loads(out)
    assert all(c["status"] in ("pass", "skipped(hypothesis)", "paper-inconsistent")
               for c in claims)


def test_verify_csv():
    rc, out, _ = run_cli(["verify", "--q", "3", "--m", "2", "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[0] == "claim_id,q,m,status,expected,observed"


def test_verify_needs_target():
    rc, _, err = run_cli(["verify"])
    assert rc == 2
    assert "error" in err


def test_usage_errors_exit_2():
    assert run_cli(["build", "--q", "3", "--m", "5"])[0] == 2
    assert run_cli(["build", "--q", "6", "--m", "2"])[0] == 2  # unsupported q
    assert run_cli(["nonsense"])[0] == 2


@pytest.mark.parametrize("command", ["build", "weights", "verify"])
@pytest.mark.parametrize("m", [0, 1, 4])
def test_m_out_of_range_is_a_usage_error(command, m):
    rc, out, err = run_cli([command, "--q", "4", "--m", str(m)])
    assert rc == 2 and out == ""
    assert err == f"error: m={m} out of range [2, 3] for q=4\n"


@pytest.mark.parametrize("extra", [["--q", "4"], ["--m", "9"], ["--q", "4", "--m", "9"]])
def test_suite_all_with_q_or_m_is_a_usage_error(extra):
    # The suite used to run whole and ignore them.
    rc, out, err = run_cli(["verify", "--suite", "all"] + extra)
    assert rc == 2 and out == ""
    assert err == "error: --suite all takes neither --q nor --m\n"


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(q, m):
        raise ValueError("internal fault")

    monkeypatch.setattr(verify, "code_for", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["build", "--q", "3", "--m", "2"])


def test_size_guard_exit_3():
    # (5, 4), at 2.5e8 words, is the largest code the exhaustive guard
    # admits; (7, 4) needs 1.4e10.
    rc, out, err = run_cli(["weights", "--q", "7", "--m", "4", "--method", "exhaustive"])
    assert rc == 3 and out == ""
    assert "guard" in err


def test_auto_weights_are_cross_checked():
    # 49^4 messages: both routes run, and the exhaustive one is reported.
    rc, out, _ = run_cli(["weights", "--q", "7", "--m", "3"])
    assert rc == 0
    assert '"method":"exhaustive"' in out


@pytest.mark.parametrize("m", [4, 6])
def test_exhaustive_guard_gives_no_advice(m):
    # At q = 7 the reduced route refuses m = 6 too, so the exhaustive
    # guard's message must not send the user there.
    rc, _, err = run_cli(["weights", "--q", "7", "--m", str(m), "--method", "exhaustive"])
    assert rc == 3
    assert "exhaustive guard" in err
    assert "use the reduced method" not in err


@pytest.mark.parametrize("command", [["weights", "--q", "3", "--m", "2"],
                                     ["verify", "--q", "3", "--m", "2"], ["report"]])
@pytest.mark.parametrize("jobs", ["0", "-1", "2x", "auto", "1.5"])
def test_jobs_must_be_a_positive_integer(command, jobs):
    rc, out, err = run_cli(command + ["--jobs", jobs])
    assert rc == 2 and out == ""
    assert "positive integer" in err


def test_method_choices_are_the_enumeration_methods():
    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    method = next(a for a in subcommands.choices["weights"]._actions if a.dest == "method")
    assert method.choices == weights.METHODS
    assert method.default in weights.METHODS


@pytest.mark.parametrize("method", ["reduced", "auto"])
def test_reduced_route_refuses_large_codes_with_its_own_guard(method):
    # k = 16 at q = 7, m = 6: the reduced guard refuses the code, and no
    # exhaustive fallback runs into the exhaustive guard.
    rc, _, err = run_cli(["weights", "--q", "7", "--m", "6", "--method", method])
    assert rc == 3
    assert "representatives" in err
    assert "use the reduced method" not in err


@pytest.mark.parametrize("q", [9])
def test_reduced_route_refuses_m4_above_q5(q):
    # The smallest code past the representatives guard: 9.7e8 words after
    # the Frobenius cut.  (7, 4) and (8, 4) pass it and are left out of the
    # tests for their 2 s each.
    rc, out, err = run_cli(["weights", "--q", str(q), "--m", "4", "--method", "reduced"])
    assert rc == 3 and out == ""
    assert "representatives" in err


def test_out_writes_file(tmp_path):
    target = tmp_path / "gen.json"
    rc, out, _ = run_cli(["build", "--q", "3", "--m", "2", "--out", str(target)])
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 8


def _without_elapsed(text):
    return {k: v for k, v in json.loads(text).items() if k != "elapsed_ms"}


@pytest.mark.parametrize("command", [["points", "--q", "3"], ["build", "--q", "4", "--m", "3"],
                                     ["weights", "--q", "4", "--m", "3"],
                                     ["verify", "--q", "4", "--m", "3"], ["report"]])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_writes_the_bytes_of_stdout(tmp_path, command, fmt):
    target = tmp_path / "out"
    argv = command + ["--format", fmt]
    rc1, stdout, _ = run_cli(argv)
    rc2, nothing, _ = run_cli(argv + ["--out", str(target)])
    assert rc1 == rc2 == 0 and nothing == ""
    written = target.read_bytes()
    if command[0] == "weights" and fmt == "json":
        # elapsed_ms is the one field that differs between two runs.
        assert _without_elapsed(written) == _without_elapsed(stdout)
    else:
        assert written == stdout.encode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failed_out_write_is_a_usage_error(tmp_path, fmt):
    # It used to end in a FileNotFoundError traceback with exit 1, the
    # code of a failed claim.
    target = tmp_path / "missing" / "x.json"
    rc, out, err = run_cli(["build", "--q", "3", "--m", "2", "--format", fmt,
                            "--out", str(target)])
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot write --out: ") and str(target) in err
    assert not target.parent.exists()


def test_only_the_requested_format_is_rendered(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "claims_to_json", lambda claims: calls.append(claims) or "[]\n")
    rc, out, _ = run_cli(["verify", "--q", "3", "--m", "2", "--format", "csv"])
    assert rc == 0 and out.startswith("claim_id,") and calls == []
    rc, out, _ = run_cli(["verify", "--q", "3", "--m", "2"])
    assert rc == 0 and out == "[]\n" and len(calls) == 1


def test_report_csv_is_the_suite_csv():
    rc1, report, _ = run_cli(["report", "--format", "csv", "--jobs", "1"])
    rc2, suite, _ = run_cli(["verify", "--suite", "all", "--format", "csv", "--jobs", "2"])
    assert rc1 == rc2 == 0
    assert report == suite and report.startswith("claim_id,q,m,status,expected,observed\n")


def test_report_is_byte_identical_across_jobs():
    rc1, out1, _ = run_cli(["report", "--suite", "all", "--jobs", "1"])
    rc2, out2, _ = run_cli(["report", "--suite", "all", "--jobs", "8"])
    assert rc1 == rc2 == 0
    assert out1.encode() == out2.encode()
    payload = json.loads(out1)
    assert payload["qs"] == [3, 4, 5, 7, 8]
    by_q = {row["q"]: row for row in payload["two_weight"]}
    assert by_q[3]["counts"] == {"0": 1, "6": 32, "8": 48}
    cubic = {row["q"]: row for row in payload["cubic"]}
    assert cubic[8]["min_count"] == 441
    assert cubic[8]["second_count"] == 567
    assert cubic[5]["second_weight"] == 19
    assert cubic[7]["second_count"] == 4992


def test_verify_suite_all_exit_zero():
    rc, out, _ = run_cli(["verify", "--suite", "all"])
    assert rc == 0
    claims = json.loads(out)
    assert len(claims) > 50
    assert not [c for c in claims if c["status"] == "fail"]


def test_report_equals_the_reference():
    rc, out, _ = run_cli(["report", "--suite", "all", "--jobs", "1"])
    assert rc == 0
    assert out.encode() == REPORT_REF.read_bytes()


# Both extension fields, p = 2 and odd p, and the largest generators.
@pytest.mark.parametrize("argv, name", [
    (["points", "--q", "8"], "points_q8.json"),
    (["points", "--q", "9"], "points_q9.json"),
    (["build", "--q", "8", "--m", "7"], "build_q8_m7.json"),
    (["build", "--q", "9", "--m", "8"], "build_q9_m8.json"),
])
def test_points_and_build_equal_the_reference(argv, name):
    rc, out, _ = run_cli(argv)
    assert rc == 0
    assert out.encode() == (REF / name).read_bytes()


def run_python(args, cwd):
    """A fresh interpreter that imports hermicode from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=60)


def run_entry(argv, cwd):
    """The process entry, ``python -m hermicode.cli``."""
    return run_python(["-m", "hermicode.cli", *argv], cwd)


def test_entry_prints_the_bytes_of_main(tmp_path):
    argv = ["verify", "--q", "3", "--format", "csv"]
    proc = run_entry(argv, tmp_path)
    rc, out, _ = run_cli(argv)
    assert proc.returncode == rc == 0 and proc.stderr == b""
    assert proc.stdout == out.encode()

    argv = ["build", "--q", "3", "--m", "2", "--out"]
    proc = run_entry(argv + ["entry.json"], tmp_path)
    rc, out, _ = run_cli(argv + [str(tmp_path / "main.json")])
    assert proc.returncode == rc == 0 and proc.stdout == proc.stderr == b"" and out == ""
    assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "main.json").read_bytes()

    argv = ["weights", "--q", "4", "--m", "3", "--method", "exhaustive"]
    proc = run_entry(argv, tmp_path)
    rc, out, _ = run_cli(argv)
    assert proc.returncode == rc == 0 and proc.stderr == b""
    assert _without_elapsed(proc.stdout) == _without_elapsed(out)


@pytest.mark.parametrize("argv, status", [
    (["weights", "--q", "9", "--m", "9"], 2),
    (["weights", "--q", "7", "--m", "5", "--method", "exhaustive"], 3),
])
def test_entry_exits_with_the_status_of_main(tmp_path, argv, status):
    proc = run_entry(argv, tmp_path)
    assert proc.returncode == status and proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


def test_library_and_main_never_freeze(tmp_path):
    # A fresh interpreter starts with nothing frozen.
    code = ("import gc; from hermicode import cli; "
            "status = cli.main(['verify', '--q', '3', '--out', 'v.json']); "
            "print(status, gc.get_freeze_count())")
    proc = run_python(["-c", code], tmp_path)
    assert proc.stdout == b"0 0\n" and proc.stderr == b""


def test_console_main_freezes_after_main_returns(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 1)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exit_:
        cli.console_main()
    assert exit_.value.code == 1 and calls == ["main", "freeze"]


def test_console_main_does_not_freeze_when_main_raises(monkeypatch):
    calls = []

    def broken():
        raise RuntimeError("internal fault")

    monkeypatch.setattr(cli, "main", broken)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(RuntimeError, match="internal fault"):
        cli.console_main()
    assert calls == []
