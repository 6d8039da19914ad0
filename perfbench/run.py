"""hermicode benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload {suite,exhaustive,catalog} \\
        --seed N --seconds S --trace {0,1} [--small]

Run from anywhere; the program is taken from src/ next to this directory.
Every timed sample runs in a fresh interpreter, because field tables,
codes and enumerators are cached per process.  One small variant of the
workload runs first and is discarded, so that compiling .pyc files is
not timed.  Samples then repeat while the next one is expected to end
within S seconds (at least one), and each timing is the median over
them.  Set-up is timed a few times before every sample and once more
after the last, so that its median spans the whole run, as the samples'
medians do.

--trace 0 reports the end-to-end metrics of untraced samples.
--trace 1 alternates untraced and traced samples (tracing.py) and reports
the per-layer metrics of layers.py, medians over the traced samples.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give each metric
with its unit and sample count, the error rate, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from workloads import WORKLOADS, Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_REPS = 4  # set-up probes before each sample and after the last
CHILD_TIMEOUT_S = 170.0
# Worker threads for numpy's own BLAS pools; hermicode's --jobs is explicit.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBE = (
    "import sys, numpy, hermicode\n"
    "from hermicode.gf import field_for_q\n"
    "for q in sys.argv[1:]:\n"
    "    field_for_q(int(q))\n"
    "print(numpy.__version__)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


@dataclass
class Sample:
    procs: list[Proc]
    error: str | None
    spans: list[dict]

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HERMICODE_JOBS", None)
    # The warm-up writes .pyc files so that no timed sample compiles.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in THREAD_ENV})
    return env


def spawn(argv: list[str], workdir: Path) -> Proc:
    """Run one child to completion; wall time spans process start to exit."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, out_path.read_bytes(), err_path.read_bytes())


def command_argv(cmd: Command, spans: Path | None, run_id: str) -> list[str]:
    if spans is not None:
        return [str(HERE / "tracing.py"), "--spans", str(spans), "--run-id", run_id,
                cmd.target, *cmd.args]
    if cmd.target == "cli":
        return ["-m", "hermicode.cli", *cmd.args]
    return [str(HERE / "catalog.py"), *cmd.args]


def run_sample(workload: Workload, seed: int, small: bool, workdir: Path,
               traced: bool, run_id: str) -> Sample:
    procs, spans = [], []
    for j, cmd in enumerate(workload.commands(seed, small)):
        span_path = workdir / f"spans-{j}.jsonl" if traced else None
        proc = spawn(command_argv(cmd, span_path, f"{run_id}.{j}"), workdir)
        procs.append(proc)
        if span_path is not None and span_path.exists():
            spans += layers.load_spans(span_path)
    error = workload.check([(p.code, p.stdout) for p in procs], small)
    if error is not None:
        tail = procs[-1].stderr.decode(errors="replace").strip().splitlines()[-5:]
        print(f"sample {run_id} failed: {error}", *tail, sep="\n  ", file=sys.stderr)
    return Sample(procs, error, spans)


def measure_setup(workload: Workload, workdir: Path, walls: list[float]) -> str:
    """Fresh-process time to import hermicode and build the workload's fields.

    Appends SETUP_REPS timings to walls and returns numpy's version."""
    version = ""
    for _ in range(SETUP_REPS):
        proc = spawn(["-c", SETUP_PROBE, *map(str, workload.qs)], workdir)
        if proc.code != 0:
            raise BenchError("cannot import hermicode from src/: "
                             + proc.stderr.decode(errors="replace").strip()[-400:])
        walls.append(proc.wall)
        version = proc.stdout.decode().strip()
    return version


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
              small: bool, workdir: Path) -> tuple[list[str], dict]:
    run_sample(workload, seed, True, workdir, traced=False, run_id="warmup")

    setup_walls: list[float] = []
    untraced: list[Sample] = []
    traced: list[Sample] = []
    start = time.perf_counter()
    while True:
        i = len(untraced)
        round_start = time.perf_counter()
        measure_setup(workload, workdir, setup_walls)
        untraced.append(run_sample(workload, seed, small, workdir, False, f"{seed}-{i}"))
        if trace:
            traced.append(run_sample(workload, seed, small, workdir, True, f"{seed}-{i}t"))
        # Stop before a round that would end past the measuring time.
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    numpy_version = measure_setup(workload, workdir, setup_walls)

    samples = untraced + traced
    failed = sum(1 for s in samples if s.error is not None)
    med = statistics.median
    lines = []
    if trace:
        per_sample = [layers.layer_metrics(s.spans) for s in traced]
        series = {name: [m[name] for m in per_sample] for name in per_sample[0]}
        values = {name: med(v) for name, v in series.items()}
        values["trace.overhead_s"] = med(s.wall for s in traced) - med(s.wall for s in untraced)
        series["trace.overhead_s"] = [t.wall - u.wall for t, u in zip(traced, untraced)]
        units = {name: layers.PER_LAYER[name][0] for name in layers.PER_LAYER}
    else:
        series = {
            "wall_s": [s.wall for s in untraced],
            "cpu_s": [s.cpu for s in untraced],
            "peak_rss_mb": [s.rss_mb for s in untraced],
            "setup_s": setup_walls,
        }
        values = {name: med(v) for name, v in series.items()}
        units = END_TO_END
    for name, unit in units.items():
        each = ", ".join(f"{v:.4g}" for v in series[name])
        lines.append(f"{name:40s} {values[name]:14.6f} {unit:6s} "
                     f"median of {len(series[name])}: {each}")
    lines.append(f"{'error_rate':40s} {failed / len(samples):14.6f} {'ratio':6s} "
                 f"{failed} of {len(samples)} samples failed")
    env = {
        "workload": workload.name, "seed": seed, "small": small, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "commit": git_commit(),
    }
    lines.append("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hermicode benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="run the small variant of the workload (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hermicode" / "__init__.py").is_file():
        print("error: no hermicode sources in src/ next to the benchmark", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        lines, result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), args.small, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(*lines, sep="\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
