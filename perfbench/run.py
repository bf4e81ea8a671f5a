"""Benchmark of the `simplotope` command line.

    python3 perfbench/run.py --workload bounds-d10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from a source checkout: every job is a fresh `python -m simplotope.cli`
process importing the checkout's `src/`, run one at a time.  With
`--trace 0` the run times the program's start-up (`setup_s`), then repeats
the workload's jobs as whole passes for about `--seconds` (always at least
one pass) and reports the median pass.  With `--trace 1` it runs one
untraced pass and one traced pass (see tracer.py) and reports the per-layer
metrics.  Every job's output is checked; the last line printed is the result
as one JSON object.  Work files and a full result record, with provenance,
go to `.perfbench/` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer
import workloads
from workloads import CERTIFY, REJECT, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
PACKAGE = ROOT / "src" / "simplotope"

HELP_STARTS = 7        # set-up is timed this many times per run; the median is reported
RUN_LIMIT_S = 170.0    # a run must end within 180 s: jobs still running then are killed

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The program could not be started or its inputs could not be written."""


@dataclass
class JobResult:
    job: str
    verdict: str | None
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    failure: str | None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # fixed hashing and single-threaded BLAS keep repeated runs comparable
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd: list[str], env: dict, out_path: Path, deadline: float) -> tuple[int, float, float, float]:
    """Run one process to its end; (exit code, wall s, user+sys s, max RSS MB).

    Standard output goes to out_path; the process is killed at `deadline`.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
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
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_job(job: Job, env: dict, workdir: Path, deadline: float, stats: Path | None = None) -> JobResult:
    if stats is None:
        cmd = [sys.executable, "-m", "simplotope.cli", *job.argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), job.name, str(stats), *job.argv]
    out_path = workdir / f"{job.name}.{'traced' if stats else 'plain'}.out"
    code, wall, cpu, rss = spawn(cmd, env, out_path, deadline)
    stdout = out_path.read_text(errors="replace")
    failure = f"killed by signal {-code} (time limit or memory)" if code < 0 else job.check(code, stdout)
    return JobResult(job.name, job.verdict, code, wall, cpu, rss, stdout, failure)


def run_pass(jobs: list[Job], env: dict, workdir: Path, deadline: float,
             traced: bool = False) -> list[JobResult]:
    return [run_job(job, env, workdir, deadline, workdir / f"{job.name}.stats.json" if traced else None)
            for job in jobs]


def time_setup(env: dict, workdir: Path, deadline: float) -> list[float]:
    """Wall times of fresh `simplotope --help` processes: start-up, imports, argparse."""
    walls = []
    for k in range(HELP_STARTS):
        out_path = workdir / f"help-{k}.out"
        code, wall, _, _ = spawn([sys.executable, "-m", "simplotope.cli", "--help"], env, out_path, deadline)
        if code != 0 or not out_path.read_text().startswith("usage: simplotope"):
            raise SetupError(f"`simplotope --help` exited {code} without its usage text")
        walls.append(wall)
    return walls


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def provenance(seed: int, inputs: list[Path]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            commit = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    src = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "cube_caps_sha256": sha256(PACKAGE / "data" / "cube_caps.txt"),
        "inputs_sha256": {str(p.relative_to(ROOT)): sha256(p) for p in inputs},
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload: its metrics, job counts and full record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    try:
        setup_walls = [] if trace else time_setup(env, workdir, deadline)
        jobs, inputs = workloads.make_jobs(workload, workdir, seed, ROOT, env)
    except (OSError, ValueError, KeyError, RuntimeError, subprocess.SubprocessError) as exc:
        # e.g. `simplotope standard` failed or wrote a file the mutant generator cannot read
        raise SetupError(f"{type(exc).__name__}: {exc}") from exc
    inputs = [PACKAGE / "data" / "cube_caps.txt", *inputs]

    if trace:
        plain = run_pass(jobs, env, workdir, deadline)
        traced = run_pass(jobs, env, workdir, deadline, traced=True)
        for p, t in zip(plain, traced):
            if t.failure is None and (t.code, t.stdout) != (p.code, p.stdout):
                t.failure = "traced output or exit code differs from the untraced job"
        stats = []
        for job in jobs:
            path = workdir / f"{job.name}.stats.json"
            if path.is_file():
                with open(path) as fh:
                    stats.append(json.load(fh))
        values = tracer.per_layer_metrics(stats) if len(stats) == len(jobs) else {}
        values["trace.overhead_ratio"] = sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain)
        values["jobs.certify_s"] = sum(r.wall_s for r in plain if r.verdict == CERTIFY)
        values["jobs.reject_s"] = sum(r.wall_s for r in plain if r.verdict == REJECT)
        passes = [plain, traced]
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
    else:
        passes = []
        measure_end = time.perf_counter() + seconds
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(jobs, env, workdir, deadline))
            now = time.perf_counter()
            if now + (now - pass_start) > min(measure_end, deadline):
                break
        values = {
            "setup_s": statistics.median(setup_walls),
            "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
            "cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in passes),
            "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}

    results = [r for p in passes for r in p]
    record = {
        "workload": workload,
        "trace": int(trace),
        "provenance": provenance(seed, inputs),
        "metrics": metrics,
        "attempted": len(results),
        "failed": sum(r.failure is not None for r in results),
        "setup_walls_s": setup_walls,
        "passes": [[{k: v for k, v in asdict(r).items() if k != "stdout"} for r in p] for p in passes],
    }
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    with open(results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    """Human-readable lines: every metric with its unit, failures, provenance."""
    failed, attempted = record["failed"], record["attempted"]
    print(f"workload {record['workload']}  trace {record['trace']}  "
          f"passes {len(record['passes'])}  jobs {attempted}")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for p in record["passes"]:
        for r in p:
            if r["failure"]:
                print(f"  FAILED {r['job']}: {r['failure']}")
    print("  provenance " + json.dumps(record["provenance"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the simplotope command line.")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no simplotope sources under {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"error: set-up of {name} failed: {exc}", file=sys.stderr)
            return 2
        report(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
