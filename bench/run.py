#!/usr/bin/env python3
"""Benchmark of the theta4 command line, run from the repository root:

    python3 bench/run.py --workload suite-g3 --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of CLI jobs generated from --seed (see
bench/workloads.py).  One worker process drives `theta4.cli.main` in-process
over the job list again and again, closed loop with a single client and no
worker threads, until --seconds have passed (and at least twice, so that the
byte-identity check has a second run of every job).  Every job's verdict is
checked; a failed job is counted, not fatal.

--trace 0 reports the end-to-end metrics.  setup_s is measured by this
launcher: the time from starting a fresh interpreter until it has imported
theta4 and written the workload's input files, the median of seven starts.
--trace 1 spends half the time untraced and half with every layer wrapped
(bench/tracer.py), checks the traced work counts against their closed forms
and reports the per-layer metrics per pass over the job list.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  fail_share is failed / attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_STARTS = 7
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170
# BLAS threads pinned to one; THETA4_THREADS (run-suite's thread pool) unset
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("job_cpu_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("launcher", "probe", "worker"), default="launcher",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------------ launcher


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "THETA4_THREADS"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, role: str) -> tuple[float, str]:
    """Start a worker or probe; return its set-up time and remaining stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"{role} process failed (exit code {proc.returncode})")
    return setup, rest


def launch(args) -> int:
    if not (SRC / "theta4" / "cli.py").is_file():
        print(f"error: no theta4 sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # half of the extra starts before the worker and half after it, so that
    # the set-up samples span the run rather than one moment of machine load
    probes = (SETUP_STARTS - 1) // 2 if args.trace == 0 else 0
    try:
        setups = [run_child(args, "probe")[0] for _ in range(probes)]
        setup, rest = run_child(args, "worker")
        setups += [setup] + [run_child(args, "probe")[0] for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(rest.strip().splitlines()[-1])
    if args.trace == 0:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics.update(result["metrics"])
        result["metrics"] = metrics
    print(json.dumps(result))
    return 0


# -------------------------------------------------------------------- worker


class Runner:
    """Runs passes over the job list and keeps every job's timing and verdict."""

    def __init__(self, jobs, tracer=None):
        from theta4.cli import main

        self.main = main
        self.jobs = jobs
        self.tracer = tracer
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.next_job = 0

    def run_job(self, job) -> tuple[object, str]:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.job(self.next_job) if self.tracer else contextlib.nullcontext()
        self.next_job += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with span:
                    rc = self.main(job.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback is a failed job, not a failed run
                rc = f"traceback {type(exc).__name__}: {exc}"
        return rc, out.getvalue()

    def run_pass(self) -> tuple[float, list[int]]:
        first = self.next_job
        outcomes = []
        start = time.perf_counter()
        for job in self.jobs:
            c0, t0 = time.process_time(), time.perf_counter()
            rc, stdout = self.run_job(job)
            self.walls.append(time.perf_counter() - t0)
            self.cpus.append(time.process_time() - c0)
            outcomes.append((job, rc, stdout))
        elapsed = time.perf_counter() - start
        for job, rc, stdout in outcomes:
            output = stdout.encode("utf-8")
            if job.out is not None and job.out.is_file():
                output = job.out.read_bytes()
                job.out.unlink()
            reason = workloads.check(job, rc, output)
            digest = hashlib.sha256(output).hexdigest()
            if reason is None and self.digests.setdefault(job.label, digest) != digest:
                reason = "output differs from an earlier run of the same job"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                print(f"job {job.label} failed: {reason}", file=sys.stderr)
        return elapsed, list(range(first, self.next_job))

    def run_for(self, seconds: float, min_passes: int) -> list[tuple[float, list[int]]]:
        """Run at least `min_passes` passes, then stop where the total is closest to `seconds`."""
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < min_passes or (
            time.perf_counter() + statistics.median(p[0] for p in passes) / 2 < deadline
        ):
            passes.append(self.run_pass())
        return passes


def end_to_end(runner: Runner, passes) -> dict[str, float]:
    return {
        "verdict_s": statistics.median(p[0] for p in passes),
        "job_s.p50": statistics.median(runner.walls),
        "job_s.p90": statistics.quantiles(runner.walls, n=10, method="inclusive")[-1],
        "job_cpu_s.p50": statistics.median(runner.cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(jobs, untraced, traced, tracer, dump: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes and the counter self-check."""
    problems = []
    per_pass = [tracer.pass_metrics(ids) for _, ids in traced]
    for p in per_pass[1:]:
        for name in tracing.COUNTERS:
            if p[name] != per_pass[0][name]:
                problems.append(f"{name} differs between traced passes: {p[name]} vs {per_pass[0][name]}")
    for _, ids in traced:
        for job, job_id in zip(jobs, ids):
            expected = tracing.expected_counts(job.kind, job.g, job.samples)
            got = tracer.job_counts(job_id)
            for key, want in expected.items():
                if got[key] != want:
                    problems.append(f"job {job.label}: {key} = {got[key]}, closed form {want}")
            if tracer.tail_violations(job_id):
                problems.append(f"job {job.label}: a tail bound exceeds its target_eps")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for name in tracing.COUNTERS:
        metrics[name] = per_pass[0][name]
    metrics["trace.overhead_s"] = (
        statistics.median(p[0] for p in traced) - statistics.median(p[0] for p in untraced)
    )
    tracer.dump(dump, [i for _, ids in traced for i in ids])
    units = dict(tracing.LAYER_METRICS)
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, problems


def work(args) -> int:
    import theta4.cli  # noqa: F401  (import cost is part of set-up)

    workdir = BUILD / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, workdir)
        workloads.write_inputs(jobs)
        print("READY", flush=True)
        if args.role == "probe":
            return 0
        problems = []
        if args.trace == 0:
            runner = Runner(jobs)
            passes = runner.run_for(args.seconds, MIN_PASSES)
            values = end_to_end(runner, passes)
            units = dict(END_TO_END)
            metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        else:
            tracer = tracing.Tracer()
            runner = Runner(jobs)
            untraced = runner.run_for(args.seconds / 2, 1)
            runner.tracer = tracer
            with tracer.installed():
                traced = runner.run_for(args.seconds / 2, MIN_PASSES)
            dump = BUILD / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, problems = per_layer(jobs, untraced, traced, tracer, dump)
            for problem in problems[:20]:
                print(f"counter check: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "launcher":
        return launch(args)
    return work(args)


if __name__ == "__main__":
    sys.exit(main())
