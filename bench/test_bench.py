"""Self-checks of the benchmark: traced counters, the correctness gate, inputs.

Run from the repository root with `python3 -m pytest bench -q`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.SRC))

from theta4 import cli  # noqa: E402


def small_jobs(workdir: Path) -> list[workloads.Job]:
    rng = np.random.default_rng(5)
    jobs = [
        workloads.suite_job(workdir, rng, "g1", (1,), 1),
        workloads.suite_job(workdir, rng, "g2", (2,), 2),
        workloads.suite_job(workdir, rng, "g1x1", (1, 1), 1),
        workloads.mmatrix_job("mm3", 3),
    ]
    workloads.write_inputs(jobs)
    return jobs


def traced_pass(tracer, runner) -> list[int]:
    with tracer.installed():
        _, ids = runner.run_pass()
    return ids


def test_counts_match_closed_forms_and_repeat(tmp_path):
    jobs = small_jobs(tmp_path)
    tracer = tracing.Tracer()
    runner = run.Runner(jobs, tracer)
    first, second = traced_pass(tracer, runner), traced_pass(tracer, runner)
    assert runner.failed == 0 and runner.attempted == 2 * len(jobs)
    for ids in (first, second):
        for job, job_id in zip(jobs, ids):
            assert tracer.job_counts(job_id) == {
                **dict.fromkeys(tracing.STAGES, 0),
                **tracing.expected_counts(job.kind, job.g, job.samples),
            }, job.label
            assert tracer.tail_violations(job_id) == 0
    metrics = [tracer.pass_metrics(ids) for ids in (first, second)]
    assert {k: metrics[0][k] for k in tracing.COUNTERS} == {k: metrics[1][k] for k in tracing.COUNTERS}
    assert metrics[0]["theta_eval.calls"] > 0 and metrics[0]["theta_eval.lattice_terms"] > 0
    assert metrics[0]["mmatrix.row_sum.calls"] == 4 + 16 + 16 + 64  # 4^g per suite entry and per mmatrix job
    assert set(metrics[0]) | {"trace.overhead_s"} == {name for name, _ in tracing.LAYER_METRICS}


@pytest.mark.parametrize(
    "module, name, job_label, key",
    [
        ("theta4.cli", "quartic_residuals", "g2", "identities.quartic_residuals"),
        ("theta4.theta_eval", "theta_series", "g2", "theta_calls"),
        ("theta4.cli", "verify_sign_matrix", "mm3", "row_sum"),
        ("theta4.mmatrix", "weil_pairing", "mm3", "weil_pairing_in_row_sum"),
    ],
)
def test_missed_wrapper_fails_closed_form(tmp_path, module, name, job_label, key):
    job = next(j for j in small_jobs(tmp_path) if j.label == job_label)
    tracer = tracing.Tracer()
    runner = run.Runner([job], tracer)
    with tracer.installed():
        target = sys.modules[module]
        wrapped = getattr(target, name)
        setattr(target, name, wrapped.__wrapped__)
        try:
            _, (job_id,) = runner.run_pass()
        finally:
            setattr(target, name, wrapped)
    assert tracer.job_counts(job_id)[key] != tracing.expected_counts(job.kind, job.g, job.samples).get(key, 0)


def test_wrappers_are_removed_after_the_traced_run():
    theta_series = cli.theta_series
    with tracing.Tracer().installed():
        assert cli.theta_series is not theta_series
    assert cli.theta_series is theta_series


def test_gate_counts_wrong_verdicts_and_changed_output(tmp_path):
    jobs = small_jobs(tmp_path)
    product = next(j for j in jobs if j.label == "g1x1")
    runner = run.Runner([product])
    runner.run_pass()
    assert runner.failed == 0
    product.vanishing = 0  # the corpus still declares 1; the checked count no longer matches
    runner.run_pass()
    assert runner.failed == 1
    runner.digests[product.label] = "0" * 64
    product.vanishing = 1
    runner.run_pass()
    assert runner.failed == 2
    mm = jobs[-1]
    assert workloads.check(mm, 1, b"{}") == "exit code 1, expected 0"
    assert workloads.check(mm, "traceback KeyError: 'x'", b"") is not None


def test_inputs_come_from_the_seed_only(tmp_path):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        jobs = workloads.make_jobs("suite-g3", seed, tmp_path / sub)
        return [(p.name, text) for job in jobs for p, text in job.files.items()]

    first = inputs(3, "a")
    assert first == inputs(3, "b")
    assert first != inputs(4, "c")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
