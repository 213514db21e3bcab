"""Span tracer that times theta4's layers from outside the program.

`Tracer.installed()` wraps every public function of the layer modules and
patches the wrapper into every theta4 module that holds the function under
some name: the layers import each other's functions by name
(`identities.theta_with_char`, `basis_analysis.theta_nulls`,
`cli.theta_series`, ...), so patching only the defining module would miss
those calls.  Functions of the span modules record one span per call (name,
start, end, parent span, job); the hot GF(2) helpers of `char2` only count
calls, keyed by the span they run in, so that the 540k `weil_pairing` calls
of a genus-5 sign-matrix check cost no span each.  Spans stay in memory
until the benchmark ends.

The lattice-term count of a `theta_series` call is reconstructed after the
run from its arguments and returned radius: the summed box is the integer
box of that radius around -(a1/2 + Y^-1 Im z), exactly as the kernel builds
it.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from workloads import d_plus

SPAN_MODULES = ("theta_eval", "identities", "basis_analysis", "mmatrix", "jsonio")
COUNT_MODULES = ("char2",)
ROOT = "cli.main"
KERNEL = "theta_eval.theta_series"
STAGES = (
    "identities.quartic_residuals",
    "identities.inversion_residuals",
    "basis_analysis.basis_report",
)
JSON_OUTPUT = ("jsonio.canonical_dumps", "jsonio.atomic_write_text")
KEEP_RESULT = (KERNEL, "jsonio.canonical_dumps")

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("theta_eval.calls", "count"),
    ("theta_eval.repeat_share", "1"),
    ("theta_eval.lattice_terms", "count"),
    ("theta_eval.busy_s", "s"),
    ("theta_eval.ns_per_term", "ns"),
    ("theta_eval.us_per_call", "us"),
    ("theta_eval.max_radius", "count"),
    ("theta_eval.max_tail_bound", "1"),
    ("identities.quartic_residuals.theta_calls", "count"),
    ("identities.quartic_residuals.busy_s", "s"),
    ("identities.quartic_residuals.self_s", "s"),
    ("identities.inversion_residuals.theta_calls", "count"),
    ("identities.inversion_residuals.busy_s", "s"),
    ("identities.inversion_residuals.self_s", "s"),
    ("basis_analysis.basis_report.theta_calls", "count"),
    ("basis_analysis.basis_report.busy_s", "s"),
    ("basis_analysis.basis_report.self_s", "s"),
    ("basis_analysis.evaluation_matrix.busy_s", "s"),
    ("basis_analysis.fourth_power_rank.busy_s", "s"),
    ("basis_analysis.numerical_rank.busy_s", "s"),
    ("mmatrix.verify_sign_matrix.busy_s", "s"),
    ("mmatrix.row_sum.calls", "count"),
    ("mmatrix.row_sum.busy_s", "s"),
    ("char2.weil_pairing.calls", "count"),
    ("cli.self_s", "s"),
    ("jsonio.busy_s", "s"),
    ("jsonio.bytes", "count"),
    ("trace.overhead_s", "s"),
)

# work counters: they must repeat exactly on every traced pass
COUNTERS = tuple(name for name, unit in LAYER_METRICS if unit == "count")


def _theta4_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "theta4" or name.startswith("theta4.")]


class Tracer:
    """Spans and call counts of one benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_job: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.results: dict[int, tuple] = {}
        # (job, counted function id, id of the span it ran in) -> calls
        self.counts: dict[tuple[int, int, int], int] = {}
        self.job_spans: dict[int, range] = {}
        self._kernel_info: dict[int, tuple] = {}
        self._kernel_signature = None
        self._stack = [-1]
        self._job = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, qualname: str, fn):
        nid = self.name_id(qualname)
        keep = qualname in KEEP_RESULT
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, results, stack, job = self.span_start, self.span_end, self.results, self._stack, self._job
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(job[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if keep:
                results[idx] = (args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, qualname: str, fn):
        nid = self.name_id(qualname)
        names, counts, stack, job = self.span_name, self.counts, self._stack, self._job

        def wrapper(*args, **kwargs):
            top = stack[-1]
            key = (job[0], nid, names[top] if top >= 0 else -1)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch wrappers over every public layer function, restore on exit."""
        import theta4.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for short in SPAN_MODULES + COUNT_MODULES:
            module = sys.modules[f"theta4.{short}"]
            make = self._span_wrapper if short in SPAN_MODULES else self._count_wrapper
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                qualname = f"{short}.{attr}"
                if qualname == KERNEL:
                    self._kernel_signature = inspect.signature(obj)
                wrappers[id(obj)] = (obj, make(qualname, obj))
        patched = []
        for module in _theta4_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])
                    patched.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    @contextlib.contextmanager
    def job(self, job_id: int):
        """Root span of one CLI invocation."""
        idx = len(self.span_name)
        self._job[0] = job_id
        self.span_name.append(self.name_id(ROOT))
        self.span_parent.append(-1)
        self.span_job.append(job_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self._stack.pop()
            self._job[0] = -1
            self.job_spans[job_id] = range(idx, len(self.span_name))

    # ----------------------------------------------------------------- analysis

    def _ancestor(self, idx: int, match) -> str | None:
        """Name of the nearest enclosing span whose name satisfies match."""
        p = self.span_parent[idx]
        while p >= 0:
            name = self.names[self.span_name[p]]
            if match(name):
                return name
            p = self.span_parent[p]
        return None

    def _ancestor_in(self, idx: int, wanted) -> str | None:
        return self._ancestor(idx, wanted.__contains__)

    def _kernel_call(self, idx: int):
        """(lattice terms, radius, tail bound, repeat key, target eps) of a kernel span."""
        if idx not in self._kernel_info:
            args, kwargs, result = self.results[idx]
            bound = self._kernel_signature.bind(*args, **kwargs).arguments
            c, tau, policy = bound["c"], bound["tau"], bound.get("policy")
            z = np.atleast_1d(np.asarray(bound["z"], dtype=complex)) + 0.0
            center = -np.array(c.a1, dtype=float) / 2.0 - np.linalg.solve(tau.tau.imag, z.imag)
            r = result.radius
            terms = math.prod(math.floor(cj + r) - math.ceil(cj - r) + 1 for cj in center)
            eps = policy.target_eps if policy is not None else None
            key = (tau.tau.tobytes(), c, z.tobytes())
            self._kernel_info[idx] = (terms, r, result.tail_bound, key, eps)
        return self._kernel_info[idx]

    def job_counts(self, job_id: int) -> dict[str, int]:
        """Work counts of one job, the quantities the closed forms predict."""
        out = {"theta_calls": 0, "row_sum": 0, "weil_pairing_in_row_sum": 0}
        out.update({stage: 0 for stage in STAGES})
        kernel = self._ids.get(KERNEL)
        row_sum = self._ids.get("mmatrix.row_sum")
        for idx in self.job_spans[job_id]:
            nid = self.span_name[idx]
            if nid == kernel:
                out["theta_calls"] += 1
                stage = self._ancestor_in(idx, STAGES)
                if stage:
                    out[stage] += 1
            elif nid == row_sum and self._ancestor_in(idx, ("mmatrix.verify_sign_matrix",)):
                out["row_sum"] += 1
        weil = self._ids.get("char2.weil_pairing")
        for (job, fn, enclosing), calls in self.counts.items():
            if job == job_id and fn == weil and enclosing == row_sum:
                out["weil_pairing_in_row_sum"] += calls
        return out

    def tail_violations(self, job_id: int) -> int:
        """Kernel calls of the job whose tail bound exceeds their target."""
        kernel = self._ids.get(KERNEL)
        bad = 0
        for idx in self.job_spans[job_id]:
            if self.span_name[idx] == kernel:
                _, _, tail, _, eps = self._kernel_call(idx)
                bad += eps is not None and tail > eps
        return bad

    def pass_metrics(self, job_ids) -> dict[str, float]:
        """Per-layer metrics of one pass over the job list (all but trace.overhead_s)."""
        spans = [idx for j in job_ids for idx in self.job_spans[j]]
        names = self.names
        dur = {idx: self.span_end[idx] - self.span_start[idx] for idx in spans}
        child = dict.fromkeys(spans, 0.0)
        for idx in spans:
            p = self.span_parent[idx]
            if p >= 0:
                child[p] += dur[idx]
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        module_busy: dict[str, float] = {}
        kernel = {"terms": 0, "radius": 0, "tail": 0.0}
        seen: dict[int, set] = {}
        repeats = 0
        for idx in spans:
            name = names[self.span_name[idx]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[idx] - child[idx]
            if self._ancestor_in(idx, (name,)) is None:
                busy[name] = busy.get(name, 0.0) + dur[idx]
            module = name.split(".")[0]
            if self._ancestor(idx, lambda other: other.split(".")[0] == module) is None:
                module_busy[module] = module_busy.get(module, 0.0) + dur[idx]
            if name == KERNEL:
                terms, radius, tail, key, _ = self._kernel_call(idx)
                kernel["terms"] += terms
                kernel["radius"] = max(kernel["radius"], radius)
                kernel["tail"] = max(kernel["tail"], tail)
                keys = seen.setdefault(self.span_job[idx], set())
                repeats += key in keys
                keys.add(key)
        n_kernel = calls.get(KERNEL, 0)
        theta_busy = module_busy.get("theta_eval", 0.0)
        weil = self._ids.get("char2.weil_pairing")
        jobs = set(job_ids)
        metrics = {
            "theta_eval.calls": n_kernel,
            "theta_eval.repeat_share": repeats / n_kernel if n_kernel else 0.0,
            "theta_eval.lattice_terms": kernel["terms"],
            "theta_eval.busy_s": theta_busy,
            "theta_eval.ns_per_term": 1e9 * theta_busy / kernel["terms"] if kernel["terms"] else 0.0,
            "theta_eval.us_per_call": 1e6 * theta_busy / n_kernel if n_kernel else 0.0,
            "theta_eval.max_radius": kernel["radius"],
            "theta_eval.max_tail_bound": kernel["tail"],
            "mmatrix.row_sum.calls": calls.get("mmatrix.row_sum", 0),
            "char2.weil_pairing.calls": sum(
                n for (job, fn, _), n in self.counts.items() if job in jobs and fn == weil
            ),
            "cli.self_s": self_s.get(ROOT, 0.0),
            "jsonio.busy_s": sum(busy.get(name, 0.0) for name in JSON_OUTPUT),
            "jsonio.bytes": sum(
                len(self.results[idx][2].encode("utf-8"))
                for idx in spans
                if names[self.span_name[idx]] == "jsonio.canonical_dumps"
            ),
        }
        for stage in STAGES:
            metrics[f"{stage}.theta_calls"] = sum(self.job_counts(j)[stage] for j in job_ids)
        for metric, _ in LAYER_METRICS:
            if metric in metrics or metric == "trace.overhead_s":
                continue
            base, _, kind = metric.rpartition(".")
            metrics[metric] = (busy if kind == "busy_s" else self_s).get(base, 0.0)
        return metrics

    def dump(self, path: Path, job_ids) -> None:
        """Write the spans of the given jobs as columns of one JSON object."""
        spans = [idx for j in job_ids for idx in self.job_spans[j]]
        jobs = set(job_ids)
        doc = {
            "names": self.names,
            "index": spans,
            "name": [self.span_name[i] for i in spans],
            "parent": [self.span_parent[i] for i in spans],
            "job": [self.span_job[i] for i in spans],
            "start": [self.span_start[i] for i in spans],
            "end": [self.span_end[i] for i in spans],
            "counts": [[job, fn, enc, n] for (job, fn, enc), n in self.counts.items() if job in jobs],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def expected_counts(kind: str, g: int, samples: int) -> dict[str, int]:
    """Closed-form work counts of one job (see Tracer.job_counts)."""
    d = d_plus(g)
    if kind == "suite":
        counts = {
            "identities.quartic_residuals": 4**g * (1 + 2 * samples),
            "identities.inversion_residuals": d * (1 + 2 * samples),
            "basis_analysis.basis_report": d + 3 * d * d,
        }
        counts["theta_calls"] = sum(counts.values())
        counts.update(row_sum=4**g, weil_pairing_in_row_sum=4**g * d)
        return counts
    return {"theta_calls": 0, "row_sum": 4**g, "weil_pairing_in_row_sum": 4**g * d}

