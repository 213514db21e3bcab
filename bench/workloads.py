"""Seeded job lists for the theta4 benchmark and the correctness gate for each job.

A job is one `theta4` CLI invocation: a single-entry `run-suite` corpus or one
`mmatrix --verify`.  Every period matrix is drawn here from the workload seed
with numpy's PCG64 generator and written to a literal JSON corpus, so the
program under test only ever sees generated inputs and its own sampler
(`random_tau`) can change without changing the benchmark inputs.

The expected verdicts are known without the program: a generic period matrix
has no vanishing even theta-null, and a block-diagonal product of two generic
blocks of genera g1 and g2 has exactly d-(g1) * d-(g2) of them (the even
characteristics that are odd on both blocks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXIT_PASS = 0

SUITE_SAMPLES = 3
MMATRIX_GENUS = 5

WORKLOADS = ("suite-g3", "mmatrix-g5")


def d_plus(g: int) -> int:
    return 2 ** (g - 1) * (2**g + 1)


def d_minus(g: int) -> int:
    return 2 ** (g - 1) * (2**g - 1)


@dataclass
class Job:
    """One CLI invocation with what its output must say."""

    label: str
    kind: str  # "suite" or "mmatrix"
    g: int
    argv: list[str]
    out: Path | None  # report file, or None when the report goes to stdout
    vanishing: int = 0
    samples: int = 0
    files: dict[Path, str] = field(default_factory=dict)


def _random_block(rng: np.random.Generator, g: int) -> np.ndarray:
    """S + i Y with S symmetric uniform in [-1/2, 1/2] and Y = B B' + c I.

    B is uniform in [-1/2, 1/2] and c is chosen so that the smallest
    eigenvalue of Y is exactly 1, the floor of theta4's own sampler.  The
    truncation radius jumps where that eigenvalue crosses a threshold (at
    genus 4 and z = 0 it is 5 below about 1.08 and 4 above), so pinning it
    keeps the work per job close from seed to seed.
    """
    s = rng.uniform(-0.5, 0.5, size=(g, g))
    s = np.triu(s) + np.triu(s, 1).T
    b = rng.uniform(-0.5, 0.5, size=(g, g))
    y = b @ b.T
    y += (1.0 - np.linalg.eigvalsh(y)[0]) * np.eye(g)
    return s + 1j * y


def _product(rng: np.random.Generator, genera: tuple[int, ...]) -> np.ndarray:
    g = sum(genera)
    tau = np.zeros((g, g), dtype=complex)
    pos = 0
    for k in genera:
        tau[pos : pos + k, pos : pos + k] = _random_block(rng, k)
        pos += k
    return tau


def _expected_vanishing(genera: tuple[int, ...]) -> int:
    if len(genera) == 1:
        return 0
    g1, g2 = genera
    return d_minus(g1) * d_minus(g2)


def suite_job(workdir: Path, rng: np.random.Generator, label: str, genera: tuple[int, ...],
              samples: int = SUITE_SAMPLES) -> Job:
    """One generated period matrix as a single-entry run-suite corpus."""
    tau = _product(rng, genera)
    vanishing = _expected_vanishing(genera)
    entry = {
        "label": label,
        "tau": {
            "kind": "literal",
            "re": [[float(x) for x in row] for row in tau.real],
            "im": [[float(x) for x in row] for row in tau.imag],
        },
    }
    if vanishing:
        entry["expect"] = {"vanishing_nulls": vanishing, "verdicts": False}
    policies = {"samples": samples, "seed": int(rng.integers(0, 2**31))}
    corpus = {"label": label, "policies": policies, "entries": [entry]}
    corpus_path = workdir / f"{label}.corpus.json"
    out = workdir / f"{label}.report.json"
    return Job(
        label=label,
        kind="suite",
        g=sum(genera),
        argv=["run-suite", "--corpus", str(corpus_path), "--out", str(out)],
        out=out,
        vanishing=vanishing,
        samples=samples,
        files={corpus_path: json.dumps(corpus, indent=1)},
    )


def mmatrix_job(label: str, g: int) -> Job:
    argv = ["mmatrix", "--genus", str(g), "--verify"]
    return Job(label=label, kind="mmatrix", g=g, argv=argv, out=None)


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's fixed job list for this seed (any integer; files not yet written)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if workload == "suite-g3":
        rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
        shapes = [("g3-random", (3,)), ("g3-block-2x1", (2, 1)), ("g3-random", (3,))]
        return [suite_job(workdir, rng, f"{name}-{i}", genera) for i, (name, genera) in enumerate(shapes)]
    # mmatrix-g5 is exact and has no input: the seed has nothing to vary
    return [mmatrix_job(f"mmatrix-g5-{i}", MMATRIX_GENUS) for i in range(3)]


def write_inputs(jobs: list[Job]) -> None:
    for job in jobs:
        for path, text in job.files.items():
            path.write_text(text, encoding="utf-8")


def check(job: Job, rc, output: bytes) -> str | None:
    """Return why the job's verdict is wrong, or None when it is right."""
    if rc != EXIT_PASS:
        return f"exit code {rc}, expected {EXIT_PASS}"
    try:
        report = json.loads(output)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if job.kind == "suite":
        if report.get("rollup") != "pass" or len(report.get("entries", [])) != 1:
            return f"rollup {report.get('rollup')!r}"
        entry = report["entries"][0]
        if entry.get("status") != "pass":
            return f"entry status {entry.get('status')!r}: {entry.get('error', '')}"
        for key in ("mmatrix_ok", "quartic_ok", "inversion_ok"):
            if entry.get(key) is not True:
                return f"{key} is {entry.get(key)!r}"
        basis = entry["basis"]
        if basis.get("consistent") is not True:
            return "basis report inconsistent"
        if len(basis["vanishing_nulls"]) != job.vanishing:
            return f"{len(basis['vanishing_nulls'])} vanishing nulls, expected {job.vanishing}"
        return None
    if report.get("ok") is not True or not report.get("checks") or not all(report["checks"].values()):
        return f"sign-matrix checks failed: {report.get('checks')}"
    if report.get("g") != job.g or report.get("dim") != d_plus(job.g):
        return f"expected genus {job.g}, dimension {d_plus(job.g)}"
    return None
