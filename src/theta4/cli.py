"""Command line front end: JSON reports over the library's checks.

Exit code contract, shared by every subcommand.  Each command ends in a
status, and EXIT_CODES lists the statuses from least to most severe:
  pass   0  the checks passed (or the report was written and is consistent)
  warn   3  near-degenerate input; verdicts not trustworthy
  error  2  invalid input (bad files, bad flags, infeasible policies; a tail
            target that needs a radius past the cap raises TruncationError,
            a ValueError; a value past double range)
  fail   1  a mathematical check failed
run-suite exits with the status of its most severe entry.  Code 4 is an
internal error: an exception no check expects, a bug, reported on one
error: line naming the exception and where it was raised.

All file output is canonical JSON written atomically, so identical inputs
and seeds give byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

from theta4 import __version__
from theta4.basis_analysis import NULL_THRESHOLD, basis_report, check_kappa0, split_nulls
from theta4.char2 import (
    check_genus,
    d_plus,
    enumerate_characteristics,
    parity,
)
from theta4.identities import IDENTITY_EPS, inversion_residuals, quartic_residuals, summarize
from theta4.jsonio import (
    atomic_write_text,
    canonical_dumps,
    complex_json,
    load_json,
    load_tau_file,
    parse_char_spec,
    parse_point_spec,
)
from theta4.mmatrix import MAX_GENUS, build_m, verify_sign_matrix
from theta4.theta_eval import (
    DEFAULT_POLICY,
    PeriodMatrix,
    TruncationPolicy,
    block_diagonal_tau,
    check_integer,
    random_tau,
    sample_cell_points,
    theta_nulls,
    theta_series,
)

# every status with its exit code, from least to most severe
EXIT_CODES = {"pass": 0, "warn": 3, "error": 2, "fail": 1}
EXIT_INTERNAL = 4

# the exceptions that end a command, or a run-suite entry, with status error
INPUT_ERRORS = (ValueError, ArithmeticError)

DEFAULT_POLICIES = {"target_eps": DEFAULT_POLICY.target_eps, "samples": 5, "seed": 0}
DEFAULT_KAPPA0 = "0,0"  # of --kappa0 and of a corpus entry
VERDICT_EPS = min(IDENTITY_EPS, NULL_THRESHOLD)  # the finest cut-off a verdict reads


def _status(ok: bool, report: dict | None = None) -> str:
    """warn when the basis report warns, else pass or fail as ok says."""
    if report is not None and report["status"] == "warn":
        return "warn"
    return "pass" if ok else "fail"


def _emit(obj, out: str | None) -> None:
    text = canonical_dumps(obj)
    if out is not None:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_chars(args) -> int:
    chars = enumerate_characteristics(args.genus)
    rows = [
        {"index": c.index, "a1": list(c.a1), "a2": list(c.a2), "parity": parity(c)}
        for c in chars
        if not (args.even_only and parity(c) != 1)
    ]
    _emit({"g": args.genus, "count": len(rows), "characteristics": rows}, args.out)
    return EXIT_CODES["pass"]


def _cmd_mmatrix(args) -> int:
    if not args.verify:
        m = build_m(args.genus)
        _emit({"g": args.genus, "dim": len(m), "entries": m.tolist()}, args.out)
        return EXIT_CODES["pass"]
    checks = verify_sign_matrix(args.genus)
    ok = all(checks.values())
    _emit({"g": args.genus, "dim": d_plus(args.genus), "checks": checks, "ok": ok}, args.out)
    return EXIT_CODES[_status(ok)]


def _policy(target_eps, verdict: bool) -> TruncationPolicy:
    """The tail policy; a command that reaches a verdict needs a target at or below VERDICT_EPS."""
    policy = TruncationPolicy(target_eps=target_eps)
    if verdict and policy.target_eps > VERDICT_EPS:
        raise ValueError(f"target_eps {policy.target_eps} is above the verdict cut-off {VERDICT_EPS}")
    return policy


def _cmd_theta(args) -> int:
    tau, policy = load_tau_file(args.tau), _policy(args.target_eps, verdict=False)
    char = parse_char_spec(args.char, tau.g)
    z = parse_point_spec(args.z) if args.z is not None else np.zeros(tau.g, dtype=complex)
    result = theta_series(char, z, tau, policy)
    payload = {
        "char": char.to_json(),
        "value": complex_json(result.value),
        "tail_bound": result.tail_bound,
        "radius": result.radius,
    }
    _emit(payload, args.out)
    return EXIT_CODES["pass"]


def _cmd_nulls(args) -> int:
    tau, policy = load_tau_file(args.tau), _policy(args.target_eps, verdict=False)
    nulls = theta_nulls(tau, policy)
    top, vanishing, _ = split_nulls(nulls)
    rows = [
        {"char": c.to_json(), "value": complex_json(v), "abs": abs(v)} for c, v in nulls.items()
    ]
    payload = {
        "g": tau.g,
        "max_abs": top,
        "null_threshold": NULL_THRESHOLD,
        "nulls": rows,
        "vanishing": [c.to_json() for c in vanishing],
    }
    _emit(payload, args.out)
    return EXIT_CODES["pass"]


def _cmd_verify_identity(args, kind: str) -> int:
    tau, policy = load_tau_file(args.tau), _policy(args.target_eps, verdict=True)
    sweep = quartic_residuals if kind == "quartic" else inversion_residuals
    records = sweep(tau, sample_cell_points(tau, args.samples, args.seed), policy)
    _emit({"tau": tau.to_json(), "target_eps": policy.target_eps, "records": records}, args.out)
    worst, ok, at_scale = summarize(records)
    print(f"{kind}: {len(records)} checks, max rel residual {worst:.3e} "
          f"({at_scale} pass only at term scale)", file=sys.stderr)
    return EXIT_CODES[_status(ok)]


def _cmd_basis_report(args) -> int:
    tau, policy = load_tau_file(args.tau), _policy(args.target_eps, verdict=True)
    report = basis_report(tau, kappa0=parse_char_spec(args.kappa0, tau.g), policy=policy, seed=args.seed)
    _emit(report, args.out)
    return EXIT_CODES[_status(report["consistent"], report)]


def standard_corpus() -> dict:
    """Built-in suite: an elliptic point, a generic genus-2 sample, and the
    genus-2 product with its expected single vanishing null."""
    return {
        "label": "standard",
        "policies": dict(DEFAULT_POLICIES),
        "entries": [
            {"label": "g1-elliptic-i", "tau": {"kind": "literal", "re": [[0.0]], "im": [[1.0]]}},
            {"label": "g2-random-7", "tau": {"kind": "random", "g": 2, "seed": 7, "floor": 1.0}},
            {
                "label": "g2-product-ii",
                "tau": {"kind": "block", "blocks": [{"kind": "literal", "re": [[0.0]], "im": [[1.0]]}] * 2},
                "expect": {"vanishing_nulls": 1, "verdicts": False},
            },
        ],
    }


# the keys each tau source kind reads, besides kind (from_json checks a literal's)
_SOURCE_KEYS = {"file": ("path",), "random": ("g", "seed", "floor"), "block": ("blocks",)}


def _tau_from_source(source, base_dir: Path, files: list[Path]) -> PeriodMatrix:
    """Build a corpus entry's tau from a leaf source (file, literal or random;
    a path string is a file source) or from a block source, whose blocks are
    leaves, and append the path of each file it reads to files.  A genus
    outside 1..MAX_GENUS raises ValueError, and so do a key the source's kind
    does not read and a block inside a block.  A random source is checked
    before its g x g matrix is built, and so is the number of a block
    source's blocks; the genus of a block, literal or file source (as large
    as its input) is checked after."""
    if isinstance(source, str):
        source = {"kind": "file", "path": source}
    if not isinstance(source, dict):
        raise ValueError(f"tau source must be a path or an object, got {source!r}")
    kind = source.get("kind")
    if kind != "literal":
        if kind not in _SOURCE_KEYS:
            raise ValueError(f"unknown tau source kind {kind!r}")
        _check_keys(source, ("kind", *_SOURCE_KEYS[kind]), f"{kind} tau source")
    if kind == "file":
        files.append(base_dir / source["path"])
        tau = load_tau_file(files[-1])
    elif kind == "literal":
        tau = PeriodMatrix.from_json({k: v for k, v in source.items() if k != "kind"})
    elif kind == "random":
        check_genus(source["g"], MAX_GENUS)
        tau = random_tau(source["g"], source["seed"], source.get("floor", 1.0))
    else:
        check_genus(len(source["blocks"]), MAX_GENUS)  # each leaf adds at least 1 to the genus
        if any(isinstance(b, dict) and b.get("kind") == "block" for b in source["blocks"]):
            raise ValueError("a block source's blocks must be file, literal or random sources")
        blocks = [_tau_from_source(b, base_dir, files) for b in source["blocks"]]
        tau = block_diagonal_tau(blocks)
    check_genus(tau.g, MAX_GENUS)
    return tau


def _load_corpus(args) -> tuple[object, Path]:
    if args.standard and args.corpus is not None:
        raise ValueError("run-suite takes --corpus FILE or --standard, not both")
    if args.standard:
        return standard_corpus(), Path(".")
    if args.corpus is None:
        raise ValueError("run-suite needs --corpus FILE or --standard")
    return load_json(args.corpus, "corpus file"), Path(args.corpus).parent


def _check_keys(obj: dict, known, where: str) -> None:
    """Reject a key of a corpus object that run-suite does not read."""
    for key in obj:
        if key not in known:
            raise ValueError(f"{where} has unknown key {key!r}; known keys: {', '.join(known)}")


def _check_label(where: str, label) -> str:
    """A corpus or entry label, which must be a JSON string."""
    if not isinstance(label, str):
        raise ValueError(f"{where} must be a string, got {label!r}")
    return label


def _run_entry(
    label: str, tau: PeriodMatrix, kappa0, expect: dict, seed: int, *, policy: TruncationPolicy, samples: int,
) -> tuple[dict, dict]:
    """The entry's report, and how many records of each finished sweep
    passed only at term scale."""
    result = {"label": label, "g": tau.g, "expected": expect}
    at_scale = {}
    try:
        checks = verify_sign_matrix(tau.g)
        result["mmatrix_ok"] = all(checks.values())
        points = sample_cell_points(tau, samples, seed)
        for kind, sweep in (("quartic", quartic_residuals), ("inversion", inversion_residuals)):
            worst, ok, at_scale[kind] = summarize(sweep(tau, points, policy))
            result[f"{kind}_max_rel_residual"] = worst
            result[f"{kind}_ok"] = ok
        result["identity_eps"] = IDENTITY_EPS
        report = result["basis"] = basis_report(tau, kappa0=kappa0, policy=policy, seed=seed)
    except INPUT_ERRORS as exc:
        result["status"] = "error"
        result["error"] = str(exc)
        return result, at_scale

    identities_ok = result["mmatrix_ok"] and result["quartic_ok"] and result["inversion_ok"]
    # run_suite checked expect.verdicts against the count, and consistent ties the verdicts to it
    expected_ok = len(report["vanishing_nulls"]) == expect["vanishing_nulls"]
    result["status"] = _status(identities_ok and expected_ok and report["consistent"], report)
    return result, at_scale


def run_suite(corpus, base_dir: Path, outputs=()) -> dict:
    """Execute the corpus and assemble the deterministic run report.

    A corpus that is not an object with an entries array and a policies
    object raises ValueError, and so does a key run-suite does not read.
    outputs holds the (flag, path or None) of each file the caller may
    write; a path that names a directory, lies in no existing directory or names
    a file an entry's tau source reads raises ValueError in _check_outputs before
    any entry runs, and so does an expect.verdicts that is not expect.vanishing_nulls == 0.
    Wall-clock timings go to stderr only, one line per entry that also gives
    how many records of each sweep passed only at term scale; the report
    must be byte-identical across reruns with the same corpus.
    """
    if not (isinstance(corpus, dict) and isinstance(corpus.get("entries", []), list)
            and isinstance(corpus.get("policies", {}), dict)):
        raise ValueError("corpus must be an object with an entries array and a policies object")
    _check_keys(corpus, ("label", "policies", "entries"), "corpus")
    _check_label("corpus label", corpus.get("label", ""))
    policies = {**DEFAULT_POLICIES, **corpus.get("policies", {})}
    _check_keys(corpus.get("policies", {}), DEFAULT_POLICIES, "corpus policies")
    seed = check_integer("policy seed", policies["seed"], 0)
    policy = _policy(policies["target_eps"], verdict=True)
    samples = check_integer("policy samples", policies["samples"], 1)
    entries = corpus.get("entries", [])

    prepared = []
    labels = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "label" not in entry or "tau" not in entry:
            raise ValueError(f"corpus entry {i} must have label and tau")
        _check_keys(entry, ("label", "tau", "kappa0", "expect"), f"corpus entry {i}")
        label = _check_label(f"corpus entry {i} label", entry["label"])
        if label in labels:
            raise ValueError(f"duplicate corpus label {label!r}")
        labels.add(label)
        files = []
        try:
            tau = _tau_from_source(entry["tau"], base_dir, files)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corpus entry {i} has a malformed tau source: {exc!r}") from exc
        _check_outputs(outputs, [(f"corpus entry {i}'s tau source", f) for f in files])
        try:
            kappa0 = check_kappa0(parse_char_spec(entry.get("kappa0", DEFAULT_KAPPA0), tau.g), tau.g)
            expect = {"vanishing_nulls": 0, "verdicts": True, **entry.get("expect", {})}
            check_integer("expect.vanishing_nulls", expect["vanishing_nulls"], 0)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"corpus entry {i} has a malformed kappa0 or expect: {exc!r}") from exc
        _check_keys(expect, ("vanishing_nulls", "verdicts"), f"corpus entry {i} expect")
        # the theorem: both verdicts are true exactly when no null vanishes
        if expect["verdicts"] is not (expect["vanishing_nulls"] == 0):
            raise ValueError(f"corpus entry {i} expects verdicts {expect['verdicts']!r} with vanishing_nulls "
                             f"{expect['vanishing_nulls']}; the verdicts are true exactly when no null vanishes")
        prepared.append((label, tau, kappa0, expect, seed + i))

    results = []
    for label, tau, kappa0, expect, seed in prepared:
        start = time.perf_counter()
        result, at_scale = _run_entry(label, tau, kappa0, expect, seed, policy=policy, samples=samples)
        counts = ", ".join(f"{kind} {n}" for kind, n in at_scale.items())
        note = f"; term-scale passes: {counts}" if counts else ""
        print(f"[{label}] {result['status']} ({time.perf_counter() - start:.2f}s{note})", file=sys.stderr)
        results.append(result)

    rollup = max((r["status"] for r in results), key=list(EXIT_CODES).index, default="pass")
    return {
        "version": __version__,
        "label": corpus.get("label", ""),
        "policies": policies,
        "entries": results,
        "rollup": rollup,
    }


def _cmd_run_suite(args) -> int:
    corpus, base_dir = _load_corpus(args)
    start = time.perf_counter()
    report = run_suite(corpus, base_dir, _flags(args, "out", "emit_corpus"))
    print(f"suite rollup: {report['rollup']} ({time.perf_counter() - start:.2f}s)", file=sys.stderr)
    if args.emit_corpus is not None:
        _emit(corpus, args.emit_corpus)
    _emit(report, args.out)
    return EXIT_CODES[report["rollup"]]


def _flags(args, *dests: str) -> list[tuple[str, str | None]]:
    """The (flag, value) of each argparse dest; None when absent or not the command's."""
    return [("--" + dest.replace("_", "-"), getattr(args, dest, None)) for dest in dests]


def _check_outputs(outputs, reads) -> None:
    """Reject an output (flag, path or None) whose path resolves to an existing
    directory (as "" does, the working directory) or into no existing directory,
    to an earlier output or to a file the command reads, given as a (name, path or None)."""
    seen = {os.path.realpath(path): name for name, path in reads if path is not None}
    for flag, path in outputs:
        if path is not None:
            real = os.path.realpath(path)
            if os.path.isdir(real):
                raise ValueError(f"{flag} {path} names a directory, not a file")
            if not os.path.isdir(os.path.dirname(real)):
                raise ValueError(f"{flag} {path} is not in an existing directory")
            other = seen.setdefault(real, flag)
            if other != flag:
                raise ValueError(f"{flag} {path} names the same file as {other}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta4",
        description="Exact and numerical checks for theta functions of order four.",
    )
    parser.add_argument("--version", action="version", version=f"theta4 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag shared by several commands is declared once, in a parent parser
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="report file (default stdout)")
    lattice = argparse.ArgumentParser(add_help=False, parents=[out])
    lattice.add_argument("--tau", required=True)
    lattice.add_argument("--target-eps", type=float, default=DEFAULT_POLICIES["target_eps"])
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=DEFAULT_POLICIES["seed"])

    p = sub.add_parser("chars", parents=[out], help="enumerate characteristics with parities")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--even-only", action="store_true")
    p.set_defaults(func=_cmd_chars)

    p = sub.add_parser("mmatrix", parents=[out], help="emit or verify the even-pair sign matrix")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="write the exact checks instead of M")
    p.set_defaults(func=_cmd_mmatrix)

    p = sub.add_parser("theta", parents=[lattice], help="evaluate one theta value")
    p.add_argument("--char", required=True, help='characteristic "a1,a2"')
    p.add_argument("--z", help='point "re,im;re,im;..." (default 0)')
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("nulls", parents=[lattice], help="even theta-nulls and vanishing detection")
    p.set_defaults(func=_cmd_nulls)

    for kind in ("quartic", "inversion"):
        p = sub.add_parser(f"verify-{kind}", parents=[lattice, seed], help=f"residuals of the {kind} identity")
        p.add_argument("--samples", type=int, default=DEFAULT_POLICIES["samples"])
        p.set_defaults(func=lambda args, kind=kind: _cmd_verify_identity(args, kind))

    p = sub.add_parser("basis-report", parents=[lattice, seed], help="rank/basis analysis for one period matrix")
    p.add_argument("--kappa0", default=DEFAULT_KAPPA0, help='even characteristic "a1,a2" (default 0)')
    p.set_defaults(func=_cmd_basis_report)

    p = sub.add_parser("run-suite", parents=[out], help="run a corpus of period matrices end to end")
    p.add_argument("--corpus", help="corpus JSON file")
    p.add_argument("--standard", action="store_true", help="use the built-in corpus")
    p.add_argument("--emit-corpus", help="also write the corpus that was run")
    p.set_defaults(func=_cmd_run_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(_flags(args, "out", "emit_corpus"), _flags(args, "tau", "corpus"))
        return args.func(args)
    except (*INPUT_ERRORS, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["error"]
    except Exception as exc:  # a bug must not exit 1, the code of a failed check
        tb = exc.__traceback__
        while tb.tb_next:  # the frame that raised it
            tb = tb.tb_next
        where = f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}"
        print(f"error: internal error {exc!r} at {where}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
