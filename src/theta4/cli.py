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
    Characteristic,
    check_genus,
    d_plus,
    enumerate_characteristics,
    even_characteristics,
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
from theta4.mmatrix import MAX_GENUS, pairing_signs, verify_sign_matrix
from theta4.theta_eval import (
    DEFAULT_TARGET_EPS,
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

DEFAULT_POLICIES = {"target_eps": DEFAULT_TARGET_EPS, "samples": 5, "seed": 0}


def _status(ok: bool, report: dict | None = None) -> str:
    """warn when the basis report warns, else pass or fail as ok says."""
    if report is not None and report["status"] == "warn":
        return "warn"
    return "pass" if ok else "fail"


def _emit(obj, out: str | None) -> None:
    text = canonical_dumps(obj)
    if out:
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
    check_genus(args.genus, MAX_GENUS)
    if args.emit or not args.verify:
        evens = even_characteristics(args.genus)
        m = pairing_signs(evens, evens)
        _emit({"g": args.genus, "dim": len(m), "entries": m.tolist()}, args.emit)
    if not args.verify:
        return EXIT_CODES["pass"]
    checks = verify_sign_matrix(args.genus)
    ok = all(checks.values())
    _emit({"g": args.genus, "dim": d_plus(args.genus), "checks": checks, "ok": ok}, None)
    return EXIT_CODES[_status(ok)]


def _cmd_theta(args) -> int:
    tau = load_tau_file(args.tau)
    char = parse_char_spec(args.char, tau.g)
    z = parse_point_spec(args.z) if args.z else np.zeros(tau.g, dtype=complex)
    result = theta_series(char, z, tau, TruncationPolicy(target_eps=args.target_eps))
    payload = {
        "char": char.to_json(),
        "value": complex_json(result.value),
        "tail_bound": result.tail_bound,
        "radius": result.radius,
    }
    _emit(payload, args.out)
    return EXIT_CODES["pass"]


def _cmd_nulls(args) -> int:
    tau = load_tau_file(args.tau)
    nulls = theta_nulls(tau, TruncationPolicy(target_eps=args.target_eps))
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
    tau = load_tau_file(args.tau)
    policy = TruncationPolicy(target_eps=args.target_eps)
    sweep = quartic_residuals if kind == "quartic" else inversion_residuals
    records = sweep(tau, sample_cell_points(tau, args.samples, args.seed), policy)
    _emit({"tau": tau.to_json(), "target_eps": policy.target_eps, "records": records}, args.out)
    worst, ok, at_scale = summarize(records)
    print(f"{kind}: {len(records)} checks, max rel residual {worst:.3e} "
          f"({at_scale} pass only at term scale)", file=sys.stderr)
    return EXIT_CODES[_status(ok)]


def _cmd_basis_report(args) -> int:
    tau = load_tau_file(args.tau)
    kappa0 = parse_char_spec(args.kappa0, tau.g) if args.kappa0 else None
    policy = TruncationPolicy(target_eps=args.target_eps)
    report = basis_report(tau, kappa0=kappa0, policy=policy, seed=args.seed)
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


# the keys each tau source kind reads, besides kind
_SOURCE_KEYS = {"file": ("path",), "literal": ("re", "im", "g"), "random": ("g", "seed", "floor"),
                "block": ("blocks",)}


def _tau_from_source(source, base_dir: Path) -> PeriodMatrix:
    """Build a corpus entry's tau from a leaf source (file, literal or random;
    a path string is a file source) or from a block source, whose blocks are
    leaves.  A genus outside 1..MAX_GENUS raises ValueError, and so do a key
    the source's kind does not read and a block inside a block.  A random or
    block source is checked before its g x g matrix is built, a literal or
    file one (as large as its input) after."""
    if isinstance(source, str):
        source = {"kind": "file", "path": source}
    if not isinstance(source, dict):
        raise ValueError(f"tau source must be a path or an object, got {source!r}")
    kind = source.get("kind")
    if kind not in _SOURCE_KEYS:
        raise ValueError(f"unknown tau source kind {kind!r}")
    _check_keys(source, ("kind", *_SOURCE_KEYS[kind]), f"{kind} tau source")
    if kind == "file":
        tau = load_tau_file(base_dir / source["path"])
    elif kind == "literal":
        tau = PeriodMatrix.from_json({k: v for k, v in source.items() if k != "kind"})
    elif kind == "random":
        check_genus(source["g"], MAX_GENUS)
        tau = random_tau(source["g"], source["seed"], source.get("floor", 1.0))
    else:
        check_genus(len(source["blocks"]), MAX_GENUS)  # each leaf adds at least 1 to the genus
        if any(isinstance(b, dict) and b.get("kind") == "block" for b in source["blocks"]):
            raise ValueError("a block source's blocks must be file, literal or random sources")
        blocks = [_tau_from_source(b, base_dir) for b in source["blocks"]]
        check_genus(sum(b.g for b in blocks), MAX_GENUS)
        tau = block_diagonal_tau(blocks)
    check_genus(tau.g, MAX_GENUS)
    return tau


def _load_corpus(args) -> tuple[dict, Path]:
    if args.standard and args.corpus:
        raise ValueError("run-suite takes --corpus FILE or --standard, not both")
    if args.standard:
        return standard_corpus(), Path(".")
    if not args.corpus:
        raise ValueError("run-suite needs --corpus FILE or --standard")
    path = Path(args.corpus)
    corpus = load_json(path, "corpus file")
    if not (isinstance(corpus, dict) and isinstance(corpus.get("entries", []), list)
            and isinstance(corpus.get("policies", {}), dict)):
        raise ValueError("corpus must be an object with an entries array and a policies object")
    return corpus, path.parent


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
    expected_ok = (
        len(report["vanishing_nulls"]) == expect["vanishing_nulls"]
        and report["point_basis_verdict"] == expect["verdicts"]
        and report["fourth_power_basis_verdict"] == expect["verdicts"]
    )
    result["status"] = _status(identities_ok and expected_ok and report["consistent"], report)
    return result, at_scale


def run_suite(corpus: dict, base_dir: Path) -> dict:
    """Execute the corpus and assemble the deterministic run report.

    Wall-clock timings go to stderr only, one line per entry that also gives
    how many records of each sweep passed only at term scale; the report
    must be byte-identical across reruns with the same corpus.
    """
    _check_keys(corpus, ("label", "policies", "entries"), "corpus")
    _check_label("corpus label", corpus.get("label", ""))
    policies = {**DEFAULT_POLICIES, **corpus.get("policies", {})}
    _check_keys(corpus.get("policies", {}), DEFAULT_POLICIES, "corpus policies")
    seed = check_integer("policy seed", policies["seed"], 0)
    policy = TruncationPolicy(target_eps=policies["target_eps"])
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
        try:
            tau = _tau_from_source(entry["tau"], base_dir)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corpus entry {i} has a malformed tau source: {exc!r}") from exc
        try:
            kappa0 = parse_char_spec(entry.get("kappa0", "0,0"), tau.g)
            check_kappa0(kappa0, tau.g)
            expect = {"vanishing_nulls": 0, "verdicts": True, **entry.get("expect", {})}
            check_integer("expect.vanishing_nulls", expect["vanishing_nulls"], 0)
            if not isinstance(expect["verdicts"], bool):
                raise ValueError(f"expect.verdicts must be true or false, got {expect['verdicts']!r}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"corpus entry {i} has a malformed kappa0 or expect: {exc!r}") from exc
        _check_keys(expect, ("vanishing_nulls", "verdicts"), f"corpus entry {i} expect")
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
    report = run_suite(corpus, base_dir)
    print(f"suite rollup: {report['rollup']} ({time.perf_counter() - start:.2f}s)", file=sys.stderr)
    if args.emit_corpus:
        _emit(corpus, args.emit_corpus)
    _emit(report, args.out)
    return EXIT_CODES[report["rollup"]]


def _check_paths(args) -> None:
    """Reject an output path that resolves to the command's input or to another of its outputs."""
    seen = {}
    for dest in ("tau", "corpus", "out", "emit", "emit_corpus"):  # the input first
        path = getattr(args, dest, None)
        if path:
            flag = "--" + dest.replace("_", "-")
            other = seen.setdefault(os.path.realpath(path), flag)
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

    p = sub.add_parser("chars", help="enumerate characteristics with parities")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--even-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_chars)

    p = sub.add_parser("mmatrix", help="emit or verify the even-pair sign matrix")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--emit")
    p.set_defaults(func=_cmd_mmatrix)

    p = sub.add_parser("theta", help="evaluate one theta value")
    p.add_argument("--tau", required=True)
    p.add_argument("--char", required=True, help='characteristic "a1,a2"')
    p.add_argument("--z", help='point "re,im;re,im;..." (default 0)')
    p.add_argument("--target-eps", type=float, default=DEFAULT_TARGET_EPS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("nulls", help="even theta-nulls and vanishing detection")
    p.add_argument("--tau", required=True)
    p.add_argument("--target-eps", type=float, default=DEFAULT_TARGET_EPS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_nulls)

    for kind in ("quartic", "inversion"):
        p = sub.add_parser(f"verify-{kind}", help=f"residuals of the {kind} identity")
        p.add_argument("--tau", required=True)
        p.add_argument("--samples", type=int, default=DEFAULT_POLICIES["samples"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--target-eps", type=float, default=DEFAULT_TARGET_EPS)
        p.add_argument("--out")
        p.set_defaults(func=lambda args, kind=kind: _cmd_verify_identity(args, kind))

    p = sub.add_parser("basis-report", help="rank/basis analysis for one period matrix")
    p.add_argument("--tau", required=True)
    p.add_argument("--kappa0", help='even characteristic "a1,a2" (default 0)')
    p.add_argument("--target-eps", type=float, default=DEFAULT_TARGET_EPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_basis_report)

    p = sub.add_parser("run-suite", help="run a corpus of period matrices end to end")
    p.add_argument("--corpus", help="corpus JSON file")
    p.add_argument("--standard", action="store_true", help="use the built-in corpus")
    p.add_argument("--emit-corpus", help="also write the corpus that was run")
    p.add_argument("--out", help="report file (default stdout)")
    p.set_defaults(func=_cmd_run_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_paths(args)
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
