"""Command line front end: JSON reports over the library's checks.

Exit code contract, shared by every subcommand:
  0  pass (or report written and internally consistent)
  1  a mathematical check failed
  2  invalid input (bad files, bad flags, infeasible policies)
  3  warning (near-degenerate input; verdicts not trustworthy)

All file output is canonical JSON written atomically, so identical inputs
and seeds give byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from theta4 import __version__
from theta4.basis_analysis import (
    DEFAULT_NULL_THRESHOLD,
    DEFAULT_RANK_POLICY,
    NumericalRankPolicy,
    basis_report,
    check_kappa0,
    check_null_threshold,
    split_nulls,
)
from theta4.char2 import Characteristic, d_plus, enumerate_characteristics, parity
from theta4.identities import check_identity_eps, inversion_residuals, quartic_residuals
from theta4.jsonio import (
    atomic_write_text,
    canonical_dumps,
    complex_json,
    load_json,
    load_tau_file,
    parse_char_spec,
    parse_point_spec,
)
from theta4.mmatrix import build_m, verify_sign_matrix
from theta4.theta_eval import (
    DEFAULT_TARGET_EPS,
    PeriodMatrix,
    TruncationError,
    TruncationPolicy,
    block_diagonal_tau,
    random_tau,
    theta_nulls,
    theta_series,
)

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT = 2
EXIT_WARN = 3

DEFAULT_POLICIES = {
    "target_eps": DEFAULT_TARGET_EPS,
    "identity_eps": 1e-8,
    "sv_threshold": DEFAULT_RANK_POLICY.rel_sv_threshold,
    "null_threshold": DEFAULT_NULL_THRESHOLD,
    "samples": 5,
    "seed": 0,
}


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
    return EXIT_PASS


def _cmd_mmatrix(args) -> int:
    if args.emit or not args.verify:
        m = build_m(args.genus)
        _emit({"g": m.g, "dim": m.dim, "entries": m.entries.tolist()}, args.emit)
    if not args.verify:
        return EXIT_PASS
    checks = verify_sign_matrix(args.genus)
    ok = all(checks.values())
    _emit({"g": args.genus, "dim": d_plus(args.genus), "checks": checks, "ok": ok}, None)
    return EXIT_PASS if ok else EXIT_MATH_FAIL


def _cmd_theta(args) -> int:
    tau = load_tau_file(args.tau)
    char = parse_char_spec(args.char, tau.g)
    z = parse_point_spec(args.z, tau.g) if args.z else np.zeros(tau.g, dtype=complex)
    policy = TruncationPolicy(target_eps=args.eps, max_radius=args.max_radius)
    result = theta_series(char, z, tau, policy)
    payload = {
        "char": char.to_json(),
        "value": complex_json(result.value),
        "tail_bound": result.tail_bound,
        "radius": result.radius,
    }
    _emit(payload, args.out)
    return EXIT_PASS


def _cmd_nulls(args) -> int:
    tau = load_tau_file(args.tau)
    check_null_threshold(args.null_threshold)
    nulls = theta_nulls(tau, TruncationPolicy(target_eps=args.eps))
    top, vanishing, _ = split_nulls(nulls, args.null_threshold)
    rows = [
        {"char": c.to_json(), "value": complex_json(v), "abs": abs(v)} for c, v in nulls.items()
    ]
    payload = {
        "g": tau.g,
        "max_abs": top,
        "null_threshold": args.null_threshold,
        "nulls": rows,
        "vanishing": [c.to_json() for c in vanishing],
    }
    _emit(payload, args.out)
    return EXIT_PASS


def _cmd_verify_identity(args, kind: str) -> int:
    check_identity_eps(args.eps, "--eps")
    tau = load_tau_file(args.tau)
    policy = TruncationPolicy(target_eps=args.target_eps)
    if kind == "quartic":
        residuals = quartic_residuals(tau, args.samples, args.seed, policy)
    else:
        residuals = inversion_residuals(tau, args.samples, args.seed, policy)
    _emit([r.to_json() for r in residuals], args.out)
    worst = max((r.rel_residual for r in residuals), default=0.0)
    print(f"{kind}: {len(residuals)} checks, max rel residual {worst:.3e}", file=sys.stderr)
    # a record passes when the residual is small relative to the sides or
    # absolutely at the term scale (the sides may legitimately both vanish)
    return EXIT_PASS if all(r.passes(args.eps) for r in residuals) else EXIT_MATH_FAIL


def _cmd_basis_report(args) -> int:
    tau = load_tau_file(args.tau)
    kappa0 = parse_char_spec(args.kappa0, tau.g) if args.kappa0 else None
    policy = TruncationPolicy(target_eps=args.eps)
    rank_policy = NumericalRankPolicy(rel_sv_threshold=args.sv_threshold)
    report = basis_report(
        tau,
        kappa0=kappa0,
        policy=policy,
        rank_policy=rank_policy,
        null_threshold=args.null_threshold,
        seed=args.seed,
        n_samples=args.samples,
    )
    _emit(report.to_json(), args.out)
    if report.status == "warn":
        return EXIT_WARN
    return EXIT_PASS if report.consistent else EXIT_MATH_FAIL


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
                "tau": {
                    "kind": "diagonal",
                    "entries": [{"re": 0.0, "im": 1.0}, {"re": 0.0, "im": 1.0}],
                },
                "expect": {"vanishing_nulls": 1, "verdicts": False},
            },
        ],
    }


def _tau_from_source(source, base_dir: Path) -> PeriodMatrix:
    if isinstance(source, str):
        return load_tau_file(base_dir / source)
    if not isinstance(source, dict):
        raise ValueError(f"tau source must be a path or an object, got {source!r}")
    kind = source.get("kind")
    if kind == "file":
        return load_tau_file(base_dir / source["path"])
    if kind == "literal":
        return PeriodMatrix.from_json({k: v for k, v in source.items() if k != "kind"})
    if kind == "random":
        g, seed, floor = source["g"], source["seed"], source.get("floor", 1.0)
        for key, value in (("g", g), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"random tau source {key} must be an integer, got {value!r}")
        if isinstance(floor, bool) or not isinstance(floor, (int, float)):
            raise ValueError(f"random tau source floor must be a number, got {floor!r}")
        return random_tau(g, seed, float(floor))
    if kind == "diagonal":
        entries = [complex(e["re"], e["im"]) for e in source["entries"]]
        return block_diagonal_tau(entries)
    if kind == "block":
        return block_diagonal_tau([_tau_from_source(b, base_dir) for b in source["blocks"]])
    raise ValueError(f"unknown tau source kind {kind!r}")


def _load_corpus(args) -> tuple[dict, Path]:
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


def _run_entry(
    label: str, tau: PeriodMatrix, kappa0, expect: dict, seed: int, *, policy: TruncationPolicy,
    rank_policy: NumericalRankPolicy, samples: int, identity_eps: float, null_threshold: float,
) -> dict:
    result = {"label": label, "g": tau.g, "expected": expect}
    try:
        checks = verify_sign_matrix(tau.g)
        result["mmatrix_ok"] = all(checks.values())
        quartic = quartic_residuals(tau, samples, seed, policy)
        inversion = inversion_residuals(tau, samples, seed, policy)
        result["quartic_max_rel_residual"] = max(r.rel_residual for r in quartic)
        result["inversion_max_rel_residual"] = max(r.rel_residual for r in inversion)
        result["quartic_ok"] = all(r.passes(identity_eps) for r in quartic)
        result["inversion_ok"] = all(r.passes(identity_eps) for r in inversion)
        result["identity_eps"] = identity_eps
        report = basis_report(
            tau,
            kappa0=kappa0,
            policy=policy,
            rank_policy=rank_policy,
            null_threshold=null_threshold,
            seed=seed,
        )
        result["basis"] = report.to_json()
    except (ValueError, ArithmeticError, TruncationError) as exc:
        result["status"] = "error"
        result["error"] = str(exc)
        return result

    identities_ok = result["mmatrix_ok"] and result["quartic_ok"] and result["inversion_ok"]
    expected_ok = (
        len(report.vanishing) == expect["vanishing_nulls"]
        and report.point_basis_verdict == expect["verdicts"]
        and report.fourth_power_basis_verdict == expect["verdicts"]
    )
    if report.status == "warn":
        result["status"] = "warn"
    elif identities_ok and expected_ok and report.consistent:
        result["status"] = "pass"
    else:
        result["status"] = "fail"
    return result


def run_suite(corpus: dict, base_dir: Path) -> dict:
    """Execute the corpus and assemble the deterministic run report.

    Wall-clock timings go to stderr only; the report must be byte-identical
    across reruns with the same corpus.
    """
    policies = {**DEFAULT_POLICIES, **corpus.get("policies", {})}
    for key, least in (("samples", 1), ("seed", 0)):
        value = policies[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ValueError(f"policy {key} must be an integer >= {least}, got {value!r}")
    for key in ("target_eps", "identity_eps", "sv_threshold", "null_threshold"):
        value = policies[key]
        # NaN fails the comparison, and it is exact for an int too large for a float
        finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        if isinstance(value, bool) or not finite:
            raise ValueError(f"policy {key} must be a finite number, got {value!r}")
    check_identity_eps(policies["identity_eps"], "policy identity_eps")
    seed = policies["seed"]
    settings = {
        "policy": TruncationPolicy(target_eps=policies["target_eps"]),
        "rank_policy": NumericalRankPolicy(rel_sv_threshold=policies["sv_threshold"]),
        "samples": policies["samples"],
        "identity_eps": float(policies["identity_eps"]),
        "null_threshold": float(policies["null_threshold"]),
    }
    check_null_threshold(settings["null_threshold"])
    entries = corpus.get("entries", [])

    prepared = []
    labels = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "label" not in entry or "tau" not in entry:
            raise ValueError(f"corpus entry {i} must have label and tau")
        label = str(entry["label"])
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
            nulls, verdicts = expect["vanishing_nulls"], expect["verdicts"]
            if isinstance(nulls, bool) or not isinstance(nulls, int) or nulls < 0:
                raise ValueError(f"expect.vanishing_nulls must be a non-negative integer, got {nulls!r}")
            if not isinstance(verdicts, bool):
                raise ValueError(f"expect.verdicts must be true or false, got {verdicts!r}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"corpus entry {i} has a malformed kappa0 or expect: {exc!r}") from exc
        prepared.append((label, tau, kappa0, expect, seed + i))

    results = []
    for label, tau, kappa0, expect, seed in prepared:
        start = time.perf_counter()
        result = _run_entry(label, tau, kappa0, expect, seed, **settings)
        print(f"[{label}] {result['status']} ({time.perf_counter() - start:.2f}s)", file=sys.stderr)
        results.append(result)

    statuses = [r["status"] for r in results]
    if any(s in ("fail", "error") for s in statuses):
        rollup = "fail"
    elif any(s == "warn" for s in statuses):
        rollup = "warn"
    else:
        rollup = "pass"
    return {
        "version": __version__,
        "label": corpus.get("label", ""),
        "policies": policies,
        "entries": results,
        "rollup": rollup,
    }


def _cmd_run_suite(args) -> int:
    corpus, base_dir = _load_corpus(args)
    if args.emit_corpus:
        _emit(corpus, args.emit_corpus)
    start = time.perf_counter()
    report = run_suite(corpus, base_dir)
    print(f"suite rollup: {report['rollup']} ({time.perf_counter() - start:.2f}s)", file=sys.stderr)
    _emit(report, args.out)
    return {"pass": EXIT_PASS, "fail": EXIT_MATH_FAIL, "warn": EXIT_WARN}[report["rollup"]]


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
    p.add_argument("--eps", type=float, default=DEFAULT_POLICIES["target_eps"])
    p.add_argument("--max-radius", type=int, default=TruncationPolicy().max_radius)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("nulls", help="even theta-nulls and vanishing detection")
    p.add_argument("--tau", required=True)
    p.add_argument("--eps", type=float, default=DEFAULT_POLICIES["target_eps"])
    p.add_argument("--null-threshold", type=float, default=DEFAULT_POLICIES["null_threshold"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_nulls)

    for kind in ("quartic", "inversion"):
        p = sub.add_parser(f"verify-{kind}", help=f"residuals of the {kind} identity")
        p.add_argument("--tau", required=True)
        p.add_argument("--samples", type=int, default=DEFAULT_POLICIES["samples"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eps", type=float, default=DEFAULT_POLICIES["identity_eps"],
                       help="residual gate: exit 0 iff every rel residual is below this")
        p.add_argument("--target-eps", type=float, default=DEFAULT_POLICIES["target_eps"],
                       help="absolute tail target for each theta evaluation")
        p.add_argument("--out")
        p.set_defaults(func=lambda args, kind=kind: _cmd_verify_identity(args, kind))

    p = sub.add_parser("basis-report", help="rank/basis analysis for one period matrix")
    p.add_argument("--tau", required=True)
    p.add_argument("--kappa0", help='even characteristic "a1,a2" (default 0)')
    p.add_argument("--eps", type=float, default=DEFAULT_POLICIES["target_eps"])
    p.add_argument("--sv-threshold", type=float, default=DEFAULT_POLICIES["sv_threshold"])
    p.add_argument("--null-threshold", type=float, default=DEFAULT_POLICIES["null_threshold"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
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
        return args.func(args)
    except (TruncationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
