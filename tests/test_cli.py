import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import theta4
import theta4.identities as identities
import theta4.theta_eval as theta_eval
from theta4 import cli
from theta4.char2 import Characteristic, d_plus
from theta4.cli import main, standard_corpus
from theta4.jsonio import atomic_write_text, canonical_dumps
from theta4.theta_eval import PeriodMatrix, block_diagonal_tau, random_tau, theta_series


@pytest.fixture()
def tau_file(tmp_path):
    def write(name, tau: PeriodMatrix):
        path = tmp_path / name
        path.write_text(json.dumps(tau.to_json()), encoding="utf-8")
        return str(path)

    return write


@pytest.fixture()
def diag_ii(tau_file):
    return tau_file("diag_ii.json", block_diagonal_tau([1j, 1j]))


@pytest.fixture()
def rand_g2(tau_file, tau_g2_random):
    return tau_file("rand_g2.json", tau_g2_random)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def assert_unrecognized(capsys, argv, rejected: str) -> None:
    """main(argv) stops in argparse, before any lattice sum: exit 2, no report,
    and a last stderr line that names the rejected arguments."""
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    assert (stop.value.code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1] == f"theta4: error: unrecognized arguments: {rejected}"


def run_fresh(argv, env=None, **kwargs) -> subprocess.CompletedProcess:
    """A python invocation with theta4 on its path, in a fresh interpreter
    whose environment adds env."""
    env = {**os.environ, "PYTHONPATH": str(Path(theta4.__file__).parents[1]), **(env or {})}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60,
                          **kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--char", "0,0", "--target-eps", "inf"],
        ["nulls", "--target-eps", "inf"],
        ["basis-report", "--target-eps", "inf"],
        ["verify-quartic", "--target-eps", "inf"],
    ],
)
def test_infinite_target_eps_rejected_before_any_sum(capsys, rand_g2, no_lattice_sum, argv):
    code = main([*argv, "--tau", rand_g2])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: target_eps must be a finite number, got inf\n"


def verdict_argv(tmp_path, tau: str, eps: str) -> list[str]:
    """The argv of each command that reaches a verdict, with tail target eps;
    run-suite reads it from a one-entry corpus over tau."""
    corpus = tmp_path / "corpus.json"
    entry = {"label": "tau", "tau": {"kind": "file", "path": tau}}
    corpus.write_text(json.dumps({"policies": {"target_eps": float(eps), "samples": 1},
                                  "entries": [entry]}), encoding="utf-8")
    return [
        ["verify-quartic", "--tau", tau, "--samples", "1", "--target-eps", eps],
        ["verify-inversion", "--tau", tau, "--samples", "1", "--target-eps", eps],
        ["basis-report", "--tau", tau, "--target-eps", eps],
        ["run-suite", "--corpus", str(corpus)],
    ]


class TestVerdictTarget:
    """A verdict reads cut-offs down to 1e-8, so its tail target may be no coarser."""

    def test_coarse_target_rejected_before_any_sum(self, capsys, tmp_path, rand_g2, no_lattice_sum):
        # at 1e-4 tau = i fails its quartic check and i x i its basis verdict: exit 1, not 2
        for argv in verdict_argv(tmp_path, rand_g2, "1e-4"):
            out = tmp_path / "report.json"
            assert main([*argv, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err == "error: target_eps 0.0001 is above the verdict cut-off 1e-08\n"

    def test_target_at_the_cut_off_runs(self, capsys, tmp_path, tau_file):
        elliptic = tau_file("i.json", PeriodMatrix([[1j]]))
        for argv in verdict_argv(tmp_path, elliptic, "1e-8"):
            assert main(argv) == 0, argv
            capsys.readouterr()

    @pytest.mark.parametrize("argv", [["theta", "--char", "0,0"], ["nulls"]])
    def test_value_commands_keep_the_full_range(self, capsys, rand_g2, argv):
        code, payload = run(capsys, *argv, "--tau", rand_g2, "--target-eps", "1e-4")
        assert code == 0 and payload


class TestMain:
    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        built = []

        class Counting(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        jobs = [["mmatrix", "--genus", "2", "--verify"], ["chars", "--genus", "1"], ["chars", "--genus", "9"]]
        fresh = [run_fresh(["-m", "theta4.cli", *argv]) for argv in jobs]
        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counting))
        cli.build_parser.cache_clear()
        try:
            for argv, proc in zip(jobs, fresh):
                assert main(argv) == proc.returncode
                assert capsys.readouterr().out == proc.stdout
        finally:
            cli.build_parser.cache_clear()
        assert built.count("theta4") == 1

    def test_unexpected_exception_is_one_error_line(self, capsys, monkeypatch):
        def broken(g):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "enumerate_characteristics", broken)
        assert main(["chars", "--genus", "1"]) == cli.EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: internal error KeyError\('boom'\) at test_cli\.py:\d+\n", captured.err)

    @pytest.mark.parametrize("command", ["basis-report", "run-suite"])
    def test_arithmetic_error_is_input_error(self, capsys, monkeypatch, tmp_path, rand_g2, command):
        def overflowing(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "basis_report", overflowing)
        if command == "basis-report":
            assert main(["basis-report", "--tau", rand_g2]) == 2
            assert capsys.readouterr() == ("", "error: math range error\n")
        else:
            code, report = TestRunSuite.run_corpus(capsys, tmp_path, TestRunSuite.GOOD_ENTRY)
            assert (code, report["rollup"], report["entries"][0]["error"]) == (2, "error", "math range error")

    def test_interrupt_passes_through(self, monkeypatch):
        def interrupted(g):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "enumerate_characteristics", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["chars", "--genus", "1"])

    def test_numerical_commands_do_not_import_numpy_ma(self, tmp_path, tau_g2_random):
        # numpy's unique imports numpy.ma (15-18 ms, about 1.3 MB per process);
        # no numerical command calls it
        (tmp_path / "tau.json").write_text(json.dumps(tau_g2_random.to_json()), encoding="utf-8")
        corpus = {"entries": [{"label": "g2", "tau": {"kind": "random", "g": 2, "seed": 3}}]}
        (tmp_path / "corpus.json").write_text(json.dumps(corpus), encoding="utf-8")
        jobs = [["run-suite", "--corpus", "corpus.json"], ["basis-report", "--tau", "tau.json"],
                ["verify-quartic", "--tau", "tau.json", "--samples", "2"], ["nulls", "--tau", "tau.json"]]
        script = (
            "import sys\n"
            "from theta4.cli import main\n"
            f"codes = [main([*argv, '--out', 'out%d.json' % k]) for k, argv in enumerate({jobs!r})]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        proc = run_fresh(["-c", script], cwd=tmp_path)
        assert proc.stdout == "[0, 0, 0, 0] False\n", proc.stderr


class TestChars:
    def test_enumerate(self, capsys):
        code, payload = run(capsys, "chars", "--genus", "2")
        assert code == 0
        assert payload["count"] == 16
        assert payload["characteristics"][0] == {
            "index": 0,
            "a1": [0, 0],
            "a2": [0, 0],
            "parity": 1,
        }

    def test_even_only(self, capsys):
        code, payload = run(capsys, "chars", "--genus", "2", "--even-only")
        assert code == 0
        assert payload["count"] == 10
        assert all(row["parity"] == 1 for row in payload["characteristics"])

    def test_bad_genus(self, capsys):
        code, _ = run(capsys, "chars", "--genus", "9")
        assert code == 2


class TestOutputErrors:
    """A failed --out write names the given path, never the temporary file,
    and leaves no temporary file behind; an output path that names an input
    or another output is refused before anything runs."""

    def test_directory_target(self, capsys, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        code = main(["chars", "--genus", "1", "--out", str(target)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(target) in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == [target] and not any(target.iterdir())

    def test_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code = main(["chars", "--genus", "1", "--out", str(target)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(target) in err and ".tmp" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        ("theta --tau t.json --char 0,0 --out t.json", "--out t.json names the same file as --tau"),
        ("nulls --tau t.json --out sub/../t.json", "--out sub/../t.json names the same file as --tau"),
        ("basis-report --tau t.json --out ./t.json", "--out ./t.json names the same file as --tau"),
        ("verify-quartic --tau t.json --out link.json", "--out link.json names the same file as --tau"),
        ("run-suite --corpus c.json --out c.json", "--out c.json names the same file as --corpus"),
        ("run-suite --corpus c.json --emit-corpus ./c.json", "--emit-corpus ./c.json names the same file as --corpus"),
        ("run-suite --standard --out r.json --emit-corpus r.json", "--emit-corpus r.json names the same file as --out"),
        ("run-suite --corpus p.json --out t.json", "--out t.json names the same file as corpus entry 0's tau source"),
        ("run-suite --corpus f.json --emit-corpus link.json",
         "--emit-corpus link.json names the same file as corpus entry 1's tau source"),
        ("run-suite --corpus b.json --out sub/../t.json",
         "--out sub/../t.json names the same file as corpus entry 0's tau source"),
    ], ids=["theta", "nulls-dotdot", "basis-report-dot", "verify-symlink", "suite-out", "suite-emit", "suite-outputs",
            "suite-out-path-source", "suite-emit-file-source", "suite-out-block-leaf"])
    def test_output_naming_an_input_or_output_rejected(self, capsys, monkeypatch, tmp_path, no_lattice_sum,
                                                       argv, message):
        # the report would replace the input, or one output the other: exit 2, no file touched
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        # corpora whose tau sources read t.json: a bare path, a file source, a block's leaf
        file_source = {"kind": "file", "path": "t.json"}
        sources = {"p": "t.json", "f": file_source, "b": {"kind": "block", "blocks": [file_source]}}
        inputs = {"t.json": json.dumps(random_tau(2, 7).to_json()),
                  "c.json": json.dumps({"entries": [TestRunSuite.GOOD_ENTRY]}),
                  **{f"{name}.json": json.dumps({"entries": [{"label": "t", "tau": source}]})
                     for name, source in sources.items()}}
        inputs["f.json"] = json.dumps({"entries": [TestRunSuite.GOOD_ENTRY, {"label": "t", "tau": file_source}]})
        for name, text in inputs.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        (tmp_path / "link.json").symlink_to("t.json")
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.glob("?.json")} == inputs

    @pytest.mark.parametrize("argv", [
        ["nulls", "--tau", "t.json", "--out", ""],
        ["run-suite", "--standard", "--out", ""],
        ["run-suite", "--standard", "--emit-corpus", ""],
    ], ids=["nulls-out", "suite-out", "suite-emit"])
    def test_empty_output_path_is_a_failed_write(self, capsys, monkeypatch, tmp_path, argv):
        # "" is a given path, the working directory, which no report replaces: not stdout
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.json").write_text(json.dumps(random_tau(2, 7).to_json()), encoding="utf-8")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if line.startswith("error:")]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]

    @pytest.mark.parametrize("argv, flag, path", [
        ("run-suite --standard --out d", "--out", "d"),
        ("run-suite --standard --out r.json --emit-corpus d", "--emit-corpus", "d"),
        ("run-suite --standard --emit-corpus link", "--emit-corpus", "link"),
        ("nulls --tau t.json --out d/", "--out", "d/"),
        ("basis-report --tau t.json --out .", "--out", "."),
        ("mmatrix --genus 2 --verify --out d", "--out", "d"),
    ], ids=["suite-out", "suite-emit", "suite-emit-symlink", "nulls", "basis-report-dot", "mmatrix-verify"])
    def test_directory_output_refused_before_any_work(self, capsys, monkeypatch, tmp_path, no_lattice_sum,
                                                      argv, flag, path):
        # no report can replace a directory: exit 2 on one error: line before any entry,
        # sweep or sign check runs, so no entry line or rollup reaches stderr
        def refuse(*args):
            raise AssertionError("the sign check ran")

        monkeypatch.setattr(cli, "verify_sign_matrix", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "link").symlink_to("d")
        (tmp_path / "t.json").write_text(json.dumps(random_tau(2, 7).to_json()), encoding="utf-8")
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", f"error: {flag} {path} names a directory, not a file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "link", "t.json"]
        assert not any((tmp_path / "d").iterdir())

    @pytest.mark.parametrize("parent", ["missing", "f"], ids=["missing-parent", "file-parent"])
    @pytest.mark.parametrize("argv, flag", [
        ("run-suite --standard --out {}/r.json", "--out"),
        ("run-suite --standard --out r.json --emit-corpus {}/c.json", "--emit-corpus"),
        ("nulls --tau t.json --out {}/n.json", "--out"),
        ("mmatrix --genus 2 --verify --out {}/m.json", "--out"),
    ], ids=["suite-out", "suite-emit", "nulls", "mmatrix-verify"])
    def test_output_outside_a_directory_refused_before_any_work(self, capsys, monkeypatch, tmp_path, no_lattice_sum,
                                                                argv, flag, parent):
        # no write can succeed where the parent is missing or a regular file: exit 2 on
        # one error: line before any entry, sweep or sign check runs, and no file is made
        def refuse(*args):
            raise AssertionError("the sign check ran")

        monkeypatch.setattr(cli, "verify_sign_matrix", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").write_text("", encoding="utf-8")
        (tmp_path / "t.json").write_text(json.dumps(random_tau(2, 7).to_json()), encoding="utf-8")
        argv = argv.format(parent).split()
        path = argv[argv.index(flag) + 1]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {flag} {path} is not in an existing directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "t.json"]
        assert (tmp_path / "f").read_text(encoding="utf-8") == ""

    def test_output_in_the_working_directory_written(self, capsys, monkeypatch, tmp_path):
        # a bare file name's parent is the working directory, which exists
        monkeypatch.chdir(tmp_path)
        assert main(["mmatrix", "--genus", "2", "--verify", "--out", "r.json"]) == 0
        assert capsys.readouterr() == ("", "")
        assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["ok"] is True

    def test_interrupted_write_removes_temporary_file(self, tmp_path, monkeypatch):
        class Interrupted:
            """An open temporary file whose write is interrupted."""

            def __init__(self, fd, *args, **kwargs):
                self.fd = fd

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                os.close(self.fd)

            def write(self, text):
                raise KeyboardInterrupt

        monkeypatch.setattr(os, "fdopen", Interrupted)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(tmp_path / "x.json", "{}\n")
        assert not any(tmp_path.iterdir())


def test_report_file_takes_the_umask(capsys, tmp_path):
    # the temporary file is made 0600; the report gets the mode open() would give it
    new, overwritten = tmp_path / "new.json", tmp_path / "old.json"
    overwritten.write_text("")
    overwritten.chmod(0o644)
    umask = os.umask(0o027)
    try:
        for target in (new, overwritten):
            assert main(["chars", "--genus", "1", "--out", str(target)]) == 0
    finally:
        os.umask(umask)
    assert [p.stat().st_mode & 0o777 for p in (new, overwritten)] == [0o640, 0o640]


class TestMmatrix:
    def test_verify_passes(self, capsys):
        keys = {"entries_pm1", "diagonal_plus1", "symmetric", "quadratic_identity", "inverse_identity",
                "row_sum_closed_form"}
        for g in range(1, 6):
            code, payload = run(capsys, "mmatrix", "--genus", str(g), "--verify")
            assert code == 0
            assert payload["g"] == g and payload["dim"] == d_plus(g)
            assert payload["checks"] == dict.fromkeys(keys, True)
            assert payload["ok"] is True

    def test_emit_matches_library(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        code, _ = run(capsys, "mmatrix", "--genus", "1", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["entries"] == [[1, 1, 1], [1, 1, -1], [1, -1, 1]]
        assert payload["g"] == 1 and payload["dim"] == 3

    def test_verify_out_writes_checks(self, capsys, tmp_path):
        out = tmp_path / "checks.json"
        code, printed = run(capsys, "mmatrix", "--genus", "2", "--verify", "--out", str(out))
        assert (code, printed) == (0, None)
        payload = json.loads(out.read_text())
        assert payload["ok"] is True and payload["dim"] == d_plus(2) and all(payload["checks"].values())

    def test_emit_flag_rejected(self, capsys, tmp_path):
        out = str(tmp_path / "m.json")
        assert_unrecognized(capsys, ["mmatrix", "--genus", "1", "--emit", out], f"--emit {out}")

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_genus_past_cap_is_input_error(self, capsys, verify):
        assert main(["mmatrix", "--genus", "6", *verify]) == 2
        assert capsys.readouterr() == ("", "error: genus must be an integer in 1..5, got 6\n")


class TestTheta:
    def test_value_matches_library(self, capsys, rand_g2, tau_g2_random):
        code, payload = run(
            capsys, "theta", "--tau", rand_g2, "--char", "01,10", "--z", "0.1,0.2;0.3,-0.1"
        )
        assert code == 0
        expected = theta_series(
            Characteristic((0, 1), (1, 0)),
            np.array([0.1 + 0.2j, 0.3 - 0.1j]),
            tau_g2_random,
        ).value
        got = complex(payload["value"]["re"], payload["value"]["im"])
        assert abs(got - expected) < 1e-12
        assert payload["tail_bound"] < 1e-10
        assert payload["radius"] >= 1

    def test_integer_char_spec(self, capsys, rand_g2):
        code_a, payload_a = run(capsys, "theta", "--tau", rand_g2, "--char", "01,10")
        code_b, payload_b = run(capsys, "theta", "--tau", rand_g2, "--char", "1,2")
        assert code_a == code_b == 0
        assert payload_a["value"] == payload_b["value"]

    def test_bad_char(self, capsys, rand_g2):
        code, _ = run(capsys, "theta", "--tau", rand_g2, "--char", "012,10")
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--char", "0"], 'characteristic must look like "a1,a2"'),
            (["--char", "0,x"], "cannot parse characteristic half 'x'"),
            (["--z", "1,2"], "point must have 2 components, got shape (1,)"),
            (["--z", "1;2"], 'point component must look like "re,im"'),
            (["--z", "a,b;c,d"], "cannot parse point component 'a,b'"),
        ],
    )
    def test_malformed_spec_is_input_error(self, capsys, rand_g2, flags, message):
        code = main(["theta", "--tau", rand_g2, "--char", "0,0", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err

    def test_missing_tau_file(self, capsys, tmp_path):
        code, _ = run(capsys, "theta", "--tau", str(tmp_path / "nope.json"), "--char", "0,0")
        assert code == 2

    def test_overflowing_point_is_input_error(self, capsys, tau_file):
        # exp(pi y'Y^-1 y) = exp(900 pi) is beyond double range: no traceback, exit 2
        tau_i = tau_file("tau_i.json", PeriodMatrix([[1j]]))
        code = main(["theta", "--tau", tau_i, "--char", "0,0", "--z", "0,30"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "30j" in captured.err

    @pytest.mark.parametrize("z", ["0,1e307;0,0", "0,1e160;0,1e160"], ids=["nan-scale", "inf-scale"])
    def test_point_past_double_range_is_one_error_line(self, tau_file, z):
        # y'Y^-1 y is NaN for the first point and inf for the second: the one
        # line on stderr names the point, with no RuntimeWarning before it
        tau = tau_file("narrow.json", PeriodMatrix([[0.01j, 0.005j], [0.005j, 0.01j]]))
        proc = run_fresh(["-m", "theta4.cli", "theta", "--tau", tau, "--char", "01,10", "--z", z])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: theta scale exp(pi y'Y^-1 y) at z = [1e+")
        assert "overflows double precision" in proc.stderr

    @pytest.mark.parametrize("tau, z, eps, code", [
        ([[1j]], "0,15.028", "1e-11", 2),
        ([[1j]], "0,15.0305", "1e-11", 2),
        ([[0.01j, 0], [0, 0.01j]], "0,1.49857;0,0", "1e300", 2),
        ([[1j]], "0,15.02", "1e-11", 0),
    ], ids=["bound-factor", "bound-factor-and-values", "values", "largest-value"])
    def test_point_scale_edge(self, capsys, tau_file, tau, z, eps, code):
        # below the scale's own limit, the tail bound's factor amp 2g (2 + 1/sqrt(lam))^(g-1)
        # or the values can still leave the double range: one error line naming the point,
        # no RuntimeWarning (which this suite turns into an exit-4 exception)
        path = tau_file("edge.json", PeriodMatrix(tau))
        assert main(["theta", "--tau", path, "--char", "0,0", "--z", z, "--target-eps", eps]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == "" and len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: theta ") and f"{z.split(';')[0][2:]}j" in captured.err
            assert "overflow" in captured.err
        else:
            assert json.loads(captured.out)["value"]["re"] == pytest.approx(6.91e307, rel=1e-3)

    def test_radius_past_cap_is_input_error(self, capsys, tau_file):
        # Im tau = 1e-3 passes the degeneracy check, but the tail target needs radius 93
        flat = tau_file("flat.json", PeriodMatrix([[0.001j]]))
        code = main(["theta", "--tau", flat, "--char", "0,0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: lattice-sum radius 93 needed to meet the tail target, cap is 64\n"

    def test_max_radius_flag_is_gone(self, capsys, rand_g2):
        # the cap is fixed at 64: the flag is an unknown argument, a usage error
        with pytest.raises(SystemExit) as err:
            main(["theta", "--tau", rand_g2, "--char", "0,0", "--max-radius", "5"])
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --max-radius 5" in captured.err


# (fields over a valid genus-1 tau file, start of the error message)
TAU_FILE_CASES = [
    ({"g": [1]}, '"g" must be the integer size of the (1, 1) matrix, got [1]'),
    ({"g": 1.5}, '"g" must be the integer size'),
    ({"g": True}, '"g" must be the integer size'),
    ({"g": "1"}, '"g" must be the integer size'),
    ({"re": [[{"x": 1}]]}, "re entry must be a finite number, got {'x': 1}"),
    ({"re": [["0.5"]], "im": [["1"]]}, "re entry must be a finite number, got '0.5'"),
    ({"im": [["1"]]}, "im entry must be a finite number, got '1'"),
    ({"re": [[True]]}, "re entry must be a finite number, got True"),
    ({"g": 2, "re": [[0, 0], [0]], "im": [[1, 0], [0, 1]]}, "re and im blocks must be arrays of numbers"),
    ({"g": 2, "re": [0, 0], "im": [[1, 0], [0, 1]]}, "re block must be an array of arrays of numbers"),
    ({"g": 2, "im": [[1, 0], [0, 1]]}, "re and im blocks must have the same shape"),
    # json reads 10^400 as an exact int, which a float cannot hold
    ({"re": [[10**400]]}, "re entry must be a finite number, got 1" + "0" * 400),
    ({"gg": 3}, "period matrix JSON has unknown key 'gg'; known keys: g, re, im"),
]


class TestNulls:
    def test_product_lists_vanishing(self, capsys, diag_ii):
        code, payload = run(capsys, "nulls", "--tau", diag_ii)
        assert code == 0
        assert payload["vanishing"] == [{"a1": [1, 1], "a2": [1, 1]}]
        assert len(payload["nulls"]) == 10

    def test_generic_has_none(self, capsys, rand_g2):
        code, payload = run(capsys, "nulls", "--tau", rand_g2)
        assert code == 0
        assert payload["vanishing"] == []

    def test_genus_6(self, capsys, tau_file):
        # the top genus nulls runs at: every even null is finite and none vanishes
        code, payload = run(capsys, "nulls", "--tau", tau_file("g6.json", random_tau(6, seed=3)))
        assert code == 0
        assert len(payload["nulls"]) == d_plus(6) == 2080
        values = [v for row in payload["nulls"] for v in (row["value"]["re"], row["value"]["im"], row["abs"])]
        assert all(map(math.isfinite, values))
        assert payload["vanishing"] == []

    @pytest.mark.parametrize(
        "fields, message", TAU_FILE_CASES, ids=[f"fields{i}" for i in range(len(TAU_FILE_CASES))]
    )
    def test_malformed_tau_file_is_input_error(self, capsys, tmp_path, fields, message):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"g": 1, "re": [[0.0]], "im": [[1.0]], **fields}), encoding="utf-8")
        code = main(["nulls", "--tau", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, what", [("nulls --tau", "period matrix file"),
                                           ("run-suite --corpus", "corpus file")])
@pytest.mark.parametrize("data, message", [
    (b'\xff{"g": 1}', "cannot read {what} {path}: 'utf-8' codec can't decode byte 0xff"),
    (b'{"g": 1, "re": [[1' + b"0" * 5000 + b"]]}", "malformed JSON in {what} {path}: Exceeds the limit"),
    (b'{"re": ' + b"[" * 100_000, "malformed JSON in {what} {path}: maximum recursion depth exceeded"),
], ids=["not-utf-8", "int-past-digit-limit", "nested-past-recursion-limit"])
def test_unparsable_file_is_named(capsys, tmp_path, command, what, data, message):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    assert main([*command.split(), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(what=what, path=path))


@pytest.mark.parametrize("command", ["nulls", "basis-report"])
@pytest.mark.parametrize("threshold", ["0", "1.5"])
def test_out_of_range_null_threshold_rejected(capsys, diag_ii, no_lattice_sum, command, threshold):
    # the null cut-off is a constant: no value of the flag is accepted
    assert_unrecognized(capsys, [command, "--tau", diag_ii, "--null-threshold", threshold],
                        f"--null-threshold {threshold}")


@pytest.mark.parametrize("argv, message", [
    (["theta", "--char", "0,0", "--z", ""], "point must have 2 components, got shape (0,)"),
    (["basis-report", "--kappa0", ""], "characteristic must look like \"a1,a2\", got ''"),
    (["run-suite", "--standard", "--corpus", ""], "run-suite takes --corpus FILE or --standard, not both"),
], ids=["theta-z", "basis-report-kappa0", "run-suite-corpus"])
def test_empty_flag_value_is_read_as_given(capsys, rand_g2, no_lattice_sum, argv, message):
    # an empty value is not an absent flag: the flag's own rule rejects it before any lattice sum
    tau = [] if argv[0] == "run-suite" else ["--tau", rand_g2]
    assert main([*argv, *tau]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["theta", "--char", "0,0", "--eps", "1e-11"],
    ["nulls", "--eps", "1e-11"],
    ["nulls", "--null-threshold", "1e-8"],
    ["basis-report", "--eps", "1e-11"],
    ["basis-report", "--null-threshold", "1e-8"],
    ["basis-report", "--sv-threshold", "1e-7"],
    ["verify-quartic", "--eps", "1e-8"],
    ["verify-inversion", "--eps", "1e-8"],
])
def test_removed_flag_is_unrecognized(capsys, rand_g2, no_lattice_sum, argv):
    # no flag sets a verdict cut-off and the tail target is --target-eps on every
    # command, so these stop in argparse before any lattice sum, even at the cut-off values
    assert_unrecognized(capsys, [*argv, "--tau", rand_g2], " ".join(argv[-2:]))


def test_shared_flags_mean_the_same_on_every_command():
    # a flag of several commands has one type, default and required on all of
    # them, and the policy flags default to the corpus policies
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    seen = {}
    for command, parser in sub.choices.items():
        for action in parser._actions:
            for option in action.option_strings:
                spec = (action.type, action.default, action.required)
                first, first_spec = seen.setdefault(option, (command, spec))
                assert spec == first_spec, (option, command, first)
    for option, key in (("--target-eps", "target_eps"), ("--samples", "samples"), ("--seed", "seed")):
        assert seen[option][1][1] == cli.DEFAULT_POLICIES[key]


def test_readme_usage_lines_parse():
    # each theta4 line of the README, in the usage block or inline, is a command the parser takes
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^theta4 .*$", readme, re.M) + re.findall(r"`(theta4 [^`]*)`", readme)
    assert len(lines) >= 9
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


class TestVerifyIdentities:
    def test_quartic_passes(self, capsys, rand_g2):
        code, payload = run(
            capsys, "verify-quartic", "--tau", rand_g2, "--samples", "3", "--seed", "1",
        )
        assert code == 0
        assert sorted(payload) == ["records", "target_eps", "tau"]
        assert payload["tau"] == json.loads(Path(rand_g2).read_text())
        assert payload["target_eps"] == 1e-11
        records = payload["records"]
        assert len(records) == 3 * 16
        assert all(rec["rel_residual"] < 1e-8 for rec in records)
        assert not any("tau" in rec or "policy" in rec for rec in records)

    def test_quartic_impossible_gate_fails(self, capsys, monkeypatch, rand_g2):
        # no flag moves the residual cut-off; at one no sweep can meet, the command exits 1
        monkeypatch.setattr(identities, "IDENTITY_EPS", 1e-15)
        code, _ = run(capsys, "verify-quartic", "--tau", rand_g2, "--samples", "2", "--seed", "1")
        assert code == 1

    @pytest.mark.parametrize("kind", ["quartic", "inversion"])
    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
    def test_nonsense_gate_rejected_before_any_sum(self, capsys, rand_g2, no_lattice_sum, kind, eps):
        # the residual cut-off is a constant: no gate is accepted, sensible or not
        assert_unrecognized(capsys, [f"verify-{kind}", "--tau", rand_g2, "--samples", "1", "--eps", eps],
                            f"--eps {eps}")

    def test_inversion_passes_on_product(self, capsys, diag_ii):
        # the vanishing-pair record is 0 = 0 and passes at term scale
        code, payload = run(
            capsys, "verify-inversion", "--tau", diag_ii, "--samples", "2", "--seed", "3",
        )
        assert code == 0
        assert len(payload["records"]) == 2 * 10

    @pytest.mark.parametrize("kind, line", [
        ("quartic", "quartic: 20 checks, max rel residual 1.000e+00 (8 pass only at term scale)\n"),
        ("inversion", "inversion: 15 checks, max rel residual 1.000e+00 (5 pass only at term scale)\n"),
    ])
    def test_summary_counts_term_scale_passes(self, capsys, tau_file, kind, line):
        # at tau = 25i some records' sides are ~1e-22 of their largest term, so
        # cancellation leaves a relative residual ~1: they pass only at term scale
        path = tau_file("tau_25i.json", PeriodMatrix([[25j]]))
        code = main([f"verify-{kind}", "--tau", path, "--samples", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == line
        records = json.loads(captured.out)["records"]
        at_scale = [r for r in records if not r["rel_residual"] < 1e-8]
        assert all(r["abs_residual"] < 1e-8 * r["scale"] for r in at_scale)
        assert f"({len(at_scale)} pass only at term scale)" in line

    def test_peak_memory_below_five_times_report(self, monkeypatch, tau_file, traced_peak):
        # the records are the dicts the report is written from: the sweep, the
        # records and the report text together stay below 5x the text
        class Length:
            """A stdout that keeps only the number of characters written to it."""

            n = 0

            def write(self, text):
                self.n += len(text)
                return len(text)

        argv = ["verify-quartic", "--tau", tau_file("g3.json", random_tau(3, seed=5)), "--seed", "1"]
        monkeypatch.setattr(sys, "stdout", Length())
        assert main(argv + ["--samples", "1"]) == 0  # builds the parser and the genus-3 tables
        stdout = Length()
        monkeypatch.setattr(sys, "stdout", stdout)
        code, peak = traced_peak(lambda: main(argv + ["--samples", "50"]))
        assert code == 0 and stdout.n > 10**6
        assert peak < 5 * stdout.n, peak / stdout.n


class TestBasisReport:
    def test_generic_consistent(self, capsys, rand_g2, tmp_path):
        out = tmp_path / "report.json"
        code, _ = run(capsys, "basis-report", "--tau", rand_g2, "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ev_matrix_rank"] == 10
        assert payload["point_basis_verdict"] is True
        assert payload["consistent"] is True

    def test_product_expected_failure_is_consistent(self, capsys, diag_ii):
        code, payload = run(capsys, "basis-report", "--tau", diag_ii)
        assert code == 0
        assert payload["fourth_power_rank"] == 9
        assert payload["point_basis_verdict"] is False
        assert payload["consistent"] is True

    def test_near_degenerate_warns(self, capsys, tau_file):
        warn_tau = tau_file("warn.json", PeriodMatrix([[1j, 1e-6], [1e-6, 1j]]))
        code, payload = run(capsys, "basis-report", "--tau", warn_tau)
        assert code == 3
        assert payload["status"] == "warn"

    def test_overflowing_fourth_powers_are_one_error_line(self, capsys, tau_file):
        # at tau = 100i the sampled |theta[a](z)|^4 pass the double range
        code = main(["basis-report", "--tau", tau_file("far.json", PeriodMatrix([[100j]]))])
        assert code == 2
        assert capsys.readouterr() == ("", "error: a sampled fourth power theta[a](z)^4 overflows double precision\n")

    def test_odd_kappa0_rejected(self, capsys, rand_g2):
        code, _ = run(capsys, "basis-report", "--tau", rand_g2, "--kappa0", "10,10")
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kappa0", "0000,16"], "a2=16 out of range for genus 4"),
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
            (["--kappa0", "1000,1000"], "kappa0 must be even"),
            (["--null-threshold", "0"], "unrecognized arguments: --null-threshold 0"),
            (["--tau", "g6.json"], "genus must be an integer in 1..5, got 6"),
            (["--sv-threshold", "2"], "unrecognized arguments: --sv-threshold 2"),
        ],
    )
    def test_bad_argument_rejected_before_any_sum(self, capsys, tau_file, monkeypatch, tmp_path, flags, message):
        points = []
        build = theta_eval._theta_groups

        def counting(pts, *args):
            points.append(len(pts))
            return build(pts, *args)

        monkeypatch.setattr(theta_eval, "_theta_groups", counting)
        # a case picks the genus-6 tau with a second --tau, which argparse lets win
        monkeypatch.chdir(tmp_path)
        tau_file("g6.json", random_tau(6, 1))
        try:
            code = main(["basis-report", "--tau", tau_file("g4.json", random_tau(4, 3)), *flags])
        except SystemExit as stop:  # argparse rejects a removed flag
            code = stop.code
        captured = capsys.readouterr()
        assert (code, sum(points), captured.out) == (2, 0, "")
        assert captured.err.splitlines()[-1].removeprefix("theta4: ").startswith(f"error: {message}")


# a genus-1000 source of each kind that states its genus: each is rejected before its tau is built
HUGE_SOURCES = [
    {"kind": "random", "g": 1000, "seed": 1},
    {"kind": "block", "blocks": [{"kind": "literal", "re": [[0.0]], "im": [[1.0]]}] * 1000},
]


class TestRunSuite:
    GOOD_ENTRY = {"label": "a", "tau": {"kind": "random", "g": 1, "seed": 0}}
    # theta at its sampled points overflows double precision: the entry ends in error
    FAR_ENTRY = {"label": "far", "tau": {"kind": "literal", "re": [[0.0]], "im": [[100.0]]}}
    PRODUCT_ENTRY = {
        "label": "product-undeclared",
        "tau": {"kind": "block", "blocks": [{"kind": "literal", "re": [[0.0]], "im": [[1.0]]}] * 2},
    }
    NEAR_ENTRY = {
        "label": "near-degenerate",
        "tau": {"kind": "literal", "re": [[0.0, 1e-6], [1e-6, 0.0]], "im": [[1.0, 0.0], [0.0, 1.0]]},
    }

    @staticmethod
    def run_corpus(capsys, tmp_path, *entries):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"entries": list(entries)}), encoding="utf-8")
        return run(capsys, "run-suite", "--corpus", str(corpus))

    def test_standard_corpus_passes_and_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert main(["run-suite", "--standard", "--out", str(first)]) == 0
        assert main(["run-suite", "--standard", "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        assert report["rollup"] == "pass"
        assert [e["status"] for e in report["entries"]] == ["pass", "pass", "pass"]

    def test_standard_verdicts_pinned(self, capsys):
        # float digits may move when the kernel's summation order changes; verdicts may not
        code, report = run(capsys, "run-suite", "--standard")
        assert code == 0
        assert report["rollup"] == "pass"
        verdicts = {
            e["label"]: (
                e["status"],
                e["mmatrix_ok"],
                e["quartic_ok"],
                e["inversion_ok"],
                e["basis"]["ev_matrix_rank"],
                e["basis"]["fourth_power_rank"],
                e["basis"]["point_basis_verdict"],
                e["basis"]["fourth_power_basis_verdict"],
                e["basis"]["consistent"],
                e["basis"]["vanishing_nulls"],
                e["basis"]["near_vanishing_nulls"],
            )
            for e in report["entries"]
        }
        product_null = [{"a1": [1, 1], "a2": [1, 1]}]
        assert verdicts == {
            "g1-elliptic-i": ("pass", True, True, True, 3, 3, True, True, True, [], []),
            "g2-random-7": ("pass", True, True, True, 10, 10, True, True, True, [], []),
            "g2-product-ii": ("pass", True, True, True, 9, 9, False, False, True, product_null, []),
        }

    def test_stderr_counts_term_scale_passes(self, capsys):
        # the product's inversion maximum of 1 comes from its 5 records that pass only at term scale
        assert main(["run-suite", "--standard"]) == 0
        lines = capsys.readouterr().err.splitlines()
        counts = [re.fullmatch(r"\[(.+)\] pass \(\d+\.\d\ds; term-scale passes: (.+)\)", line)
                  for line in lines[:-1]]
        assert [m.groups() for m in counts] == [
            ("g1-elliptic-i", "quartic 0, inversion 0"),
            ("g2-random-7", "quartic 0, inversion 0"),
            ("g2-product-ii", "quartic 0, inversion 5"),
        ]
        assert re.fullmatch(r"suite rollup: pass \(\d+\.\d\ds\)", lines[-1])

    def test_empty_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "empty.json"
        corpus.write_text(json.dumps({"entries": []}), encoding="utf-8")
        code, payload = run(capsys, "run-suite", "--corpus", str(corpus))
        assert code == 0
        assert payload["entries"] == [] and payload["rollup"] == "pass"

    def test_malformed_tau_leaves_no_report(self, capsys, tmp_path):
        bad = tmp_path / "bad_tau.json"
        bad.write_text("{not json", encoding="utf-8")
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps({"entries": [{"label": "x", "tau": "bad_tau.json"}]}), encoding="utf-8"
        )
        out = tmp_path / "report.json"
        code, _ = run(capsys, "run-suite", "--corpus", str(corpus), "--out", str(out))
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("expect", [{"vanishing_nulls": 0, "verdicts": False},
                                        {"vanishing_nulls": 1, "verdicts": True}])
    def test_expectation_against_theorem_rejected_at_load(self, capsys, tmp_path, no_lattice_sum, expect):
        # the verdicts are true exactly when no null vanishes, so no entry can meet this expectation
        corpus = tmp_path / "corpus.json"
        bad = {**self.PRODUCT_ENTRY, "expect": expect}
        corpus.write_text(json.dumps({"entries": [self.GOOD_ENTRY, bad]}), encoding="utf-8")
        out = tmp_path / "report.json"
        code = main(["run-suite", "--corpus", str(corpus), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: corpus entry 1 expects verdicts {expect['verdicts']!r} with vanishing_nulls "
                       f"{expect['vanishing_nulls']}; the verdicts are true exactly when no null vanishes\n")
        assert not out.exists()

    def test_unexpected_vanishing_fails(self, capsys, tmp_path):
        code, payload = self.run_corpus(capsys, tmp_path, self.PRODUCT_ENTRY)
        assert code == 1
        assert payload["rollup"] == "fail"
        assert payload["entries"][0]["status"] == "fail"

    def test_duplicate_labels_rejected(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.json"
        entry = {"label": "same", "tau": {"kind": "random", "g": 1, "seed": 0, "floor": 1.0}}
        corpus.write_text(json.dumps({"entries": [entry, entry]}), encoding="utf-8")
        code, _ = run(capsys, "run-suite", "--corpus", str(corpus))
        assert code == 2

    @pytest.mark.parametrize(
        "fields",
        [
            {"tau": {"kind": "block", "blocks": [{"kind": "literal", "re": [[0]]}]}},
            {"kappa0": [1]},
            {"kappa0": "1,1"},
            {"expect": 5},
            {"expect": {"vanishing_nulls": [1]}},
            {"expect": {"vanishing_nulls": 1.9}},
            {"expect": {"vanishing_nulls": True}},
            {"expect": {"vanishing_nulls": "1"}},
            {"expect": {"vanishing_nulls": -1}},
            {"expect": {"verdicts": "false"}},
            {"expect": {"verdicts": 1}},
            {"expect": {"verdicts": None}},
            {"tau": {"kind": "random", "g": 1.7, "seed": 2.9}},
            {"tau": {"kind": "random", "g": 1.7, "seed": 2}},
            {"tau": {"kind": "random", "g": 1, "seed": 2.9}},
            {"tau": {"kind": "random", "g": True, "seed": 2}},
            {"tau": {"kind": "random", "g": 1, "seed": False}},
            {"tau": {"kind": "random", "g": "1", "seed": 2}},
            {"tau": {"kind": "random", "g": 1, "seed": 2, "floor": "1.0"}},
            {"tau": {"kind": "random", "g": 1, "seed": 2, "floor": True}},
            {"tau": {"kind": "random", "g": 6, "seed": 1}},
            {"tau": {"kind": "random", "g": 7, "seed": 1}},
            {"tau": {"kind": "block", "blocks": [{"kind": "literal", "re": [[True]], "im": [[1.0]]}]}},
            {"tau": {"kind": "spiral", "g": 1}},
            {"tau": 5},
            *({"tau": source} for source in HUGE_SOURCES),
            {"label": True},
            {"label": {"k": [1]}},
            {"label": 7},
            {"tau": {"kind": "random", "g": 1, "seed": 1, "flor": 3.0}},
            {"tau": {"kind": "block", "blocks": [{"kind": "block", "blocks": [{"kind": "random", "g": 1,
                                                                               "seed": 0}]}]}},
        ],
    )
    def test_malformed_tau_source_names_entry(self, capsys, monkeypatch, tmp_path, fields):
        built = []  # the genus of every tau a source builds
        random_tau_, block_diagonal_tau_ = cli.random_tau, cli.block_diagonal_tau
        monkeypatch.setattr(cli, "random_tau", lambda g, *args: built.append(g) or random_tau_(g, *args))
        monkeypatch.setattr(
            cli,
            "block_diagonal_tau",
            lambda blocks: built.append(sum(b.g for b in blocks)) or block_diagonal_tau_(blocks),
        )
        good = {"label": "ok", "tau": {"kind": "random", "g": 1, "seed": 0}}
        bad = {"label": "bad", "tau": {"kind": "random", "g": 1, "seed": 1}, **fields}
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"entries": [good, bad]}), encoding="utf-8")
        out = tmp_path / "report.json"
        code = main(["run-suite", "--corpus", str(corpus), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: corpus entry 1") and err.count("\n") == 1 and "[ok]" not in err
        assert not out.exists()
        source = fields.get("tau")
        if isinstance(source, dict) and source.get("g") in (6, 7):
            # a genus the exact layer cannot run is an input error, not a kappa0 one
            assert "1..5" in err and "kappa0" not in err
        if source in HUGE_SOURCES:
            assert ("corpus entry 1 has a malformed tau source: "
                    "ValueError('genus must be an integer in 1..5, got 1000')") in err
        assert max(built) <= 5  # no tau above the cap was built

    @pytest.mark.parametrize("source, message", [
        ({"kind": "block", "blocks": [{"kind": "literal", "re": [[10**400]], "im": [[1.0]]}]},
         "re entry must be a finite number, got 1" + "0" * 400),
        ({"kind": "random", "g": 1, "seed": 2, "floor": 10**400},
         "floor must be a finite number, got 1" + "0" * 400),
    ], ids=["literal-in-block", "random-floor"])
    def test_int_beyond_float_range_is_input_error(self, capsys, tmp_path, source, message):
        # json reads 10^400 as an exact int; a float of it would overflow
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"entries": [{"label": "huge", "tau": source}]}), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["run-suite", "--corpus", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corpus entry 0 has a malformed tau source") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, message",
        [
            (["--corpus", "{corpus}"], "corpus entry 0 must have label and tau"),
            ([], "needs --corpus FILE or --standard"),
            (["--standard", "--corpus", "{missing}"], "takes --corpus FILE or --standard, not both"),
        ],
        ids=["entry-without-tau", "no-corpus", "standard-and-corpus"],
    )
    def test_missing_input_rejected(self, capsys, tmp_path, source, message):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"entries": [{"label": "x"}]}), encoding="utf-8")
        out = tmp_path / "report.json"
        source = [arg.format(corpus=corpus, missing=tmp_path / "missing.json") for arg in source]
        assert main(["run-suite", *source, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_truncation_failure_is_entry_error(self, capsys, tmp_path):
        good = {"label": "ok", "tau": {"kind": "random", "g": 1, "seed": 0}}
        flat = {"label": "flat", "tau": {"kind": "literal", "re": [[0.0]], "im": [[0.001]]}}
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"entries": [good, flat]}), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["run-suite", "--corpus", str(corpus), "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["rollup"] == "error"
        assert [e["status"] for e in report["entries"]] == ["pass", "error"]
        assert report["entries"][1]["error"] == (
            "lattice-sum radius 93 needed to meet the tail target, cap is 64"
        )
        # the sweeps did not finish, so the entry's line has no term-scale counts
        assert re.search(r"^\[flat\] error \(\d+\.\d\ds\)$", capsys.readouterr().err, re.M)

    @pytest.mark.parametrize(
        "entry, status, rollup, code",
        [(GOOD_ENTRY, "pass", "error", 2), (NEAR_ENTRY, "warn", "error", 2), (PRODUCT_ENTRY, "fail", "fail", 1)],
        ids=["pass", "warn", "fail"],
    )
    def test_rollup_is_most_severe_entry(self, capsys, tmp_path, entry, status, rollup, code):
        # pass < warn < error < fail: an infeasible tau exits 2 unless another entry failed
        exit_code, report = self.run_corpus(capsys, tmp_path, entry, self.FAR_ENTRY)
        assert (exit_code, report["rollup"]) == (code, rollup)
        assert [e["status"] for e in report["entries"]] == [status, "error"]
        assert "overflows double precision" in report["entries"][1]["error"]

    @pytest.mark.parametrize(
        "corpus, message",
        [
            ({"entires": [GOOD_ENTRY]}, "corpus has unknown key 'entires'"),
            ({"policies": {"sample": 1}, "entries": [GOOD_ENTRY]}, "corpus policies has unknown key 'sample'"),
            ({"policies": {"samples": 1, "null_treshold": 0.5}, "entries": [GOOD_ENTRY]},
             "corpus policies has unknown key 'null_treshold'"),
            ({"entries": [GOOD_ENTRY, {"label": "b", "tau": {"kind": "random", "g": 1, "seed": 1},
                                       "kappa_0": "1,1"}]},
             "corpus entry 1 has unknown key 'kappa_0'"),
            ({"entries": [{**GOOD_ENTRY, "expect": {"vanishing_null": 3}}]},
             "corpus entry 0 expect has unknown key 'vanishing_null'"),
            ({"label": math.nan, "entries": [GOOD_ENTRY]}, "corpus label must be a string, got nan"),
            ({"entries": [GOOD_ENTRY, {"label": True, "tau": GOOD_ENTRY["tau"]}]},
             "corpus entry 1 label must be a string, got True"),
            ({"entries": [{"label": {"k": [1]}, "tau": GOOD_ENTRY["tau"]}]},
             "corpus entry 0 label must be a string, got {'k': [1]}"),
            ({"entries": [{"label": "b", "tau": {"kind": "random", "g": 2, "seed": 7, "flor": 3.0}}]},
             "random tau source has unknown key 'flor'; known keys: kind, g, seed, floor"),
            ({"entries": [{"label": "b", "tau": {"kind": "file", "path": "tau.json", "g": 1}}]},
             "file tau source has unknown key 'g'"),
            ({"entries": [GOOD_ENTRY, {"label": "b", "tau": {"kind": "file", "path": "unknown_key_tau.json"}}]},
             "period matrix JSON has unknown key 'gg'; known keys: g, re, im"),
            ({"entries": [{"label": "b", "tau": {"kind": "literal", "re": [[0.0]], "im": [[1.0]], "img": 1}}]},
             "period matrix JSON has unknown key 'img'; known keys: g, re, im"),
            # diagonal is no longer a kind; its products are blocks of 1 x 1 literals
            ({"entries": [{"label": "b", "tau": {"kind": "diagonal", "entries": [], "g": 1}}]},
             "unknown tau source kind 'diagonal'"),
            ({"entries": [{"label": "b", "tau": {"kind": "diagonal", "entries": [{"re": 0.0, "im": 1.0, "g": 1}]}}]},
             "unknown tau source kind 'diagonal'"),
            ({"entries": [{"label": "b", "tau": {"kind": "block", "blocks": [], "g": 1}}]},
             "block tau source has unknown key 'g'"),
            ({"entries": [{"label": "b", "tau": {"kind": "block", "blocks": [
                {"kind": "literal", "re": [[0.0]], "im": [[1.0]], "img": 1}]}}]},
             "period matrix JSON has unknown key 'img'; known keys: g, re, im"),
            ({"entries": [{"label": "b", "tau": {"kind": "block", "blocks": [], "depth": 1}}]},
             "block tau source has unknown key 'depth'"),
            ({"entries": [{"label": "b", "tau": {"kind": "block", "blocks": [{**GOOD_ENTRY["tau"], "flor": 1.0}]}}]},
             "random tau source has unknown key 'flor'"),
        ],
        ids=["corpus", "policies", "policies-threshold", "entry", "expect", "corpus-label-nan",
             "entry-label-bool", "entry-label-object", "random-source", "file-source", "file-source-content",
             "literal-source",
             "diagonal-source", "diagonal-source-entry", "block-source-g", "literal-in-block", "block-source",
             "source-in-block"],
    )
    def test_unknown_key_rejected_before_any_entry(self, capsys, tmp_path, corpus, message):
        # a tau file with a key the period matrix reader does not read, for the file-source-content case
        (tmp_path / "unknown_key_tau.json").write_text(
            json.dumps({"g": 1, "re": [[0.0]], "im": [[1.0]], "gg": 3}), encoding="utf-8")
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["run-suite", "--corpus", str(path), "--out", str(out)]) == 2
        # one error line and no entry line: nothing ran
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, message", TAU_FILE_CASES, ids=[f"fields{i}" for i in range(len(TAU_FILE_CASES))]
    )
    @pytest.mark.parametrize("source", ["literal", "literal-in-block", "file"])
    def test_tau_source_reads_like_tau_file(self, capsys, tmp_path, source, fields, message):
        # a literal source is a period-matrix object plus kind: PeriodMatrix.from_json alone checks it,
        # so every source gives the --tau file's message inside the corpus-entry prefix
        obj = {"g": 1, "re": [[0.0]], "im": [[1.0]], **fields}
        (tmp_path / "tau.json").write_text(json.dumps(obj), encoding="utf-8")
        assert main(["nulls", "--tau", str(tmp_path / "tau.json")]) == 2
        text = capsys.readouterr().err.removeprefix("error: ").removesuffix("\n")
        assert text.startswith(message)
        tau = {"literal": {"kind": "literal", **obj}, "literal-in-block": {"kind": "block", "blocks": [
            {"kind": "literal", **obj}]}, "file": {"kind": "file", "path": "tau.json"}}[source]
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"entries": [{"label": "a", "tau": tau}]}), encoding="utf-8")
        assert main(["run-suite", "--corpus", str(corpus)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: corpus entry 0 has a malformed tau source: {ValueError(text)!r}\n"

    @pytest.mark.parametrize("corpus", [[1], {"entries": 3}, {"entries": [], "policies": [1]},
                                        {"policies": "x", "entries": []}],
                             ids=["array", "entries-number", "policies-array", "policies-string"])
    def test_malformed_corpus_is_one_value_error(self, capsys, tmp_path, corpus):
        # run_suite owns the corpus-shape rule: a library caller and the command get the one message
        message = "corpus must be an object with an entries array and a policies object"
        with pytest.raises(ValueError, match=f"^{message}$"):
            cli.run_suite(corpus, tmp_path)
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus), encoding="utf-8")
        assert main(["run-suite", "--corpus", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_readme_corpus_passes(self, capsys, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```json\n(\{\n  \"policies\".*?)```", readme, re.S).group(1)
        corpus = tmp_path / "corpus.json"
        corpus.write_text(example, encoding="utf-8")
        code, payload = run(capsys, "run-suite", "--corpus", str(corpus))
        assert code == 0
        assert [e["status"] for e in payload["entries"]] == ["pass", "pass"]

    def test_deep_label_is_one_error_line(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text('{"entries": [], "label": ' + "[" * 500 + "]" * 500 + "}", encoding="utf-8")
        emitted = tmp_path / "emitted.json"
        assert main(["run-suite", "--corpus", str(corpus), "--emit-corpus", str(emitted)]) == 2
        label = "[" * 500 + "]" * 500
        assert capsys.readouterr().err == f"error: corpus label must be a string, got {label}\n"
        assert not emitted.exists()

    def test_rejected_corpus_is_not_emitted(self, capsys, tmp_path):
        # --emit-corpus writes the corpus that was run, so a rejected one leaves no file
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"policies": {"sampels": 3}, "entries": [self.GOOD_ENTRY]}),
                          encoding="utf-8")
        emitted = tmp_path / "emitted.json"
        assert main(["run-suite", "--corpus", str(corpus), "--emit-corpus", str(emitted)]) == 2
        assert capsys.readouterr().err == ("error: corpus policies has unknown key 'sampels'; known keys: "
                                           f"{', '.join(cli.DEFAULT_POLICIES)}\n")
        assert not emitted.exists()

    def test_emitted_corpus_reruns_identically(self, capsys, tmp_path):
        emitted = tmp_path / "corpus.json"
        first = tmp_path / "standard.json"
        second = tmp_path / "rerun.json"
        assert main(["run-suite", "--standard", "--emit-corpus", str(emitted), "--out", str(first)]) == 0
        assert main(["run-suite", "--corpus", str(emitted), "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "policies",
        [
            {"samples": 0},
            {"null_threshold": 0.0},
            {"null_threshold": 1.5},
            5,
            {"target_eps": "1e-11"},
            {"seed": [1]},
            {"samples": 1.9},
            {"seed": 0.5},
            {"samples": True},
            {"seed": -3},
            {"samples": "3"},
            {"seed": float("-inf")},
            {"samples": float("inf")},
            {"seed": 10**400},
        ],
    )
    def test_invalid_policies_rejected_before_entries(self, capsys, tmp_path, policies):
        err = self.rejected_before_entries(capsys, tmp_path, policies)
        if isinstance(policies, dict) and "null_threshold" in policies:  # a cut-off no corpus sets
            assert "corpus policies has unknown key 'null_threshold'" in err
        if policies in ({"samples": 1.9}, {"seed": 0.5}, {"samples": True}, {"samples": "3"},
                        {"seed": float("-inf")}, {"samples": float("inf")}, {"seed": 10**400}):
            assert f"policy {next(iter(policies))} must be an integer" in err
        if policies == {"seed": -3}:
            assert "policy seed must be an integer >= 0" in err

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("identity_eps", True, "a finite number"),
            ("target_eps", True, "a finite number"),
            ("sv_threshold", True, "a finite number"),
            ("null_threshold", "0.5", "a finite number"),
            ("sv_threshold", "0.5", "a finite number"),
            ("identity_eps", "NaN", "a finite number"),
            ("identity_eps", float("nan"), "a finite number"),
            ("target_eps", float("inf"), "a finite number"),
            pytest.param("identity_eps", 10**400, "a finite number", id="identity_eps-int-past-float-max"),
            pytest.param("target_eps", 10**400, "a finite number", id="target_eps-int-past-float-max"),
            pytest.param("null_threshold", 10**400, "a finite number", id="null_threshold-int-past-float-max"),
            ("target_eps", "1e-11", "a finite number"),
            ("null_threshold", True, "a finite number"),
            ("sv_threshold", float("nan"), "a finite number"),
            ("null_threshold", float("-inf"), "a finite number"),
            ("identity_eps", float("-inf"), "a finite number"),
            ("sv_threshold", 0, "in (0, 1)"),
            ("identity_eps", 0, "> 0"),
            ("identity_eps", -1, "> 0"),
        ],
    )
    def test_float_policies_named_before_entries(self, capsys, tmp_path, key, value, rule):
        err = self.rejected_before_entries(capsys, tmp_path, {key: value})
        if key == "target_eps":  # TruncationPolicy checks it and names it as its own field
            assert err.startswith(f"error: target_eps must be {rule}")
        else:  # a verdict cut-off is a constant, so a corpus that sets one is rejected whatever the value
            assert err == (f"error: corpus policies has unknown key {key!r}; known keys: "
                           "target_eps, samples, seed\n")

    @staticmethod
    def rejected_before_entries(capsys, tmp_path, policies) -> str:
        """Run a one-entry corpus with these policies; check that it exits 2
        before the entry runs and writes no report, and return stderr."""
        entry = {"label": "g1", "tau": {"kind": "random", "g": 1, "seed": 0}}
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"policies": policies, "entries": [entry]}), encoding="utf-8")
        out = tmp_path / "report.json"
        code = main(["run-suite", "--corpus", str(corpus), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "[g1]" not in err
        assert not out.exists()
        return err

    def test_warn_entry_rolls_up_to_warn(self, capsys, tmp_path):
        code, payload = self.run_corpus(capsys, tmp_path, self.NEAR_ENTRY)
        assert code == 3
        assert payload["rollup"] == "warn"
        assert payload["entries"][0]["status"] == "warn"

    def test_block_and_file_sources(self, capsys, tmp_path, tau_file, tau_g2_random):
        tau_path = tau_file("inner.json", tau_g2_random)
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps(
                {
                    "policies": {"samples": 2},
                    "entries": [
                        {"label": "from-file", "tau": tau_path},
                        {"label": "file-kind", "tau": {"kind": "file", "path": "inner.json"}},
                        {
                            "label": "block",
                            "tau": {
                                "kind": "block",
                                "blocks": [
                                    {"kind": "literal", "re": [[0.0]], "im": [[1.0]]},
                                    {"kind": "literal", "re": [[0.1]], "im": [[1.2]]},
                                ],
                            },
                            "expect": {"vanishing_nulls": 1, "verdicts": False},
                        },
                    ],
                }
            ),
            encoding="utf-8",
        )
        code, payload = run(capsys, "run-suite", "--corpus", str(corpus))
        assert code == 0
        assert [e["status"] for e in payload["entries"]] == ["pass", "pass", "pass"]

    @staticmethod
    def nested_blocks(depth: int) -> str:
        """A genus-1 tau source inside depth block sources, as JSON text.

        Built by hand: json.dumps of a deep source would reach Python's
        recursion limit first."""
        source = '{"kind": "random", "g": 1, "seed": 0}'
        for _ in range(depth):
            source = '{"kind": "block", "blocks": [' + source + "]}"
        return source

    def test_block_depth_cap(self):
        # blocks are flat: a block's blocks are leaves, so a block nests one deep
        assert cli._tau_from_source(json.loads(self.nested_blocks(1)), Path("."), []).g == 1
        with pytest.raises(ValueError, match="a block source's blocks must be file, literal or random sources"):
            cli._tau_from_source(json.loads(self.nested_blocks(2)), Path("."), [])

    def test_standard_report_ignores_hash_seed(self):
        # the report is the same bytes whatever order set and dict hashing gives
        procs = [run_fresh(["-m", "theta4.cli", "run-suite", "--standard"], env={"PYTHONHASHSEED": seed})
                 for seed in ("1", "2")]
        assert [p.returncode for p in procs] == [0, 0]
        assert procs[0].stdout == procs[1].stdout != ""

    def test_deep_block_source_is_one_error_line(self, tmp_path):
        # 490 levels (980 JSON levels) once recursed past Python's limit and
        # exited 1 with a RecursionError traceback.  It runs in a fresh
        # interpreter: json.loads under pytest's own stack would reach the
        # recursion limit first.
        corpus = tmp_path / "corpus.json"
        corpus.write_text('{"entries": [{"label": "deep", "tau": ' + self.nested_blocks(490) + "}]}",
                          encoding="utf-8")
        out = tmp_path / "report.json"
        proc = run_fresh(["-m", "theta4.cli", "run-suite", "--corpus", str(corpus), "--out", str(out)])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: corpus entry 0 has a malformed tau source: ValueError(\"a block "
                               "source's blocks must be file, literal or random sources\")\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["run-suite", "verify-quartic"])
def test_infeasible_allocation_is_input_error(capsys, tmp_path, rand_g2, command):
    # 10^15 samples is petabytes, past any address space: numpy refuses at once
    samples = 10**15
    if command == "run-suite":
        corpus = tmp_path / "corpus.json"
        entry = {"label": "g1", "tau": {"kind": "random", "g": 1, "seed": 0}}
        corpus.write_text(json.dumps({"policies": {"samples": samples}, "entries": [entry]}), encoding="utf-8")
        argv = ["run-suite", "--corpus", str(corpus), "--out", str(tmp_path / "report.json")]
    else:
        argv = ["verify-quartic", "--tau", rand_g2, "--samples", str(samples)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not (tmp_path / "report.json").exists()


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_dumps({"b": 1.0864348112133080146, "a": [True, None, -0.0]})
        assert text == '{"a":[true,null,0],"b":1.086434811213308}\n'
        # 17 significant digits are enough to reproduce any double exactly
        assert json.loads(text)["b"] == 1.0864348112133080146

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})

    def test_rejects_deep_nesting(self):
        obj = []
        for _ in range(5000):
            obj = [obj]
        with pytest.raises(ValueError, match="too deeply nested for a canonical report"):
            canonical_dumps(obj)

    def test_roundtrip_standard_corpus(self):
        text = canonical_dumps(standard_corpus())
        assert json.loads(text) == json.loads(canonical_dumps(json.loads(text)))

    @pytest.mark.parametrize(
        "obj, text",
        [
            ({"a": {}, "b": [], "c": [{}, [[]]]}, '{"a":{},"b":[],"c":[{},[[]]]}'),
            ((1, "x", (2.5,)), '[1,"x",[2.5]]'),
            ("\u00e9\n", '"\\u00e9\\n"'),
            ({"\u00e9": 1}, '{"\\u00e9":1}'),
            ([1, True, 2, False], "[1,true,2,false]"),
            (2**80, "1208925819614629174706176"),
            ({"x": [{"y": -0.0}], "z": -0.1}, '{"x":[{"y":0}],"z":-0.10000000000000001}'),
        ],
        ids=["empty-containers", "tuple", "non-ascii-string", "non-ascii-key", "bools-among-ints",
             "large-int", "nested-negative-zero"],
    )
    def test_edge_cases_byte_for_byte(self, obj, text):
        assert canonical_dumps(obj) == text + "\n"

    @pytest.mark.parametrize(
        "obj",
        [{1: 2}, {"a": 1, 2: 3}, [np.int64(1)], {1, 2}],
        ids=["int-key", "mixed-keys", "numpy-int", "set"],
    )
    def test_rejects_unsupported(self, obj):
        # mixed key types are a ValueError of their own, not sorted()'s TypeError
        with pytest.raises(ValueError):
            canonical_dumps(obj)

    def test_peak_memory_below_three_times_text(self, traced_peak):
        # the writer holds the members' texts and their join, not a token per value
        rng = np.random.default_rng(5)
        records = [
            {"kind": "quartic", "char": {"a1": [i & 1, 1], "a2": [0, i & 1]},
             "z": [{"re": float(x), "im": float(y)} for x, y in rng.normal(size=(2, 2))],
             "abs_residual": float(rng.random()), "rel_residual": float(rng.random())}
            for i in range(10_000)
        ]
        text, peak = traced_peak(lambda: canonical_dumps({"records": records}))
        assert peak < 3 * len(text), (peak, len(text))
