import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import theta4
import theta4.theta_eval as theta_eval
from theta4 import cli
from theta4.char2 import Characteristic
from theta4.cli import main, standard_corpus
from theta4.jsonio import canonical_dumps
from theta4.mmatrix import build_m
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


@pytest.fixture()
def no_lattice_sum(monkeypatch):
    """Fail the test if anything reaches the lattice-sum kernel."""

    def refuse(*args):
        raise AssertionError("a lattice sum ran")

    monkeypatch.setattr(theta_eval, "_theta_groups", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--char", "0,0", "--eps", "inf"],
        ["nulls", "--eps", "inf"],
        ["basis-report", "--eps", "inf"],
        ["verify-quartic", "--target-eps", "inf"],
    ],
)
def test_infinite_target_eps_rejected_before_any_sum(capsys, rand_g2, no_lattice_sum, argv):
    code = main([*argv, "--tau", rand_g2])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: target_eps must be finite")


class TestMain:
    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        built = []

        class Counting(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        jobs = [["mmatrix", "--genus", "2", "--verify"], ["chars", "--genus", "1"], ["chars", "--genus", "9"]]
        env = {**os.environ, "PYTHONPATH": str(Path(theta4.__file__).parents[1])}
        fresh = [subprocess.run([sys.executable, "-m", "theta4.cli", *argv], env=env, capture_output=True,
                                text=True, timeout=60) for argv in jobs]
        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counting))
        cli.build_parser.cache_clear()
        try:
            for argv, proc in zip(jobs, fresh):
                assert main(argv) == proc.returncode
                assert capsys.readouterr().out == proc.stdout
        finally:
            cli.build_parser.cache_clear()
        assert built.count("theta4") == 1


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
    and leaves no temporary file behind."""

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


class TestMmatrix:
    def test_verify_passes(self, capsys):
        code, payload = run(capsys, "mmatrix", "--genus", "2", "--verify")
        assert code == 0
        assert payload["ok"] is True
        assert payload["dim"] == 10

    def test_emit_matches_library(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        code, _ = run(capsys, "mmatrix", "--genus", "1", "--emit", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["entries"] == build_m(1).entries.tolist()
        assert payload["g"] == 1 and payload["dim"] == 3


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

    @pytest.mark.parametrize(
        "fields",
        [
            {"g": [1]},
            {"g": 1.5},
            {"g": True},
            {"g": "1"},
            {"re": [[{"x": 1}]]},
            {"re": [["0.5"]], "im": [["1"]]},
            {"im": [["1"]]},
            {"re": [[True]]},
        ],
    )
    def test_malformed_tau_file_is_input_error(self, capsys, tmp_path, fields):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"g": 1, "re": [[0.0]], "im": [[1.0]], **fields}), encoding="utf-8")
        code = main(["nulls", "--tau", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["nulls", "basis-report"])
@pytest.mark.parametrize("threshold", ["0", "1.5"])
def test_out_of_range_null_threshold_rejected(capsys, diag_ii, no_lattice_sum, command, threshold):
    code, payload = run(capsys, command, "--tau", diag_ii, "--null-threshold", threshold)
    assert code == 2
    assert payload is None


class TestVerifyIdentities:
    def test_quartic_passes(self, capsys, rand_g2):
        code, payload = run(
            capsys, "verify-quartic", "--tau", rand_g2, "--samples", "3", "--seed", "1",
            "--eps", "1e-8",
        )
        assert code == 0
        assert len(payload) == 3 * 16
        assert all(rec["rel_residual"] < 1e-8 for rec in payload)

    def test_quartic_impossible_gate_fails(self, capsys, rand_g2):
        code, _ = run(
            capsys, "verify-quartic", "--tau", rand_g2, "--samples", "2", "--seed", "1",
            "--eps", "1e-15",
        )
        assert code == 1

    @pytest.mark.parametrize("kind", ["quartic", "inversion"])
    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
    def test_nonsense_gate_rejected_before_any_sum(self, capsys, rand_g2, no_lattice_sum, kind, eps):
        # no residual can be judged against such a gate: an input error, not a math failure
        code = main([f"verify-{kind}", "--tau", rand_g2, "--samples", "1", "--eps", eps])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --eps must be > 0 and finite")

    def test_inversion_passes_on_product(self, capsys, diag_ii):
        # the vanishing-pair record is 0 = 0 and passes at term scale
        code, payload = run(
            capsys, "verify-inversion", "--tau", diag_ii, "--samples", "2", "--seed", "3",
            "--eps", "1e-8",
        )
        assert code == 0
        assert len(payload) == 2 * 10


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

    def test_odd_kappa0_rejected(self, capsys, rand_g2):
        code, _ = run(capsys, "basis-report", "--tau", rand_g2, "--kappa0", "10,10")
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--samples", "3"], "need at least 2 d+ = 272 samples, got 3"),
            (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
            (["--kappa0", "1000,1000"], "kappa0 must be even"),
            (["--null-threshold", "0"], "null_threshold must be in (0, 1)"),
        ],
    )
    def test_bad_argument_rejected_before_any_sum(self, capsys, tau_file, monkeypatch, flags, message):
        points = []
        build = theta_eval._theta_groups

        def counting(pts, *args):
            points.append(len(pts))
            return build(pts, *args)

        monkeypatch.setattr(theta_eval, "_theta_groups", counting)
        code = main(["basis-report", "--tau", tau_file("g4.json", random_tau(4, 3)), *flags])
        captured = capsys.readouterr()
        assert (code, sum(points), captured.out) == (2, 0, "")
        assert captured.err.startswith(f"error: {message}")


class TestRunSuite:
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

    def test_unexpected_vanishing_fails(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "label": "product-undeclared",
                            "tau": {
                                "kind": "diagonal",
                                "entries": [{"re": 0.0, "im": 1.0}, {"re": 0.0, "im": 1.0}],
                            },
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        code, payload = run(capsys, "run-suite", "--corpus", str(corpus))
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
            {"tau": {"kind": "diagonal", "entries": [{"re": 0}]}},
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
        ],
    )
    def test_malformed_tau_source_names_entry(self, capsys, tmp_path, fields):
        good = {"label": "ok", "tau": {"kind": "random", "g": 1, "seed": 0}}
        bad = {"label": "bad", "tau": {"kind": "random", "g": 1, "seed": 1}, **fields}
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"entries": [good, bad]}), encoding="utf-8")
        out = tmp_path / "report.json"
        code = main(["run-suite", "--corpus", str(corpus), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "corpus entry 1" in err and "[ok]" not in err
        assert not out.exists()

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
        ],
    )
    def test_invalid_policies_rejected_before_entries(self, capsys, tmp_path, policies):
        err = self.rejected_before_entries(capsys, tmp_path, policies)
        if policies in ({"samples": 1.9}, {"seed": 0.5}, {"samples": True}):
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
            ("identity_eps", 0, "> 0"),
            ("identity_eps", -1, "> 0"),
        ],
    )
    def test_float_policies_named_before_entries(self, capsys, tmp_path, key, value, rule):
        err = self.rejected_before_entries(capsys, tmp_path, {key: value})
        assert f"policy {key} must be {rule}" in err

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
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "label": "near-degenerate",
                            "tau": {
                                "kind": "literal",
                                "re": [[0.0, 1e-6], [1e-6, 0.0]],
                                "im": [[1.0, 0.0], [0.0, 1.0]],
                            },
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        code, payload = run(capsys, "run-suite", "--corpus", str(corpus))
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
        assert [e["status"] for e in payload["entries"]] == ["pass", "pass"]


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_dumps({"b": 1.0864348112133080146, "a": [True, None, -0.0]})
        assert text == '{"a":[true,null,0],"b":1.086434811213308}\n'
        # 17 significant digits are enough to reproduce any double exactly
        assert json.loads(text)["b"] == 1.0864348112133080146

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})

    def test_roundtrip_standard_corpus(self):
        text = canonical_dumps(standard_corpus())
        assert json.loads(text) == json.loads(canonical_dumps(json.loads(text)))
