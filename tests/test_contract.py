"""Property tests of the command line's exit-code contract.

Hypothesis draws period matrices from generic values and from edge values
(zeros, subnormals, the cusp, double-range extremes, integers up to 1e20),
with wrong shapes, non-numbers, "g" and stray keys, and feeds them to every
single-tau command as --tau files, with its flags, and to run-suite as
literal, file and block sources, with policies, expect and kappa0.  One
test per command family draws no flawed input, so that most draws reach
a verdict; one more per input flaws that input alone, so that every input
check is reached.  Each draw runs cli.main in-process, twice, with
warnings as errors.  The properties:

- the exit code is 0, 1, 2 or 3 and no exception escapes, apart from
  argparse's usage exit;
- a single-tau command that exits 2 prints one error: line and leaves
  every output file as it was;
- a run-suite exit 2 either rejects the corpus (one error: line, no
  report) or writes a report whose rollup is error, with an error entry;
  every report's rollup gives the exit code, and an entry has an error
  field exactly when its status is error;
- a rerun of the same argv gives byte-identical stdout and output files.

"A generic tau never exits 1" is not a property yet: toward the cusp (tau =
15 + 30i at genus 1, say) the verdicts still fail, and the strategies keep
those tau in.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta4.cli import EXIT_CODES, main

# hypothesis reports a failing example through mypy_extensions.TypedDict, whose deprecation
# warning the suite's filterwarnings = error would turn into a pytest INTERNALERROR
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

SETTINGS = settings(derandomize=True, database=None, deadline=None)

EDGES = [0, -0.0, 5e-324, 1e-7, 15, 30, 300, 1e15, 1e300]
NUMBERS = st.one_of(
    st.sampled_from(EDGES), st.sampled_from(EDGES).map(lambda x: -x),
    st.integers(-10**20, 10**20), st.floats(-2.0, 2.0),
)
NON_NUMBERS = st.sampled_from(["1", True, None, [1.0], {"x": 1}, 10**400])
FLAWS = ["asymmetric", "g", "stray-key", "non-number", "short-row", "flat-block", "missing-block"]


def joined(tokens: list[str], separator: str, max_size=3):
    """Strings of 1 to max_size tokens joined by separator."""
    return st.lists(st.sampled_from(tokens), min_size=1, max_size=max_size).map(separator.join)


# each flag's (usual, flawed) values; a usual value can still be refused, say at the other genus
FLAWED_CHARS = joined(["0", "1", "01", "11", "3", "4", "-1", " 1 ", "x", ""], ",")
FLAG_VALUES = {
    "--char": (st.sampled_from(["0,0", "1,0", "0,1", "1,1"]), FLAWED_CHARS),
    "--kappa0": (st.sampled_from(["0,0", "1,0", "0,1"]), FLAWED_CHARS),
    "--z": (st.sampled_from(["0,0", "0.5,0.25", "0.5,0.25;0.1,-0.2", "1e15,0;0,0"]),
            joined(["0", "-0.25", "1e15", "1e160", "1e307", "nan", "inf", "x", "", ";"], ",", 5)),
    "--samples": (st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-1", "x", "1.5"])),
    "--seed": (st.sampled_from(["0", "1", "5", "99999999999999999999"]), st.sampled_from(["-1", "x"])),
    "--target-eps": (st.sampled_from(["1e-14", "1e-12", "1e-11", "1e-9"]),
                     st.sampled_from(["1e-8", "1e-4", "0.5", "0", "-1", "nan", "inf", "x"])),
}
COMMAND_FLAGS = {
    "theta": ["--char", "--z"], "nulls": [], "verify-quartic": ["--samples", "--seed"],
    "verify-inversion": ["--samples", "--seed"], "basis-report": ["--kappa0", "--seed"],
}


@st.composite
def tau_objects(draw, flawed: bool, genus=st.sampled_from([1, 1, 2])):
    """A period-matrix JSON object: a generic tau, or the same with one entry
    or every entry of re or im drawn from the edge values; flawed, it has one
    flaw of symmetry, shape, value or key instead."""
    g = draw(genus)
    kind = draw(st.sampled_from(FLAWS if flawed else ["generic", "generic", "edge", "edges"]))
    # the block and entry that an edge value or a flaw lands on
    name, row, col = draw(st.sampled_from(["re", "im"])), draw(st.integers(0, g - 1)), draw(st.integers(0, g - 1))
    obj = {}
    for block, diagonal, off in (("re", st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                                 ("im", st.floats(0.5, 3.0), st.floats(-0.3, 0.3))):
        if kind == "edges" and block == name:
            diagonal = off = NUMBERS
        rows = [[draw(diagonal if i == j else off) for j in range(g)] for i in range(g)]
        obj[block] = [[rows[min(i, j)][max(i, j)] for j in range(g)] for i in range(g)]
    if kind == "edge":
        obj[name][row][col] = obj[name][col][row] = draw(NUMBERS)
    elif kind == "asymmetric":
        obj[name][row][col] = draw(NUMBERS)
    elif kind == "g":
        obj["g"] = draw(st.sampled_from([g, g + 1, 0, True, "1", 1.0, [g]]))
    elif kind == "stray-key":
        obj[draw(st.sampled_from(["gg", "kind", "img", "blocks"]))] = 3
    elif kind == "non-number":
        obj[name][row][col] = draw(NON_NUMBERS)
    elif kind == "short-row":
        obj[name][row] = obj[name][row][:-1]
    elif kind == "flat-block":
        obj[name] = obj[name][row]
    elif kind == "missing-block":
        del obj[name]
    return obj


def run(argv: list[str], outputs: list[Path]) -> tuple[int | None, str, str, dict]:
    """main(argv) with warnings as errors: its exit code (None for argparse's
    usage exit), stdout, stderr, and the bytes of each output path that exists
    afterwards."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as stop:
            assert stop.code == 2 and "usage: theta4" in err.getvalue()
            code = None
    return code, out.getvalue(), err.getvalue(), {p: p.read_bytes() for p in outputs if p.exists()}


def run_twice(argv: list[str], outputs: list[Path]) -> tuple[int | None, str, str, bool]:
    """run(argv), checking the exit code and that a rerun gives the same exit
    code, stdout and output files; the last item says whether the first run
    left every output path as it found it."""
    before = {p: p.read_bytes() for p in outputs if p.exists()}
    code, out, err, files = run(argv, outputs)
    assert code in (None, *EXIT_CODES.values()), err
    again = run(argv, outputs)
    assert (again[0], again[1], again[3]) == (code, out, files)
    return code, out, err, files == before


def one_error_line(out: str, err: str) -> bool:
    return out == "" and err.startswith("error: ") and err.count("\n") == 1


@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_single_tau_commands_keep_the_contract(data):
    check_single_tau_command(None, data)


@pytest.mark.parametrize("flawed", ["tau", "out", *FLAG_VALUES])
@settings(SETTINGS, max_examples=20)
@given(data=st.data())
def test_single_tau_commands_keep_the_contract_on_a_flawed_input(flawed, data):
    check_single_tau_command(flawed, data)


def check_single_tau_command(flawed, data) -> None:
    """Run a command that takes the flawed input (the --tau file, --out or
    a flag) on a drawn --tau file and flags."""
    commands = [c for c, flags in COMMAND_FLAGS.items() if flawed in (*flags, "--target-eps", "tau", "out", None)]
    command = data.draw(st.sampled_from(commands), label="command")
    flags = [*COMMAND_FLAGS[command], "--target-eps"]
    with tempfile.TemporaryDirectory() as tmp:
        tau_path, report = Path(tmp) / "tau.json", Path(tmp) / "report.json"
        tau_path.write_text(json.dumps(data.draw(tau_objects(flawed == "tau"), label="tau")), encoding="utf-8")
        argv = [command, "--tau", str(tau_path)]
        for flag in flags:
            if flag in (flawed, "--char", "--z") or data.draw(st.booleans(), label=f"has {flag}"):
                argv += [flag, data.draw(FLAG_VALUES[flag][flag == flawed], label=flag)]
        out_path = tau_path if flawed == "out" else data.draw(st.sampled_from([None, report]), label="--out")
        if out_path:
            argv += ["--out", str(out_path)]
        code, out, err, unwritten = run_twice(argv, [report, tau_path])
        if code in (None, EXIT_CODES["error"]):
            assert unwritten
            assert code is None or one_error_line(out, err), err
        else:
            json.loads(report.read_bytes() if out_path == report else out)


@st.composite
def tau_sources(draw, tmp: Path, flawed: bool, genus=st.sampled_from([1, 1, 2]), leaf=False):
    """A corpus tau source: a literal, file or random leaf, or a block of
    leaves of genus at most 3 in all; flawed, it has one flaw of its own or
    in its period matrix."""
    kind = draw(st.sampled_from(["literal", "file", "random"] + ([] if leaf else ["block"])))
    if kind == "literal":
        return {"kind": "literal", **draw(tau_objects(flawed, genus))}
    if kind == "file":
        path = tmp / f"tau{len(list(tmp.glob('tau*')))}.json"
        path.write_text(json.dumps(draw(tau_objects(flawed, genus))), encoding="utf-8")
        return draw(st.sampled_from([path.name, {"kind": "file", "path": path.name}]))
    if kind == "random":
        g = draw(st.sampled_from([0, "2", True, 6]) if flawed else genus)
        return {"kind": "random", "g": g, "seed": draw(st.integers(0, 9)), "floor": draw(st.sampled_from([1.0, 15.0]))}
    if flawed:
        return draw(st.sampled_from([
            {"kind": "block", "blocks": []}, {"kind": "block", "blocks": [{"kind": "block", "blocks": []}]},
            {"kind": "block", "blocks": 3}, {"kind": "diagonal"}, {"kind": "random", "g": 1}, 3,
            {"kind": "file", "path": "absent.json"}, {"kind": "file", "path": "tau0.json", "g": 1},
        ]))
    blocks = [draw(tau_sources(tmp, False, genus, leaf=True))]
    return {"kind": "block", "blocks": blocks + draw(st.lists(tau_sources(tmp, False, st.just(1), leaf=True),
                                                              max_size=1))}


KAPPA0S = (FLAG_VALUES["--kappa0"][0], st.one_of(FLAWED_CHARS, st.sampled_from([0, None, ["0,0"]])))
EXPECTS = (st.sampled_from([{}, {"vanishing_nulls": 0}, {"verdicts": True}, {"vanishing_nulls": 1, "verdicts": False}]),
           st.sampled_from([{"vanishing_nulls": -1}, {"vanishing_nulls": "1"}, {"verdicts": 1}, {"vanishing_nulls": 1},
                            {"vanishing_null": 1}, [0]]))
POLICIES = {key: (st.sampled_from(usual), st.sampled_from(flawed)) for key, usual, flawed in (
    ("target_eps", [1e-14, 1e-12, 1e-9], [1e-4, 0.5, 0, -1, "x"]), ("samples", [1, 2, 3], [0, 1.5, True]),
    ("seed", [0, 1, 5], [-1, 1e20, None]))}
CORPORA = [[1], {"entries": 3}, {"entries": [], "policies": [1]}, {"policies": "x", "entries": []},
           {"entires": []}, {"label": 3, "entries": []}, {"entries": [{"label": "a"}]}, {"entries": [1]}]


@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_run_suite_keeps_the_contract(data):
    check_run_suite(None, data)


@pytest.mark.parametrize("flawed", ["tau", "unreachable-tau", "kappa0", "expect", "policies", "out", "corpus"])
@settings(SETTINGS, max_examples=20)
@given(data=st.data())
def test_run_suite_keeps_the_contract_on_a_flawed_input(flawed, data):
    check_run_suite(flawed, data)


def check_run_suite(flawed, data) -> None:
    """Run run-suite on a drawn corpus, flawed at the named input."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        entries = []
        count = data.draw(st.sampled_from([1, 1, 2]), label="entries")
        for i in range(count):
            last = i == count - 1  # the entry that carries a flawed tau, kappa0 or expect
            if last and flawed == "unreachable-tau":  # well-formed, but its sums overflow or pass the radius cap
                tau = {"kind": "literal", "re": [[data.draw(NUMBERS, label="re")]],
                       "im": [[data.draw(st.sampled_from([1e-3, 300, 1e4]), label="im")]]}
            else:
                tau = data.draw(tau_sources(tmp, last and flawed == "tau"), label="tau")
            entry = {"label": f"e{i}", "tau": tau}
            for key, values in (("kappa0", KAPPA0S), ("expect", EXPECTS)):
                bad = last and flawed == key
                if bad or data.draw(st.booleans(), label=f"has {key}"):
                    entry[key] = data.draw(values[bad], label=key)
            entries.append(entry)
        policies = {}
        bad_policy = data.draw(st.sampled_from(list(POLICIES)), label="bad policy") if flawed == "policies" else None
        for key, values in POLICIES.items():
            if key == bad_policy or data.draw(st.booleans(), label=f"has {key}"):
                policies[key] = data.draw(values[key == bad_policy], label=key)
        corpus = {"policies": policies, "entries": entries}
        if flawed == "corpus":
            corpus = data.draw(st.sampled_from([*CORPORA, {**corpus, "entries": entries * 2}]), label="corpus")
        corpus_path, report = tmp / "corpus.json", tmp / "report.json"
        corpus_path.write_text(json.dumps(corpus), encoding="utf-8")
        taus = sorted(tmp.glob("tau*"))
        choices = [corpus_path, *taus] if flawed == "out" else [None, report]
        out_path = data.draw(st.sampled_from(choices), label="--out")
        argv = ["run-suite", "--corpus", str(corpus_path)] + (["--out", str(out_path)] if out_path else [])
        code, out, err, unwritten = run_twice(argv, [report, corpus_path, *taus])
        assert code is not None
        if code == EXIT_CODES["error"] and one_error_line(out, err):
            assert unwritten  # the corpus was rejected before any entry ran
            return
        result = json.loads(out_path.read_bytes() if out_path else out)
        assert EXIT_CODES[result["rollup"]] == code
        # an entry names an error exactly when its status is error, so an error rollup has one
        assert all(("error" in e) == (e["status"] == "error") for e in result["entries"])
