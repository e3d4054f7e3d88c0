import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oomid
from oomid import bench, cli
from oomid.cli import main
from oomid.convert import ConversionConfig, convert
from oomid.diagram import ROW_TOLERANCE, save, to_dict, wildcatter
from oomid.generator import GeneratorParams, generate

NUMERIC_DOC = to_dict(wildcatter(nonforgetting=False))
OOM_DOC = to_dict(convert(wildcatter(), ConversionConfig(0.1)))


@pytest.fixture()
def wildcatter_path(tmp_path):
    path = tmp_path / "wildcatter.json"
    save(wildcatter(nonforgetting=False), path)
    return str(path)


class TestValidate:
    def test_ok(self, wildcatter_path, capsys):
        assert main(["validate", wildcatter_path]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_qualitative_file(self, tmp_path, capsys):
        path = tmp_path / "w_oom.json"
        path.write_text(json.dumps(OOM_DOC))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_violations_exit_2(self, tmp_path, capsys):
        doc = {
            "variables": [{"id": "X", "kind": "chance", "domain": ["a", "b"]}],
            "cpts": [{"child": "X", "parents": [], "table": [0.7, 0.7]}],
            "utilities": [{"scope": ["X"], "table": [1, 0]}],
            "decision_order": [],
            "information_sets": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "sum to 1" in capsys.readouterr().err

    def test_negative_probability_order(self, tmp_path, capsys):
        # a probability is at most 1, so its order is at least 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(NEGATIVE_ORDER()))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: cpt for Oil: probability orders must be at least 0\n"
        )

    def test_no_utilities_rejected(self, tmp_path, capsys):
        doc = {
            "variables": [{"id": "X", "kind": "chance", "domain": ["a", "b"]}],
            "cpts": [{"child": "X", "parents": [], "table": [0.5, 0.5]}],
            "utilities": [],
            "decision_order": [],
            "information_sets": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "utility" in capsys.readouterr().err


def _edited(base, mutate):
    def build():
        doc = copy.deepcopy(base)
        mutate(doc)
        return doc

    return build


def _cpt(doc, child):
    return next(c for c in doc["cpts"] if c["child"] == child)


# (case, document, command line around the file, fragment of the one-line
# error message)
MALFORMED = [
    ("unknown cpt parent",
     _edited(OOM_DOC, lambda d: _cpt(d, "Seismic")["parents"].append("Nope")),
     ["solve-oom"], "bad parent list"),
    ("unknown utility scope variable",
     _edited(OOM_DOC, lambda d: d["utilities"][1].update(scope=["Oil", "Nope"])),
     ["solve-oom"], "bad scope"),
    ("empty information sets",
     _edited(OOM_DOC, lambda d: d.update(information_sets={})),
     ["solve-oom"], "missing information set"),
    ("missing cpt",
     _edited(OOM_DOC, lambda d: d["cpts"].remove(_cpt(d, "Oil"))),
     ["solve-oom"], "missing cpt"),
    ("duplicated cpt",
     _edited(OOM_DOC, lambda d: d["cpts"].append(_cpt(d, "Oil"))),
     ["solve-oom"], "duplicate"),
    ("duplicated variable",
     _edited(OOM_DOC, lambda d: d["variables"].append(d["variables"][1])),
     ["solve-oom"], "duplicate variable ids"),
    ("directed cycle",
     _edited(OOM_DOC, lambda d: _cpt(d, "Oil").update(
         parents=["Seismic"], table=["(+,0)"] * 9)),
     ["solve-oom"], "cycle"),
    ("all-zero cpt row",
     _edited(OOM_DOC, lambda d: _cpt(d, "Oil").update(table=["(+-,inf)"] * 3)),
     ["solve-oom"], "no non-zero entry"),
    ("qualitative evidence",
     _edited(OOM_DOC, lambda d: d.update(evidence={"Oil": "dry"})),
     ["solve-oom"], "evidence"),
    ("numeric empty information sets",
     _edited(NUMERIC_DOC, lambda d: d.update(information_sets={})),
     ["solve-exact"], "missing information set"),
    ("numeric evidence",
     _edited(NUMERIC_DOC, lambda d: d.update(evidence={"Oil": "dry"})),
     ["validate"], "evidence"),
    ("unknown cpt parent to validate",
     _edited(NUMERIC_DOC, lambda d: _cpt(d, "Seismic")["parents"].append("Nope")),
     ["validate"], "bad parent list"),
    ("negative cpt entry to validate",
     _edited(OOM_DOC, lambda d: _cpt(d, "Oil").update(table=["(-,0)", "(+,0)", "(+,0)"])),
     ["validate"], "cpt for Oil: entries must be positive or zero order-of-magnitude values"),
    ("unknown-sign cpt entry to validate",
     _edited(OOM_DOC, lambda d: _cpt(d, "Oil").update(table=["(+-,1)", "(+,0)", "(+,0)"])),
     ["validate"], "cpt for Oil: entries must be positive or zero order-of-magnitude values"),
    ("two violations to validate",
     _edited(NUMERIC_DOC, lambda d: [_cpt(d, "Oil").update(table=[0.7, 0.7, 0.7]),
                                     d["utilities"][0].update(table=[1.0])]),
     ["validate"], "sum to 1; utility 0"),
]

HUGE = "9" * 400  # an order no float64 holds
SUBNORMAL_UTILITY = _edited(
    NUMERIC_DOC, lambda d: d["utilities"][0].update(table=[-1e-310, 0.0])
)
OVERFLOWING_UTILITIES = _edited(
    NUMERIC_DOC, lambda d: [u.update(table=[1.7e308] * len(u["table"])) for u in d["utilities"]]
)
NEGATIVE_ORDER = _edited(
    OOM_DOC, lambda d: _cpt(d, "Oil").update(table=["(+,-2)", "(+,0)", "(+,1)"])
)


def _wide_chain(n: int = 20) -> dict:
    """A valid file of about 4 KB that no solve can hold: binary decisions
    D1..Dn, each observing a binary root Ci, and one utility over (Dn, Cn).
    Closed, Dn observes 2n - 1 variables, so its bucket has 2**(2n) cells."""
    binary = ["a", "b"]
    ids = range(1, n + 1)
    return {
        "variables": [{"id": f"C{i}", "kind": "chance", "domain": binary} for i in ids]
        + [{"id": f"D{i}", "kind": "decision", "domain": binary} for i in ids],
        "cpts": [{"child": f"C{i}", "parents": [], "table": [0.5, 0.5]} for i in ids],
        "utilities": [{"scope": [f"D{n}", f"C{n}"], "table": [1.0, 0.0, 0.0, 1.0]}],
        "decision_order": [f"D{i}" for i in ids],
        "information_sets": {f"D{i}": [f"C{i}"] for i in ids},
    }


# inputs of the right shape whose numbers no float64 computation can take or
# no probability can have, or whose tables no solve can hold
INPUT_FAULTS = [
    ("negative probability order",
     NEGATIVE_ORDER, ["solve-oom"], "probability orders must be at least 0"),
    ("negative probability order to validate",
     NEGATIVE_ORDER, ["validate"], "probability orders must be at least 0"),
    ("huge qualitative cpt order",
     _edited(OOM_DOC, lambda d: _cpt(d, "Oil").update(table=[f"(+,{HUGE})", "(+,0)", "(+,0)"])),
     ["solve-oom"], "orders must lie within"),
    ("huge qualitative utility order",
     _edited(OOM_DOC, lambda d: d["utilities"][0].update(table=[f"{{(+,-{HUGE})}}"] * 2)),
     ["solve-oom"], "orders must lie within"),
    ("subnormal utility to solve-oom",
     SUBNORMAL_UTILITY, ["solve-oom", "--epsilon", "0.1"], "1/|u| overflows"),
    ("subnormal utility to compare",
     SUBNORMAL_UTILITY, ["compare", "--epsilon", "0.1"], "1/|u| overflows"),
    ("subnormal utility to convert",
     SUBNORMAL_UTILITY, ["convert", "--epsilon", "0.1", "--out", os.devnull], "1/|u| overflows"),
    ("epsilon next to 1",
     lambda: NUMERIC_DOC, ["solve-oom", "--epsilon", "0.9999999999999999"], "no bracket"),
    ("converted order beyond float64",
     _edited(NUMERIC_DOC, lambda d: _cpt(d, "Oil").update(table=[1e-50, 0.3, 0.7])),
     ["convert", "--epsilon", repr(1 - 2.0**-46), "--out", os.devnull], "exceeds"),
    ("utilities summing past the largest float to solve-exact",
     OVERFLOWING_UTILITIES, ["solve-exact"], "half the largest float"),
    ("utilities summing past the largest float to compare",
     OVERFLOWING_UTILITIES, ["compare", "--epsilon", "0.1"], "half the largest float"),
    ("bucket of 2**40 cells to solve-exact",
     _wide_chain, ["solve-exact"], f"has {2**40} cells, more than the limit"),
    ("bucket of 2**40 cells to solve-oom",
     _wide_chain, ["solve-oom", "--epsilon", "0.1"], f"has {2**40} cells, more than the limit"),
    ("bucket of 2**40 cells to compare",
     _wide_chain, ["compare", "--epsilon", "0.1"], f"has {2**40} cells, more than the limit"),
]
MALFORMED += INPUT_FAULTS


def _run_argv(command, path):
    return command[:1] + [str(path)] + command[1:]


# runs ``main`` on each command line of the JSON list in argv[1] and prints
# the exit codes with what went to stderr, as JSON
RUN_EACH = """
import contextlib, io, json, sys
from oomid.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append([main(argv), err.getvalue()])
print(json.dumps(results))
"""


class TestMalformedInput:
    @pytest.mark.parametrize(
        "build, command, fragment",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_exit_2_with_one_line_error(self, build, command, fragment, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(build()))
        assert main(_run_argv(command, path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert fragment in err

    def test_input_faults_with_asserts_stripped(self, tmp_path):
        # python -O strips asserts, so a guard left as one fails here
        argvs = []
        for i, (_, build, command, _) in enumerate(INPUT_FAULTS):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(build()))
            argvs.append(_run_argv(command, path))
        argv = [sys.executable, "-O", "-c", RUN_EACH, json.dumps(argvs)]
        proc = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for (case, _, _, fragment), (code, err) in zip(INPUT_FAULTS, json.loads(proc.stdout)):
            assert code == 2 and fragment in err, (case, err)

    def test_qualitative_file_to_numeric_solver(self, tmp_path, capsys):
        path = tmp_path / "w_oom.json"
        path.write_text(json.dumps(OOM_DOC))
        assert main(["solve-exact", str(path)]) == 2
        assert "expected a numeric diagram" in capsys.readouterr().err


NAMES = st.sampled_from(["Test", "Oil", "Seismic", "Drill", "Nope"])
ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 2),
    st.sampled_from(
        ["(+,0)", "(+,1)", "(-,0)", "(+-,inf)", "{(+,-1)}", "{(+-,0),(+-,inf)}", "x"]
    ),
    st.none(),
    st.booleans(),
)


@st.composite
def mutated_documents(draw):
    """The wildcatter document, numeric or qualitative, with a few edits to
    ids, parents, scopes, table lengths, entries and information sets."""
    numeric = draw(st.booleans())
    doc = copy.deepcopy(NUMERIC_DOC if numeric else OOM_DOC)
    tables = doc["cpts"] + doc["utilities"]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["id", "parents", "scope", "length", "entry", "info"]))
        if edit == "id":
            draw(st.sampled_from(doc["variables"]))["id"] = draw(NAMES)
        elif edit == "parents":
            cpt = draw(st.sampled_from(doc["cpts"]))
            cpt["parents"] = draw(st.lists(NAMES, max_size=3))
        elif edit == "scope":
            utility = draw(st.sampled_from(doc["utilities"]))
            utility["scope"] = draw(st.lists(NAMES, max_size=3))
        elif edit == "length":
            table = draw(st.sampled_from(tables))["table"]
            if draw(st.booleans()) and table:
                table.pop()
            else:
                table.append(draw(ENTRIES))
        elif edit == "entry":
            table = draw(st.sampled_from(tables))["table"]
            if table:
                table[draw(st.integers(0, len(table) - 1))] = draw(ENTRIES)
        else:
            info = doc["information_sets"]
            key = draw(NAMES)
            if draw(st.booleans()):
                info.pop(key, None)
            else:
                info[key] = draw(st.lists(NAMES, max_size=3))
    return numeric, doc


@settings(max_examples=150)
@given(mutated_documents())
def test_mutated_files_exit_0_or_2(case):
    numeric, doc = case
    solve = ["solve-oom", "--epsilon", "0.1"] if numeric else ["solve-oom"]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "d.json")
        Path(path).write_text(json.dumps(doc))
        for argv in (["validate", path], ["solve-exact", path], solve + [path]):
            assert main(argv) in (0, 2), argv


def _seismic_rows_shifted(shift):
    """The open-information wildcatter with the first entry of each Seismic
    row raised by ``shift`` where Test = yes and lowered where Test = no."""
    doc = copy.deepcopy(NUMERIC_DOC)
    table = _cpt(doc, "Seismic")["table"]  # rows over (Oil, Test)
    for row in range(6):
        table[3 * row] += shift if row % 2 == 0 else -shift
    return doc


# (case, document, exit code of every command): within the row tolerance,
# Seismic rows moved in opposite directions make the probability product of
# the Test bucket vary with Test by more than one row's tolerance; past it,
# every command exits 2
ROW_SHIFT_CASES = [
    ("within tolerance", _seismic_rows_shifted(0.9 * ROW_TOLERANCE), 0),
    ("beyond tolerance", _seismic_rows_shifted(1.1 * ROW_TOLERANCE), 2),
]
COMMANDS = [
    ["validate"],
    ["solve-exact"],
    ["compare", "--epsilon", "0.1", "--samples", "3"],
    ["solve-oom", "--epsilon", "0.1"],
]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize(
    "doc, code", [c[1:] for c in ROW_SHIFT_CASES], ids=[c[0] for c in ROW_SHIFT_CASES]
)
def test_rows_near_tolerance(doc, code, command, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    assert main(command[:1] + [str(path)] + command[1:]) == code


def _env():
    """The environment with this checkout's ``oomid`` first on the path."""
    paths = [str(Path(oomid.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_rows_near_tolerance_with_asserts_stripped(tmp_path):
    # python -O strips asserts, so a guard against input left as one fails here
    env = _env()
    runs = []
    for case, doc, code in ROW_SHIFT_CASES:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        # past the tolerance one command shows the rejection
        for command in COMMANDS if code == 0 else COMMANDS[1:2]:
            argv = [sys.executable, "-O", "-m", "oomid.cli", command[0], str(path), *command[1:]]
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            runs.append((argv, code, proc))
    for argv, code, proc in runs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == code, (argv, err.decode())


def _utility_ancestors(doc) -> set[str]:
    """The utilities' scopes and every variable they reach along CPT parents
    and information sets."""
    parents = {c["child"]: c["parents"] for c in doc["cpts"]}
    parents.update(doc["information_sets"])
    seen: set[str] = set()
    stack = [v for u in doc["utilities"] for v in u["scope"]]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(parents.get(v, ()))
    return seen


NEAR_TOLERANCE_BASES = [
    NUMERIC_DOC,
    to_dict(generate(GeneratorParams(n_c=7, n_d=3, k=3, p=2, r=3, a=3, seed=5))),
]
SHIFTS = st.one_of(
    st.sampled_from([-ROW_TOLERANCE, ROW_TOLERANCE]),
    st.floats(-ROW_TOLERANCE, ROW_TOLERANCE),
)


@st.composite
def near_tolerance_documents(draw):
    """A numeric document with one entry of each CPT row of some utility
    ancestors moved by up to the validator's row tolerance: up where one
    parent's value is even, down where it is odd, or up in every row."""
    doc = copy.deepcopy(draw(st.sampled_from(NEAR_TOLERANCE_BASES)))
    sizes = {v["id"]: len(v["domain"]) for v in doc["variables"]}
    kept = _utility_ancestors(doc)
    for cpt in doc["cpts"]:
        if cpt["child"] not in kept or not draw(st.booleans()):
            continue
        k, parents = sizes[cpt["child"]], [sizes[p] for p in cpt["parents"]]
        j = draw(st.integers(0, len(parents)))  # len(parents): every row up
        stride = math.prod(parents[j + 1 :])
        shift, entry = draw(SHIFTS), draw(st.integers(0, k - 1))
        for row in range(len(cpt["table"]) // k):
            odd = j < len(parents) and row // stride % parents[j] % 2
            cpt["table"][row * k + entry] += -shift if odd else shift
    return doc


@settings(max_examples=80)
@given(near_tolerance_documents())
def test_rows_within_tolerance_solve(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "d.json")
        Path(path).write_text(json.dumps(doc))
        if main(["validate", path]) == 0:
            for command in COMMANDS[1:]:
                assert main(command[:1] + [path] + command[1:]) == 0, command


class TestSolveExact:
    def test_wildcatter_output(self, wildcatter_path, capsys):
        assert main(["solve-exact", wildcatter_path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "MEU = 42.750000"
        assert out[1] == "policy:"
        assert "  Test: yes" in out
        assert "  Drill | Test=yes, Seismic=diffuse: no" in out
        assert "  Drill | Test=yes, Seismic=open: yes" in out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["solve-exact", str(path)]) == 2

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["solve-exact", str(tmp_path / "nope.json")]) == 3


class TestSolveOOM:
    def test_epsilon_01(self, wildcatter_path, capsys):
        assert main(["solve-oom", wildcatter_path, "--epsilon", "0.1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "MEU = {(+,-2)}"
        assert out[1] == "policies = 2"
        assert "  Test: {yes,no}" in out
        assert "  Drill | Test=yes, Seismic=diffuse: {no}" in out
        assert "  Drill | Test=no, Seismic=diffuse: {yes}" in out

    def test_epsilon_0001_policy_count(self, wildcatter_path, capsys):
        assert main(["solve-oom", wildcatter_path, "--epsilon", "0.001"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "policies = 128"

    def test_native_oom_file(self, wildcatter_path, tmp_path, capsys):
        oom_path = tmp_path / "w_oom.json"
        assert (
            main(
                [
                    "convert",
                    wildcatter_path,
                    "--epsilon",
                    "0.1",
                    "--out",
                    str(oom_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["solve-oom", str(oom_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "MEU = {(+,-2)}"
        assert out[1] == "policies = 2"

    def test_native_file_gets_nonforgetting_closure(self, tmp_path, capsys):
        path = tmp_path / "open_oom.json"
        save(convert(wildcatter(nonforgetting=False), ConversionConfig(0.1)), path)
        assert main(["solve-oom", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["MEU = {(+,-2)}", "policies = 2"]
        assert "  Drill | Test=yes, Seismic=diffuse: {no}" in out

    def test_epsilon_rejected_for_native_file(self, tmp_path):
        path = tmp_path / "w_oom.json"
        path.write_text(json.dumps(OOM_DOC))
        assert main(["solve-oom", str(path), "--epsilon", "0.1"]) == 2

    def test_bad_epsilon_exit_2(self, wildcatter_path):
        assert main(["solve-oom", wildcatter_path, "--epsilon", "1.5"]) == 2

    def test_epsilon_required_without_oom_flag(self, wildcatter_path):
        assert main(["solve-oom", wildcatter_path]) == 2


class TestCompare:
    def test_wildcatter(self, wildcatter_path, capsys):
        assert (
            main(
                [
                    "compare",
                    wildcatter_path,
                    "--epsilon",
                    "0.1",
                    "--samples",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.splitlines()
        assert "v = 42.750000" in out
        assert "v_max = 42.750000" in out
        assert "eta_max = 0.000000" in out
        assert "policies = 2" in out
        assert any(line.startswith("sampled utilities: 20.000000") for line in out)

    def test_replacement_note_when_sampling_more_than_exist(
        self, wildcatter_path, capsys
    ):
        assert (
            main(
                [
                    "compare",
                    wildcatter_path,
                    "--epsilon",
                    "0.1",
                    "--samples",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sampled with replacement" in out

    def test_negative_seed(self, wildcatter_path, capsys):
        # the seed only seeds random.Random, which takes any integer
        args = ["compare", wildcatter_path, "--epsilon", "0.1", "--samples", "2"]
        assert main(args + ["--seed", "-5"]) == 0
        assert "policies = 2" in capsys.readouterr().out


# sha256 of the file ``oomid convert`` writes for the bundled wildcatter at
# each epsilon, and of ``oomid compare --epsilon 0.1 --samples 5`` stdout,
# recorded before the tables became arrays; never re-record them
BUNDLED = Path(oomid.__file__).parent / "data" / "wildcatter.json"
CONVERT_DIGESTS = {
    "0.5": "da55f19fa13e30fa634434ffc2ac7ca4ad482e7ce7a0f0d136c1b0de1c61a6c7",
    "0.1": "db5504dde3e742471ad2349965a2d17d750eb1d2c65570f8f76a1c897ce6a892",
    "0.005": "bfe106aa7ada532422426e40bde8566f2fbefba340bdf14231b4c906058ffc8f",
}
COMPARE_DIGEST = "3ef32839cabb72a0471f503a8c2ea5c4d1c364b7e5cf46bb00178b9ffecff0f2"


class TestOutputBytesPinned:
    @pytest.mark.parametrize("eps", list(CONVERT_DIGESTS))
    def test_convert(self, eps, tmp_path, capsys):
        out = tmp_path / "oom.json"
        assert main(["convert", str(BUNDLED), "--epsilon", eps, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CONVERT_DIGESTS[eps]

    def test_compare(self, capsys):
        assert main(["compare", str(BUNDLED), "--epsilon", "0.1", "--samples", "5"]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == COMPARE_DIGEST


class TestBench:
    def test_tiny_run_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        summary = tmp_path / "s.csv"
        args = [
            "bench",
            "--n",
            "12",
            "--epsilons",
            "0.5,0.05",
            "--instances",
            "2",
            "--samples",
            "3",
            "--seed",
            "7",
        ]
        assert main(args + ["--out", str(out_a), "--summary-out", str(summary)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + epsilons x instances
        assert summary.exists()

    def test_unwritable_out_exit_3(self, tmp_path):
        args = [
            "bench",
            "--n",
            "12",
            "--instances",
            "1",
            "--samples",
            "1",
            "--out",
            str(tmp_path / "missing_dir" / "x.csv"),
        ]
        assert main(args) == 3

    @pytest.mark.parametrize("flag", ["--n", "--epsilons"])
    def test_empty_grid_exit_2(self, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        args = ["bench", "--n", "12", "--instances", "1", "--samples", "1"]
        assert main(args + [flag, ",", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["3", "9", "-1", "25,9"])
    def test_size_below_10_exit_2(self, sizes, tmp_path, capsys, monkeypatch):
        # 5 decisions and at least r = 5 chance variables; no instance runs
        def run_experiment(*args, **kwargs):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        out = tmp_path / "x.csv"
        args = ["bench", "--n", sizes, "--instances", "1", "--samples", "1"]
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: --n ")
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        def generate(*args, **kwargs):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(bench, "generate", generate)
        out = tmp_path / "x.csv"
        args = ["bench", "--n", "12", "--instances", "1", "--samples", "1", "--seed", "-1"]
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be at least 0, not -1\n"
        assert not out.exists()
