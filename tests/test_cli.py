import argparse
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from lieext import builtin, classify_theorem_main, run_script, scan_basis, to_json
from lieext import algebra, cli
from lieext.cli import run
from lieext.linalg import vec_combine

from conftest import on_random_basis

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def witt5_file(tmp_path):
    path = tmp_path / "witt5.json"
    path.write_text(to_json(builtin("witt5", 5)))
    return str(path)


@pytest.fixture
def heisenberg_file(tmp_path):
    path = tmp_path / "heis.json"
    path.write_text(to_json(builtin("heisenberg", 5)))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _ = invoke(capsys, *argv)
    return code, json.loads(out)


# -- builtin -------------------------------------------------------------------

def test_builtin_writes_canonical_file(capsys):
    code, out, _ = invoke(capsys, "builtin", "witt5", "-p", "5")
    assert code == 0
    assert out == to_json(builtin("witt5", 5))


def test_builtin_output_is_byte_stable(capsys):
    _, first, _ = invoke(capsys, "builtin", "sl3", "-p", "7")
    _, second, _ = invoke(capsys, "builtin", "sl3", "-p", "7")
    assert first == second


def test_builtin_usage_errors(capsys):
    assert invoke(capsys, "builtin", "nosuch", "-p", "5")[0] == 2
    assert invoke(capsys, "builtin", "witt5", "-p", "7")[0] == 2
    assert invoke(capsys, "builtin", "sl2", "-p", "3")[0] == 2


def test_builtin_warns_when_characteristic_divides_n(capsys):
    code, _, err = invoke(capsys, "builtin", "sl3", "-p", "0")
    assert code == 0 and err == ""
    # no prime dividing 3 or 4 is admissible here (2 and 3 are refused), so
    # the CLI has no such note to print and stderr stays empty
    code, _, err = invoke(capsys, "builtin", "sl4", "-p", "5")
    assert code == 0 and err == ""


# -- check ---------------------------------------------------------------------

def test_check_valid_algebra(capsys, witt5_file):
    code, doc = out_json(capsys, "check", witt5_file)
    assert code == 0
    assert doc["valid"] is True
    assert doc["violations"] == []
    assert doc["tool_version"]
    assert len(doc["input_sha256"]) == 64


def test_check_mutated_algebra_names_a_triple(capsys, tmp_path):
    doc = json.loads(to_json(builtin("witt5", 5)))
    doc["brackets"][0]["terms"] = [[0, "2"]]  # [Dz, z*Dz] = 2*Dz
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, rep = out_json(capsys, "check", str(bad))
    assert code == 1
    assert rep["valid"] is False
    assert rep["violations"]
    assert all(len(t) == 3 for t in rep["violations"])


def test_check_malformed_file(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert invoke(capsys, "check", str(p))[0] == 2
    assert invoke(capsys, "check", str(tmp_path / "absent.json"))[0] == 2
    doc = json.loads(to_json(builtin("sl2", 5)))
    doc["brackets"][0]["i"] = False          # a bool, although false == 0
    p.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert "bracket indices must be integers" in err


# -- extremal --------------------------------------------------------------------

def test_extremal_vector_accepts_seed_element(capsys, witt5_file):
    code, doc = out_json(capsys, "extremal", witt5_file, "--vector", "0,0,4,0,0")
    assert code == 0
    assert doc["kind"] == "extremal_nonsandwich"
    assert doc["functional"][0] == "3"


def test_extremal_vector_sandwich_exit(capsys, heisenberg_file):
    code, doc = out_json(capsys, "extremal", heisenberg_file, "--vector", "1,0,0")
    assert code == 1
    assert doc["kind"] == "sandwich"


def test_extremal_scan_basis_is_thin_adapter(capsys, witt5_file):
    code, doc = out_json(capsys, "extremal", witt5_file, "--scan-basis")
    assert code == 0
    lib = scan_basis(builtin("witt5", 5))
    assert [r["kind"] for r in doc["results"]] == [st.kind for st in lib]
    assert doc["results"][2]["name"] == "z^2*Dz"


def test_extremal_exhaustive(capsys, witt5_file):
    code, doc = out_json(capsys, "extremal", witt5_file, "--exhaustive")
    assert code == 0
    assert doc["counts"]["extremal_nonsandwich"] == 20
    assert doc["counts"]["sandwich"] == 4
    assert len(doc["extremal_nonsandwich"]) == 20
    code, reps = out_json(capsys, "extremal", witt5_file, "--exhaustive", "--representatives")
    assert len(reps["extremal_nonsandwich"]) == 5
    assert reps["counts"] == doc["counts"]


def _wide_file(tmp_path, n):
    """Heisenberg plus an abelian summand in dimension n: [b0, b1] = b_(n-1)."""
    path = tmp_path / f"wide{n}.json"
    path.write_text(json.dumps({
        "characteristic": 5, "dim": n, "basis": [f"b{i}" for i in range(n)],
        "brackets": [{"i": 0, "j": 1, "terms": [[n - 1, "1"]]}]}))
    return str(path)


def test_algebra_files_are_bounded_in_dimension(capsys, tmp_path):
    limit = algebra.DIM_LIMIT
    assert limit >= 48                                  # sl7 fits
    at, past = _wide_file(tmp_path, limit), _wide_file(tmp_path, limit + 1)
    code, doc = out_json(capsys, "check", at)
    assert code == 0 and doc["valid"] is True
    code, doc = out_json(capsys, "extremal", at, "--scan-basis")
    assert code == 0 and len(doc["results"]) == limit
    assert {r["kind"] for r in doc["results"]} == {"sandwich"}    # ad(x)^2 = 0 throughout
    for argv in (["check", past], ["extremal", past, "--scan-basis"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: dim {limit + 1} exceeds the limit of {limit}\n"


def test_extremal_exhaustive_refuses_beyond_the_bound(capsys, tmp_path):
    path = tmp_path / "sl4.json"
    path.write_text(to_json(builtin("sl4", 7)))
    code, out, err = invoke(capsys, "extremal", str(path), "--exhaustive")
    assert code == 2 and out == ""
    assert err == "error: exhaustive scan limited to p^n <= 10000000\n"


def test_extremal_rejects_threads_flag(capsys, witt5_file):
    code, out, err = invoke(capsys, "extremal", witt5_file, "--exhaustive", "--threads", "4")
    assert code == 2 and out == ""
    assert "--threads" in err


def test_extremal_usage_errors(capsys, witt5_file):
    assert invoke(capsys, "extremal", witt5_file)[0] == 2            # no mode
    assert invoke(capsys, "extremal", witt5_file, "--vector", "1,2")[0] == 2
    assert invoke(capsys, "extremal", witt5_file, "--vector", "0,0,5,0,0")[0] == 2


@pytest.mark.parametrize("mode", [("--vector", "0,0,4,0,0"), ("--scan-basis",)])
def test_extremal_representatives_needs_exhaustive(capsys, witt5_file, mode):
    # --representatives only shapes the exhaustive report; with another mode
    # it is refused as a usage error instead of being ignored, before the
    # file is read
    for path in (witt5_file, "no-such-file.json"):
        code, out, err = invoke(capsys, "extremal", path, *mode, "--representatives")
        assert code == 2 and out == ""
        assert err.endswith(
            "error: extremal: --representatives applies only with --exhaustive\n")
    assert invoke(capsys, "extremal", witt5_file, *mode)[0] == 0


# -- sl2 / grade -------------------------------------------------------------------

def test_sl2_report(capsys, witt5_file):
    code, doc = out_json(capsys, "sl2", witt5_file, "--x", "0,0,4,0,0")
    assert code == 0
    assert doc["witness"] == ["1", "0", "0", "0", "0"]
    assert doc["triple"]["h"] == ["0", "2", "0", "0", "0"]
    assert doc["completion"]["x1"] == ["0"] * 5


def test_sl2_rejects_sandwich(capsys, heisenberg_file):
    assert invoke(capsys, "sl2", heisenberg_file, "--x", "1,0,0")[0] == 1


def test_grade_report(capsys, witt5_file):
    code, doc = out_json(capsys, "grade", witt5_file, "--x", "0,0,4,0,0", "--y", "1,0,0,0,0")
    assert code == 0
    assert doc["grading_dims"] == {"-2": 1, "-1": 1, "0": 1, "1": 1, "2": 1}
    assert doc["integer_graded"] is False
    assert doc["components"]["1"] == [["0", "0", "0", "1", "0"]]


def test_grade_rejects_non_pair(capsys, witt5_file):
    assert invoke(capsys, "grade", witt5_file, "--x", "0,0,4,0,0", "--y", "0,1,0,0,0")[0] == 1


# -- classify ----------------------------------------------------------------------

def test_classify_witt5_matches_golden(capsys, witt5_file):
    code, out, _ = invoke(capsys, "classify", witt5_file, "--x", "0,0,4,0,0")
    assert code == 0
    assert out == (GOLDEN / "classify_witt5.json").read_text()


def test_classify_sl3_f7_matches_golden(capsys, tmp_path):
    path = tmp_path / "sl3.json"
    path.write_text(to_json(builtin("sl3", 7)))
    code, out, _ = invoke(capsys, "classify", str(path), "--x", "0,1,0,0,0,0,0,0")
    assert code == 0
    assert out == (GOLDEN / "classify_sl3_f7.json").read_text()


@pytest.mark.parametrize("name,p,x,golden", [
    ("sl3", 7, (0, 1, 0, 0, 0, 0, 0, 0), "sl2_sl3_f7.json"),   # E13
    ("witt5", 5, (0, 0, 4, 0, 0), "sl2_witt5.json"),           # -z^2 Dz
])
def test_sl2_on_random_basis_matches_golden(capsys, tmp_path, name, p, x, golden):
    """On a dense basis the witness needs a correction, so the golden pins
    the completion's x1 and w1, not only the triple."""
    l = builtin(name, p)
    dense, old_basis = on_random_basis(l, random.Random(1))
    path = tmp_path / f"{name}.json"
    path.write_text(to_json(dense))
    coords = ",".join(map(l.field.format, vec_combine(l.field, x, old_basis)))
    code, out, _ = invoke(capsys, "sl2", str(path), "--x", coords)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()
    assert set(json.loads(out)["completion"]["w1"]) != {"0"}


def test_classify_reads_standard_input(capsys, monkeypatch):
    import io

    text = to_json(builtin("witt5", 5))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    code, out, _ = invoke(capsys, "classify", "-", "--x", "0,0,4,0,0")
    assert code == 0
    assert out == (GOLDEN / "classify_witt5.json").read_text()


def test_classify_is_thin_adapter(capsys, witt5_file):
    _, doc = out_json(capsys, "classify", witt5_file, "--x", "0,0,4,0,0")
    lib = classify_theorem_main(builtin("witt5", 5), (0, 0, 4, 0, 0)).to_dict()
    doc.pop("tool_version")
    doc.pop("input_sha256")
    assert doc == lib


def test_classify_non_simple_without_flag(capsys, tmp_path):
    path = tmp_path / "ext.json"
    path.write_text(to_json(builtin("wittext5", 5)))
    assert invoke(capsys, "classify", str(path), "--x", "0,0,4,0,0,0")[0] == 1
    code, doc = out_json(capsys, "classify", str(path), "--x", "0,0,4,0,0,0",
                         "--assume-simple")
    assert code == 0
    assert doc["verdict"] == "WittExceptional"
    assert doc["isomorphism"]["target"] == "W_tilde"
    assert doc["hypotheses"]["simplicity"]["mode"] == "assumed"


def test_classify_over_rationals_needs_assume_simple(capsys, tmp_path):
    path = tmp_path / "sl3q.json"
    path.write_text(to_json(builtin("sl3", 0)))
    code, out, err = invoke(capsys, "classify", str(path), "--x",
                             ",".join(["1/1"] + ["0/1"] * 7))
    assert code == 2 and out == ""
    assert "rerun with assume_simple" in err


def test_classify_not_extremal_exit(capsys, witt5_file):
    assert invoke(capsys, "classify", witt5_file, "--x", "1,0,0,0,0")[0] == 1


def test_classify_contradiction_exit(capsys, tmp_path):
    from lieext import Field, LieAlgebra

    corrupt = LieAlgebra(Field(7), ["x", "y", "h", "m", "n"], {
        (0, 1): [(2, 1)],
        (0, 2): [(0, -2)],
        (1, 2): [(1, 2)],
        (1, 3): [(4, 1)],
        (1, 4): [(0, 1)],
        (2, 3): [(3, 1)],
        (2, 4): [(4, -1)],
    })
    path = tmp_path / "corrupt.json"
    path.write_text(to_json(corrupt))
    code, _, err = invoke(capsys, "classify", str(path), "--x", "1,0,0,0,0",
                          "--assume-simple")
    assert code == 3
    assert "contradiction" in err


# -- cert --------------------------------------------------------------------------

def test_cert_shipped_scripts_by_name(capsys):
    for name in ("lemma22.cert", "prop32.cert", "thm23_span.cert"):
        code, doc = out_json(capsys, "cert", name)
        assert code == 0
        assert doc["passed"] is True


def test_cert_matches_library(capsys):
    from importlib import resources

    text = resources.files("lieext").joinpath("certs/lemma22.cert").read_text()
    _, doc = out_json(capsys, "cert", "lemma22.cert")
    lib = run_script(text).to_dict()
    for key in lib:
        assert doc[key] == lib[key]


def test_cert_failing_script_exits_one(capsys, tmp_path):
    script = tmp_path / "fail.cert"
    script.write_text("symbols X\nrule X^2 -> 0\nassert reduce(X) == 0\n")
    code, doc = out_json(capsys, "cert", str(script))
    assert code == 1
    assert doc["passed"] is False


def test_cert_explicit_characteristic(capsys, tmp_path):
    script = tmp_path / "c.cert"
    script.write_text("symbols X\nchar not in {2, 3}\nassert reduce(2*X) == 2*X\n")
    code, doc = out_json(capsys, "cert", str(script), "-p", "5")
    assert code == 0 and doc["characteristic"] == 5
    assert invoke(capsys, "cert", str(script), "-p", "3")[0] == 2


def test_cert_span_over_word_budget_exits_two(capsys, tmp_path):
    letters = "ABCDEFGH"
    script = tmp_path / "wide.cert"
    script.write_text(f"symbols {' '.join(letters)}\n"
                      + "".join(f"rule {s}^2 -> 0\n" for s in letters)
                      + "assert span(12) == 1\n")
    code, out, err = invoke(capsys, "cert", str(script))
    assert code == 2 and out == ""
    assert "irreducible words" in err


def test_cert_missing_script(capsys):
    assert invoke(capsys, "cert", "no_such_script.cert")[0] == 2


# -- misc ---------------------------------------------------------------------------

def test_usage_without_command(capsys):
    assert run([]) == 2


def test_reports_carry_version_and_hash(capsys, witt5_file):
    import hashlib

    _, doc = out_json(capsys, "check", witt5_file)
    payload = pathlib.Path(witt5_file).read_bytes()
    assert doc["input_sha256"] == hashlib.sha256(payload).hexdigest()
    from lieext import __version__

    assert doc["tool_version"] == __version__


# -- bounded work at the input boundary --------------------------------------------

BIG_PRIME = 10**18 + 3


def _cert(tmp_path, body):
    path = tmp_path / "in.cert"
    path.write_text(body)
    return str(path)


def _algebra(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    return str(path)


def _superscript_coefficient():
    doc = json.loads(to_json(builtin("witt5", 5)))
    doc["brackets"][0]["terms"][0][1] = "²"
    return json.dumps(doc).encode()


def _wide_square():
    """A sum of all 1024 words of length 10 over X, Y, squared."""
    words = ("".join(w) for w in itertools.product("XY", repeat=10))
    return "symbols X Y\nassert reduce((" + " + ".join(words) + ")^2) == 0\n"


BOUNDARY_CASES = {
    "cert nested 3000 deep": (lambda t: ["cert", _cert(
        t, "symbols X\nassert reduce(" + "(" * 3000 + "X" + ")" * 3000 + ") == X\n")],
        "nested deeper than 100"),
    "cert exponent 10^8": (lambda t: ["cert", _cert(
        t, "symbols X\nassert reduce(X^100000000) == 0\n")], "exponent 100000000"),
    "cert product over the limit": (lambda t: ["cert", _cert(t, _wide_square())],
                                    "a product of 1024 by 1024 terms"),
    "cert superscript coefficient": (lambda t: ["cert", _cert(
        t, "symbols X\nassert reduce(²*X) == X\n")], "unexpected character"),
    "cert superscript guard": (lambda t: ["cert", _cert(
        t, "symbols X\nchar in {²}\nassert reduce(X) == X\n")], "bad characteristic"),
    "cert span degree of 5000 digits": (lambda t: ["cert", _cert(
        t, "symbols X\nassert span(" + "9" * 5000 + ") == 1\n")], "too many digits"),
    "cert span degree in Arabic-Indic digits": (lambda t: ["cert", _cert(
        t, "symbols X\nassert span(\u0663) == 1\n")], "malformed assert line"),
    "cert rewrite past the step limit": (lambda t: ["cert", _cert(
        t, "symbols A B C D\nchar in {5}\nrule D -> A + B + C\nassert reduce(D^12) == 0\n")],
        "more than 100000 rewrite steps"),
    "cert rewrite past the letter limit": (lambda t: ["cert", _cert(
        t, "symbols X Y\nrule Y*X -> X*Y\nassert reduce(Y*((X^50)^40)^2) == 0\n")],
        "writes more than 10000000 terms plus letters"),
    "cert huge guard": (lambda t: ["cert", _cert(
        t, f"symbols X\nchar in {{{BIG_PRIME}}}\nassert reduce(X) == X\n")],
        "no admissible characteristic"),
    "cert huge -p": (lambda t: ["cert", "lemma22.cert", "-p", str(BIG_PRIME)], "not admissible"),
    "cert invalid UTF-8": (lambda t: ["cert", _algebra(t, b"symbols X\xff\n")], "not UTF-8"),
    "check invalid UTF-8": (lambda t: ["check", _algebra(t, b"\xff\xfe{}")], "not UTF-8"),
    "check JSON nested 200000 deep": (lambda t: ["check", _algebra(
        t, b"[" * 200000 + b"]" * 200000)], "invalid JSON"),
    "check huge integer": (lambda t: ["check", _algebra(t, b"1" * 5000)], "invalid JSON"),
    "check huge characteristic": (lambda t: ["check", _algebra(t, json.dumps(
        {"characteristic": BIG_PRIME, "dim": 1, "basis": ["a"], "brackets": []}).encode())],
        "must be < 2^31"),
    "check superscript coefficient": (lambda t: ["check", _algebra(
        t, _superscript_coefficient())], "expected residue"),
    "builtin huge characteristic": (lambda t: ["builtin", "sl2", "-p", str(BIG_PRIME)],
                                    "must be < 2^31"),
    "extremal superscript vector": (lambda t: [
        "extremal", _algebra(t, to_json(builtin("witt5", 5)).encode()),
        "--vector", "²,0,0,0,0"], "expected residue"),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_boundary_inputs_exit_two_without_traceback(capsys, tmp_path, case):
    make_argv, phrase = BOUNDARY_CASES[case]
    code, out, err = invoke(capsys, *make_argv(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and phrase in err
    assert "Traceback" not in err


def test_internal_error_exits_four(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("simulated defect")

    monkeypatch.setattr("lieext.cli.run_script", broken)
    code, out, err = invoke(capsys, "cert", "lemma22.cert")
    assert code == 4 and out == ""
    assert err == "internal error: ZeroDivisionError: simulated defect\n"


# -- one parser per process ---------------------------------------------------

def test_run_builds_the_parser_once(capsys, monkeypatch, witt5_file):
    invoke(capsys, "builtin", "sl2", "-p", "5")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert invoke(capsys, "check", witt5_file)[0] == 0
    assert invoke(capsys, "extremal", witt5_file, "--vector", "0,0,4,0,0")[0] == 0
    assert invoke(capsys, "check", witt5_file, "--bogus")[0] == 2
    assert invoke(capsys, "cert", "lemma22.cert")[0] == 0
    assert built == []


def test_a_usage_error_leaves_the_next_run_unchanged(capsys, witt5_file):
    bad, good = ("check", witt5_file, "--bogus"), ("check", witt5_file)
    cli._parser.cache_clear()
    alone_bad = invoke(capsys, *bad)
    cli._parser.cache_clear()
    alone_good = invoke(capsys, *good)
    cli._parser.cache_clear()
    assert invoke(capsys, *bad) == alone_bad
    assert invoke(capsys, *good) == alone_good
    assert alone_bad[0] == 2 and "unrecognized arguments: --bogus" in alone_bad[2]
    assert alone_good[0] == 0 and alone_good[2] == ""


def test_help_text_matches_a_fresh_parser(capsys):
    invoke(capsys, "builtin", "sl2", "-p", "5")
    code, out, err = invoke(capsys, "-h")
    assert code == 0 and err == ""
    assert out == cli._parser.__wrapped__().format_help()


# -- the report writer ------------------------------------------------------------------

_LEAVES = st.none() | st.booleans() | st.integers() | st.text()
_DOCUMENTS = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_report_writer_matches_json_dumps(doc):
    # nested and empty containers, non-ASCII and escaped strings, int, bool and None
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {"a": [1, 2.5]}, {1: "a"}, {"a": (1, 2)}, [{"b": {None: 1}}], {"a": [["x"], [float("inf")]]},
])
def test_report_writer_falls_back_to_json_dumps(doc):
    # a float, a tuple or a key that is not a str leaves the whole document to json.dumps
    assert cli._dumps(doc) == json.dumps(doc, indent=2)
