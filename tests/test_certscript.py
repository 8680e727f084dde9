from importlib import resources

import pytest

from lieext import CapabilityError, ParseError, run_script
from lieext.certscript import EXCERPT_LIMIT

SHIPPED = ("lemma22.cert", "prop32.cert", "thm23_span.cert")


def shipped(name):
    return resources.files("lieext").joinpath("certs").joinpath(name).read_text()


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_certificates_pass(name):
    result = run_script(shipped(name))
    assert result.passed
    assert result.characteristic == 0  # guards only exclude 2 and 3
    assert all(a.ok for a in result.assertions)


def test_quadratic_action_certificate_final_value():
    result = run_script(shipped("lemma22.cert"))
    final = result.assertions[-1]
    assert final.kind == "reduce"
    assert final.value == "12/1*Y^2"


def test_recognition_certificate_collapse_chain():
    result = run_script(shipped("prop32.cert"))
    values = [a.value for a in result.assertions]
    assert values == ["-X - 2/1*Y*V*Y", "-2/1*Y + 2/1*Y*X*Y", "X", "Y", "V"]


def test_span_certificate_words():
    result = run_script(shipped("thm23_span.cert"))
    span = result.assertions[-1]
    assert span.kind == "span"
    assert span.value == "1 X Y X*Y Y*X"


def test_shipped_certificates_pass_in_characteristic_five():
    for name in SHIPPED:
        result = run_script(shipped(name), characteristic=5)
        assert result.passed and result.characteristic == 5


def test_characteristic_guard_rejects_excluded():
    for name in SHIPPED:
        with pytest.raises(CapabilityError):
            run_script(shipped(name), characteristic=3)


def test_char_in_guard_chooses_smallest_admissible():
    text = "symbols X\nchar in {7, 11}\nassert reduce(X) == X\n"
    assert run_script(text).characteristic == 7
    assert run_script(text, characteristic=11).characteristic == 11
    with pytest.raises(CapabilityError):
        run_script(text, characteristic=5)


def test_guard_intersection():
    text = "symbols X\nchar in {5, 7}\nchar not in {5}\nassert reduce(X) == X\n"
    assert run_script(text).characteristic == 7


def test_unsatisfiable_guard():
    with pytest.raises(CapabilityError):
        run_script("symbols X\nchar in {4}\nassert reduce(X) == X\n")


def test_failing_assertion_is_data_not_error():
    text = (
        "symbols X Y\n"
        "rule X^2 -> 0\n"
        "assert reduce(X^2*Y + X) == Y\n"
    )
    result = run_script(text)
    assert not result.passed
    (a,) = result.assertions
    assert not a.ok
    assert a.value == "X"
    assert a.residual == "X - Y"


def test_failing_span_assertion_reports_difference():
    text = (
        "symbols X\n"
        "rule X^2 -> 0\n"
        "assert span(3) == 1\n"
    )
    result = run_script(text)
    (a,) = result.assertions
    assert not a.ok
    assert "extra: X" in a.residual


def test_script_syntax_errors():
    with pytest.raises(ParseError):
        run_script("assert reduce(X) == X\n")  # no symbols line
    with pytest.raises(ParseError):
        run_script("symbols X\nrule X + 1 -> 0\n")  # lhs not a bare word
    with pytest.raises(ParseError):
        run_script("symbols X\nrule X -> X^2\n")  # non-terminating
    with pytest.raises(ParseError):
        run_script("symbols X\nfrobnicate X\n")
    with pytest.raises(ParseError):
        run_script("symbols X\nlet a = X\nlet a = X\n")  # rebinding
    with pytest.raises(ParseError):
        run_script("symbols X\nassert span(2) == 2*X\n")  # non-bare expectation
    with pytest.raises(ParseError):
        run_script("symbols X\nchar in {two}\nassert reduce(X) == X\n")


def test_parse_errors_quote_a_bounded_excerpt():
    with pytest.raises(ParseError) as short:
        run_script("symbols X\nassert reduce(X + ) == X\n")
    assert str(short.value) == (
        "in expression 'X + ': unexpected end of input at position 4 at line 2")
    deep = "(" * 3000 + "X" + ")" * 3000
    with pytest.raises(ParseError) as long:
        run_script(f"symbols X\nassert reduce({deep}) == X\n")
    message = str(long.value)
    assert "nested deeper than 100 at position 100" in message
    assert f"'...{'(' * EXCERPT_LIMIT}...'" in message and len(message) < EXCERPT_LIMIT + 100
    tail = "X + " * 100 + "Q"
    with pytest.raises(ParseError) as late:
        run_script(f"symbols X\nassert reduce({tail}) == X\n")
    assert f"'...{tail[-EXCERPT_LIMIT:]}'" in str(late.value)


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# a certificate\n"
        "\n"
        "symbols X Y   # alphabet\n"
        "let P = X*Y  # binding\n"
        "assert reduce(P) == X*Y\n"
    )
    assert run_script(text).passed


def test_rules_in_report():
    result = run_script(shipped("thm23_span.cert"))
    assert result.rules[0] == "X^2 -> 0"
    assert len(result.rules) == 4
    d = result.to_dict()
    assert d["passed"] is True
    assert d["characteristic"] == 0
    assert [a["kind"] for a in d["assertions"]][-1] == "span"


def _alternating_words(alphabet, degree):
    words, level = [()], [()]
    for _ in range(degree):
        level = [w + (s,) for w in level for s in alphabet if not w or w[-1] != s]
        words += level
    return words


def test_flat_span_expectation_matches_let_built_one():
    """span(9) over {X, Y, Z} under s^2 -> 0: the 1,534 alternating words,
    once as one flat sum and once built level by level with let bindings."""
    alphabet, degree = "XYZ", 9
    header = ["symbols X Y Z"] + [f"rule {s}^2 -> 0" for s in alphabet]
    lets = [f"let A1{s} = {s}" for s in alphabet]
    for k in range(2, degree + 1):
        for s in alphabet:
            prev = " + ".join(f"A{k - 1}{t}" for t in alphabet if t != s)
            lets.append(f"let A{k}{s} = ({prev})*{s}")
    total = " + ".join(f"A{k}{s}" for k in range(1, degree + 1) for s in alphabet)
    let_built = "\n".join(header + lets + [f"assert span({degree}) == 1 + {total}"])
    words = _alternating_words(alphabet, degree)
    assert len(words) == 1534
    flat_sum = " + ".join("*".join(w) or "1" for w in words)
    # comment lines put the assertion on the same line number in both scripts
    flat = "\n".join(header + ["#"] * len(lets) + [f"assert span({degree}) == {flat_sum}"])
    result = run_script(flat)
    assert result.passed
    assert result == run_script(let_built)


def test_span_residual_order():
    """Missing words come in expectation order, extra words in span order."""
    text = (
        "symbols X Y\n"
        "rule X^2 -> 0\nrule Y^2 -> 0\nrule X*Y*X -> X\nrule Y*X*Y -> Y\n"
        "assert span(6) == Y*X + Y*Y*X + 1 + X*X + X\n"
    )
    (a,) = run_script(text).assertions
    assert not a.ok
    assert a.value == "1 X Y X*Y Y*X"
    assert a.residual == "missing: Y^2*X X^2; extra: Y X*Y"
