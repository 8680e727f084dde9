"""Plain-text certificate scripts for the rewrite engine.

A script is a sequence of lines:

    # comment
    symbols X Y V
    char not in {2, 3}
    let R2 = -X*Y^2 + 2*Y*X*Y - Y^2*X - 2*Y
    rule X^2 -> 0
    assert reduce(X*R2) == -X*Y^2*X
    assert span(6) == 1 + X + Y + X*Y + Y*X

``char`` guards restrict the characteristics under which the script's
conclusions are valid (e.g. dividing a derived identity by 12 needs the
characteristic away from 2 and 3); the runner picks an admissible
characteristic, or validates an explicitly requested one, before evaluating
anything.  A ``span`` assertion compares the irreducible words up to the
given degree against the terms of the right-hand side, all of which must
carry coefficient one.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import CapabilityError, DomainError, ParseError
from .fields import Field, _natural
from .freepoly import FreeAlgebra, RewriteRule, reduce_poly, span_closure, _format_word

_RE_SYMBOLS = re.compile(r"^symbols\s+(.+)$")
_RE_CHAR = re.compile(r"^char\s+(not\s+in|in)\s*\{([^}]*)\}$")
_RE_LET = re.compile(r"^let\s+([A-Za-z][A-Za-z0-9_]*)\s*=\s*(.+)$")
_RE_RULE = re.compile(r"^rule\s+(.+?)\s*->\s*(.+)$")
_RE_ASSERT_REDUCE = re.compile(r"^assert\s+reduce\((.+)\)\s*==\s*(.+)$")
_RE_ASSERT_SPAN = re.compile(r"^assert\s+span\(([0-9]+)\)\s*==\s*(.+)$")

EXCERPT_LIMIT = 80   # longest expression text quoted whole in a parse error


class CertAssertion(NamedTuple):
    line: int
    kind: str      # "reduce" | "span"
    ok: bool
    value: str     # what the left-hand side evaluated to
    residual: str  # difference on failure, empty when ok


class CertResult(NamedTuple):
    characteristic: int
    symbols: tuple
    assertions: tuple
    rules: tuple   # printable forms, for the report

    @property
    def passed(self) -> bool:
        return all(a.ok for a in self.assertions)

    def to_dict(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "symbols": list(self.symbols),
            "rules": list(self.rules),
            "assertions": [
                {"line": a.line, "kind": a.kind, "ok": a.ok,
                 "value": a.value, "residual": a.residual}
                for a in self.assertions
            ],
            "passed": self.passed,
        }


def _logical_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _parse_guard(line: str, no: int):
    m = _RE_CHAR.match(line)
    if not m:
        raise ParseError("malformed char guard", line=no)
    negated = m.group(1).startswith("not")
    values = set()
    body = m.group(2).strip()
    if body:
        for chunk in body.split(","):
            chunk = chunk.strip()
            value = _natural(chunk)
            if value is None:
                raise ParseError(f"bad characteristic {chunk!r} in guard", line=no)
            values.add(value)
    return negated, values


def _choose_characteristic(guards, requested):
    def admissible(c):
        try:
            Field(c)
        except DomainError:
            return False
        return all((c in values) != negated for negated, values in guards)

    if requested is not None:
        if not admissible(requested):
            raise CapabilityError(
                f"characteristic {requested} is not admissible for this script")
        return requested
    candidates = [0, 5, 7, 11, 13, 17, 19, 23]
    for _, values in guards:
        candidates.extend(sorted(values))
    for c in candidates:
        if admissible(c):
            return c
    raise CapabilityError("no admissible characteristic for this script")


def run_script(text: str, characteristic=None) -> CertResult:
    """Execute a certificate script and collect its assertion outcomes.

    Assertion failures are data (recorded with residuals); syntax problems
    and inadmissible characteristics raise."""
    symbols = None
    guards = []
    for no, line in _logical_lines(text):
        if line.startswith("symbols"):
            m = _RE_SYMBOLS.match(line)
            if not m:
                raise ParseError("malformed symbols line", line=no)
            if symbols is not None:
                raise ParseError("duplicate symbols line", line=no)
            symbols = tuple(m.group(1).split())
        elif line.startswith("char"):
            guards.append(_parse_guard(line, no))
    if symbols is None:
        raise ParseError("script must declare its alphabet with a symbols line")
    char = _choose_characteristic(guards, characteristic)
    field = Field(char)
    algebra = FreeAlgebra(field, symbols)

    bindings = {}
    rules = []
    rule_texts = []
    assertions = []
    for no, line in _logical_lines(text):
        if line.startswith("symbols") or line.startswith("char"):
            continue
        if line.startswith("let"):
            m = _RE_LET.match(line)
            if not m:
                raise ParseError("malformed let line", line=no)
            name, expr = m.group(1), m.group(2)
            if name in bindings:
                raise ParseError(f"name {name!r} already bound", line=no)
            bindings[name] = _parse_expr(algebra, expr, bindings, no)
            continue
        if line.startswith("rule"):
            m = _RE_RULE.match(line)
            if not m:
                raise ParseError("malformed rule line", line=no)
            lhs_poly = _parse_expr(algebra, m.group(1), bindings, no)
            if len(lhs_poly.terms) != 1:
                raise ParseError("rule left-hand side must be a single word", line=no)
            (word, coeff), = lhs_poly.terms.items()
            if coeff != field.one or not word:
                raise ParseError("rule left-hand side must be a bare word", line=no)
            rhs = _parse_expr(algebra, m.group(2), bindings, no)
            try:
                rules.append(RewriteRule(algebra, word, rhs))
            except DomainError as e:
                raise ParseError(str(e), line=no) from None
            rule_texts.append(f"{_format_word(word)} -> {rhs}")
            continue
        if line.startswith("assert"):
            m = _RE_ASSERT_REDUCE.match(line)
            if m:
                got = reduce_poly(_parse_expr(algebra, m.group(1), bindings, no), rules)
                expected = _parse_expr(algebra, m.group(2), bindings, no)
                assertions.append(CertAssertion(
                    no, "reduce", got == expected, str(got), str(got - expected)
                    if got != expected else ""))
                continue
            m = _RE_ASSERT_SPAN.match(line)
            if m:
                degree = _natural(m.group(1))
                if degree is None:
                    raise ParseError("span degree has too many digits", line=no)
                expected = _parse_expr(algebra, m.group(2), bindings, no)
                for w, c in expected.terms.items():
                    if c != field.one:
                        raise ParseError("span expectation must be a sum of bare words", line=no)
                got = span_closure(algebra, rules, degree)
                got_set = set(got)
                missing = [w for w in expected.terms if w not in got_set]
                extra = [w for w in got if w not in expected.terms]
                ok = not missing and not extra
                residual = "" if ok else (
                    f"missing: {_format_words(missing)}; extra: {_format_words(extra)}")
                assertions.append(CertAssertion(no, "span", ok, _format_words(got), residual))
                continue
            raise ParseError("malformed assert line", line=no)
        raise ParseError(f"unrecognized statement {line.split()[0]!r}", line=no)
    return CertResult(char, symbols, tuple(assertions), tuple(rule_texts))


def _format_words(words) -> str:
    return " ".join(_format_word(w) or "1" for w in words)


def _excerpt(text: str, position) -> str:
    """``text`` itself when short, else the ``EXCERPT_LIMIT`` characters
    around ``position`` with "..." where text was cut."""
    if len(text) <= EXCERPT_LIMIT:
        return text
    start = max(0, min((position or 0) - EXCERPT_LIMIT // 2, len(text) - EXCERPT_LIMIT))
    end = start + EXCERPT_LIMIT
    return ("..." if start else "") + text[start:end] + ("..." if end < len(text) else "")


def _parse_expr(algebra, text, bindings, line_no):
    try:
        return algebra.parse(text, bindings)
    except ParseError as e:
        raise ParseError(f"in expression {_excerpt(text, e.position)!r}: {e}",
                         line=line_no) from None
