"""The result records: field order, immutability, defaults and the derived
values that reports read.  Positional construction is public, so the field
order below is part of the API: a reordered field would silently swap
arguments."""

import json
import pathlib

import pytest

from lieext import builtin, classify_theorem_main, h_grading, run_script
from lieext.algebra import SimplicityVerdict, ValidationReport
from lieext.certscript import CertAssertion, CertResult
from lieext.classify import ClassificationReport, ExtremalGenCertificate, WittIsoReport
from lieext.extremal import ExtremalStatus, ScanResult, require_extremal
from lieext.sl2 import (
    CompletionCertificate,
    DichotomyResult,
    HGrading,
    Sl2Triple,
    complete_sl2,
    find_witness,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
CERTS = pathlib.Path(__file__).parent.parent / "src" / "lieext" / "certs"

FIELDS = {
    ValidationReport: ("violations",),
    SimplicityVerdict: ("simple", "detail", "witness_ideal"),
    ExtremalStatus: ("vector", "kind", "functional"),
    ScanResult: ("extremal", "sandwich", "counts", "representatives_only"),
    Sl2Triple: ("x", "y", "h"),
    CompletionCertificate: ("w", "x1", "w1"),
    HGrading: ("components", "z_graded"),
    DichotomyResult: ("branch", "v", "note"),
    ExtremalGenCertificate: ("z", "alpha", "h1", "u", "relations", "b_vectors", "span_dim",
                             "membership_coords"),
    WittIsoReport: ("target", "spanning", "rules", "phi", "span_equals_algebra"),
    ClassificationReport: ("verdict", "field_characteristic", "dim", "simplicity_mode",
                           "simplicity_detail", "x", "witness", "triple", "grading",
                           "quadratic_on_quotient", "note", "iso", "certificates",
                           "generators", "closure_dim"),
    CertAssertion: ("line", "kind", "ok", "value", "residual"),
    CertResult: ("characteristic", "symbols", "assertions", "rules"),
}

RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)


@RECORDS
def test_fields_in_documented_order(cls):
    assert cls._fields == FIELDS[cls]


@RECORDS
def test_positional_and_keyword_construction_agree(cls):
    values = tuple(f"<{name}>" for name in FIELDS[cls])
    rec = cls(*values)
    assert rec == cls(**dict(zip(FIELDS[cls], values)))
    assert tuple(getattr(rec, name) for name in FIELDS[cls]) == values
    assert repr(rec) == cls.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(FIELDS[cls], values)) + ")"


@RECORDS
def test_fields_are_read_only(cls):
    rec = cls(*(None for _ in FIELDS[cls]))
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        assert getattr(rec, name) is None


def test_defaults():
    assert SimplicityVerdict(True, "d").witness_ideal is None
    assert DichotomyResult("regular", None).note == ""
    report = ClassificationReport(*(None for _ in range(11)))
    assert report.iso is None
    assert report.certificates == ()
    assert report.generators == ()
    assert report.closure_dim == 0


def test_validation_report_ok():
    report = builtin("sl3", 7).validate()
    assert report == ValidationReport(())
    assert report.ok
    assert not ValidationReport(((0, 1, 2),)).ok


def test_hgrading_dims_on_sl3():
    l = builtin("sl3", 7)
    status = require_extremal(l, (0, 1, 0, 0, 0, 0, 0, 0))   # E13
    triple, _ = complete_sl2(l, status, find_witness(l, status.functional))
    assert h_grading(l, triple).dims() == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}


def test_classification_report_to_dict_matches_golden():
    expected = json.loads((GOLDEN / "classify_sl3_f7.json").read_text())
    del expected["tool_version"], expected["input_sha256"]
    report = classify_theorem_main(builtin("sl3", 7), (0, 1, 0, 0, 0, 0, 0, 0))
    assert report.to_dict() == expected


def test_cert_result_to_dict_and_passed():
    result = run_script((CERTS / "lemma22.cert").read_text())
    assert result.passed
    assert result.to_dict() == {
        "characteristic": 0,
        "symbols": ["X", "Y"],
        "rules": ["X^2 -> 0", "X*Y*X -> X"],
        "assertions": [
            {"line": 11, "kind": "reduce", "ok": True, "value": "2/1*X - 2/1*X*Y*X",
             "residual": ""},
            {"line": 13, "kind": "reduce", "ok": True, "value": "-X*Y^2*X", "residual": ""},
            {"line": 14, "kind": "reduce", "ok": True, "value": "12/1*Y^2", "residual": ""},
        ],
        "passed": True,
    }
    failed = CertResult(0, ("X",), (CertAssertion(1, "reduce", False, "X", "X"),), ())
    assert not failed.passed
    assert failed.to_dict()["passed"] is False
