"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses its inputs,
calls the corresponding library operation, and prints one JSON report on
standard output (diagnostics go to standard error).  Reports carry the tool
version and a content hash of the input for reproducibility.

Exit codes: 0 success; 1 the checked property fails (not extremal, failed
assertion, broken hypothesis); 2 usage, file, input or capability errors;
3 contradiction (the input data is provably corrupt); 4 internal error (a
defect in lieext itself, reported with the exception's type).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import __version__
from .algebra import (
    builtin,
    format_vector,
    from_json,
    parse_coords,
    to_json,
)
from .certscript import run_script
from .classify import classify_theorem_main
from .errors import (
    ContradictionError,
    HypothesisError,
    LieextError,
    ParseError,
)
from .extremal import EXTREMAL, classify_element, exhaustive_scan, require_extremal, scan_basis
from .sl2 import LABELS, find_witness, h_grading, make_triple, complete_sl2

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_CONTRADICTION = 3
EXIT_INTERNAL = 4


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not UTF-8: {e}") from None


def _load_algebra(path: str):
    data = _read_input(path)
    return from_json(_decode(data)), hashlib.sha256(data).hexdigest()


class _Unencodable(Exception):
    pass


_quote = json.encoder.encode_basestring_ascii
_LEAVES = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}


def _indented(o, indent: str) -> str:
    """A dict or list as ``json.dumps(o, indent=2)`` writes it at the depth
    whose newline and indentation are ``indent``; _Unencodable at any value
    that is not a dict with str keys, a list, a str, an int, a bool or None."""
    t = type(o)
    if t is not dict and t is not list:
        raise _Unencodable
    if not o:
        return "{}" if t is dict else "[]"
    inner = indent + "  "
    out = []
    if t is list:
        for v in o:
            leaf = _LEAVES.get(type(v))
            out.append(leaf(v) if leaf is not None else _indented(v, inner))
        return "[" + inner + ("," + inner).join(out) + indent + "]"
    for k, v in o.items():
        if type(k) is not str:
            raise _Unencodable
        leaf = _LEAVES.get(type(v))
        out.append(_quote(k) + ": " + (leaf(v) if leaf is not None else _indented(v, inner)))
    return "{" + inner + ("," + inner).join(out) + indent + "}"


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, written through the C
    string encoder, since the indented ``json.dumps`` runs the pure-Python
    encoder; ``json.dumps`` itself for a document holding anything but
    dicts with str keys, lists, str, int, bool and None."""
    leaf = _LEAVES.get(type(doc))
    if leaf is not None:
        return leaf(doc)
    try:
        return _indented(doc, "\n")
    except _Unencodable:
        return json.dumps(doc, indent=2)


def _emit(doc: dict, digest: str) -> None:
    doc["tool_version"] = __version__
    doc["input_sha256"] = digest
    sys.stdout.write(_dumps(doc) + "\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lieext",
        description="exact toolkit for extremal elements in structure-constant Lie algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate an algebra file (Jacobi identity)")
    c.set_defaults(func=_cmd_check)
    c.add_argument("file", help="algebra file, or - for standard input")

    b = sub.add_parser("builtin", help="write a builtin algebra file to standard output")
    b.set_defaults(func=_cmd_builtin)
    b.add_argument("name", help="sl2, sl3, sl4, witt5, wittext5 or heisenberg")
    b.add_argument("-p", type=int, required=True, metavar="CHAR",
                   help="characteristic (0 for the rationals)")

    e = sub.add_parser("extremal", help="extremality tests")
    e.set_defaults(func=_cmd_extremal)
    e.add_argument("file")
    mode = e.add_mutually_exclusive_group(required=True)
    mode.add_argument("--vector", help="comma-separated canonical coordinates")
    mode.add_argument("--scan-basis", action="store_true")
    mode.add_argument("--exhaustive", action="store_true")
    e.add_argument("--representatives", action="store_true",
                   help="with --exhaustive, report one vector per scalar class")

    s = sub.add_parser("sl2", help="build a verified sl2-triple from an extremal element")
    s.set_defaults(func=_cmd_sl2)
    s.add_argument("file")
    s.add_argument("--x", required=True, help="comma-separated canonical coordinates")

    g = sub.add_parser("grade", help="grading by the bracket of an sl2 pair")
    g.set_defaults(func=_cmd_grade)
    g.add_argument("file")
    g.add_argument("--x", required=True)
    g.add_argument("--y", required=True)

    k = sub.add_parser("classify", help="run the full classification pipeline")
    k.set_defaults(func=_cmd_classify)
    k.add_argument("file")
    k.add_argument("--x", required=True)
    k.add_argument("--assume-simple", action="store_true",
                   help="skip the simplicity check and stamp the report accordingly")

    t = sub.add_parser("cert", help="run a certificate script")
    t.set_defaults(func=_cmd_cert)
    t.add_argument("script", help="script path; bare names resolve to the shipped scripts")
    t.add_argument("-p", type=int, default=None, metavar="CHAR",
                   help="characteristic to verify under (default: chosen from the guards)")
    return p


def run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        # argparse has no option that requires another; this one modifies
        # --exhaustive only, and is refused rather than ignored elsewhere
        if args.command == "extremal" and args.representatives and not args.exhaustive:
            parser.error("extremal: --representatives applies only with --exhaustive")
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ContradictionError as e:
        print(f"contradiction: {e}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except HypothesisError as e:
        print(f"hypothesis failure: {e}", file=sys.stderr)
        return EXIT_PROPERTY
    except LieextError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def _cmd_check(args) -> int:
    l, digest = _load_algebra(args.file)
    report = l.validate()
    _emit({
        "command": "check",
        "characteristic": l.field.p,
        "dim": l.dim,
        "valid": report.ok,
        "violations": [list(t) for t in report.violations],
    }, digest)
    return EXIT_OK if report.ok else EXIT_PROPERTY


def _cmd_builtin(args) -> int:
    sys.stdout.write(to_json(builtin(args.name, args.p)))
    return EXIT_OK


def _status_dict(l, status) -> dict:
    return {
        "vector": format_vector(l.field, status.vector),
        "kind": status.kind,
        "functional": format_vector(l.field, status.functional)
        if status.functional is not None else None,
    }


def _cmd_extremal(args) -> int:
    l, digest = _load_algebra(args.file)
    if args.vector is not None:
        x = parse_coords(l.field, args.vector, l.dim)
        status = classify_element(l, x)
        doc = {"command": "extremal", "mode": "vector"}
        doc.update(_status_dict(l, status))
        _emit(doc, digest)
        return EXIT_OK if status.kind == EXTREMAL else EXIT_PROPERTY
    if args.scan_basis:
        results = scan_basis(l)
        _emit({
            "command": "extremal",
            "mode": "scan_basis",
            "results": [
                dict(index=i, name=l.names[i], **_status_dict(l, st))
                for i, st in enumerate(results)
            ],
        }, digest)
        return EXIT_OK
    scan = exhaustive_scan(l, representatives_only=args.representatives)
    _emit({
        "command": "extremal",
        "mode": "exhaustive",
        "representatives_only": scan.representatives_only,
        "counts": dict(scan.counts),
        "extremal_nonsandwich": [format_vector(l.field, v) for v in scan.extremal],
        "sandwich": [format_vector(l.field, v) for v in scan.sandwich],
    }, digest)
    return EXIT_OK


def _cmd_sl2(args) -> int:
    l, digest = _load_algebra(args.file)
    x = parse_coords(l.field, args.x, l.dim)
    status = require_extremal(l, x)
    w = find_witness(l, status.functional)
    triple, cert = complete_sl2(l, status, w)
    fmt = lambda v: format_vector(l.field, v)
    _emit({
        "command": "sl2",
        "x": fmt(x),
        "kind": status.kind,
        "witness": fmt(w),
        "triple": triple.formatted(l.field),
        "completion": {"w": fmt(cert.w), "x1": fmt(cert.x1), "w1": fmt(cert.w1)},
    }, digest)
    return EXIT_OK


def _cmd_grade(args) -> int:
    l, digest = _load_algebra(args.file)
    x = parse_coords(l.field, args.x, l.dim)
    y = parse_coords(l.field, args.y, l.dim)
    triple = make_triple(l, x, y)
    grading = h_grading(l, triple)
    fmt = lambda v: format_vector(l.field, v)
    _emit({
        "command": "grade",
        "triple": triple.formatted(l.field),
        "grading_dims": {str(i): d for i, d in grading.dims().items()},
        "integer_graded": grading.z_graded,
        "components": {
            str(i): [fmt(row) for row in grading.components[i].basis] for i in LABELS
        },
    }, digest)
    return EXIT_OK


def _cmd_classify(args) -> int:
    l, digest = _load_algebra(args.file)
    x = parse_coords(l.field, args.x, l.dim)
    report = classify_theorem_main(l, x, assume_simple=args.assume_simple)
    _emit(report.to_dict(), digest)
    return EXIT_OK


def _cmd_cert(args) -> int:
    path = args.script
    try:
        data = _read_input(path)
    except OSError:
        shipped = _shipped_cert(path)
        if shipped is None:
            raise
        data = shipped
    result = run_script(_decode(data), characteristic=args.p)
    doc = {"command": "cert", "script": path}
    doc.update(result.to_dict())
    _emit(doc, hashlib.sha256(data).hexdigest())
    return EXIT_OK if result.passed else EXIT_PROPERTY


def _shipped_cert(name: str):
    if "/" in name or "\\" in name:
        return None
    from importlib import resources

    ref = resources.files("lieext").joinpath("certs").joinpath(name)
    if ref.is_file():
        return ref.read_bytes()
    return None


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
