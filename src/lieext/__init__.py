"""lieext: exact-arithmetic toolkit for extremal elements in
structure-constant Lie algebras.

The package detects extremal and sandwich elements over GF(p) or the
rationals, builds verified sl2-triples from them, grades the algebra by the
semisimple member, recognizes the five-dimensional Witt algebra in
characteristic five, certifies extremal generating sets, and replays
operator-identity certificates with a small noncommutative rewrite engine.
"""

from .errors import (
    CapabilityError,
    ContradictionError,
    DomainError,
    FieldMismatch,
    HypothesisError,
    InvarianceError,
    LieextError,
    ParseError,
    ShapeError,
)
from .fields import QQ, Field
from .linalg import Matrix, Subspace, eigenspace, kernel, rref, solve
from .algebra import (
    BUILTIN_NAMES,
    LieAlgebra,
    SimplicityVerdict,
    ValidationReport,
    builtin,
    center,
    derived,
    from_json,
    is_simple,
    meataxe_simple,
    parse_coords,
    quotient_action,
    quotient_algebra,
    subalgebra_closure,
    to_json,
    to_json_dict,
)
from .extremal import (
    EXTREMAL,
    NOT_EXTREMAL,
    SANDWICH,
    ExtremalStatus,
    ScanResult,
    classify_element,
    exhaustive_scan,
    scan_basis,
)
from .sl2 import (
    HGrading,
    Sl2Triple,
    CompletionCertificate,
    dichotomy,
    find_witness,
    h_grading,
    make_triple,
    quadraticity_check,
    complete_sl2,
)
from .classify import (
    ClassificationReport,
    ExtremalGenCertificate,
    WittIsoReport,
    classify_theorem_main,
    exp_ad,
    extremal_from_L1,
    witt_recognize,
)
from .freepoly import (
    FreeAlgebra,
    FreePoly,
    RewriteRule,
    reduce_poly,
    span_closure,
)
from .certscript import CertResult, run_script

__version__ = "0.1.0"
