"""Exact workbench for generalized Temperley-Lieb algebras of types A, B, H.

The package computes the monomial, t-tilde, f- and canonical bases of these
algebras over Z[v, v^-1], realizes families B and H by decorated crossing-free
tangles with calibrated reduction scalars, and machine-verifies the structural
identities tying the pictures to the algebra at small rank.
"""

from .coxeter import (
    CoxeterGraph,
    FcElement,
    LetterClassification,
    ClassSizeError,
    GrowthCapError,
    bruhat_leq,
    classify_letters,
    commutation_class,
    enumerate_fc,
    is_fc_reduced,
    normal_form,
    right_justify,
)
from .laurent import (
    DELTA,
    ONE,
    V,
    V_INV,
    ZERO,
    LaurentPoly,
    NarrowingError,
    RationalLaurent,
    invariant_completion,
)
from .algebra import AlgebraElement, AuxElements, TLAlgebra, aux_elements, evaluate_mixed
from .forms import GramCandidate, gram_check, natural_gram_candidate
from .tangles import (
    CalibrationError,
    DiagramCalculus,
    DiagramElement,
    ReductionError,
    RuleSet,
    Tangle,
    calibrate_ruleset,
    classify_diagram,
    compose_raw,
    enumerate_b_canonical,
    enumerate_h_admissible,
    format_tangle,
    generate_by_procedures,
    generator_U,
    identity_tangle,
    iota,
    loop_count,
    parse_tangle,
    recognize_b_canonical,
    reduce_composition,
    render,
)
from .verify import run_suite, suite_names

__version__ = "0.1.0"

# Resolved on first use (PEP 562): importing ``.cli`` here would put it in
# sys.modules before ``python -m tlbases.cli`` runs it as ``__main__``.
_CLI_NAMES = frozenset(("JobConfig", "run"))


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AlgebraElement", "AuxElements", "CalibrationError", "ClassSizeError",
    "CoxeterGraph", "DELTA", "DiagramCalculus", "DiagramElement", "FcElement",
    "GramCandidate", "GrowthCapError", "JobConfig", "LaurentPoly",
    "LetterClassification", "NarrowingError", "ONE", "RationalLaurent",
    "ReductionError", "RuleSet", "TLAlgebra", "Tangle", "V", "V_INV", "ZERO",
    "aux_elements", "bruhat_leq", "calibrate_ruleset",
    "classify_diagram", "classify_letters", "commutation_class", "compose_raw",
    "enumerate_b_canonical", "enumerate_fc", "enumerate_h_admissible",
    "evaluate_mixed", "format_tangle", "generate_by_procedures",
    "generator_U", "gram_check", "identity_tangle", "invariant_completion",
    "iota", "is_fc_reduced", "loop_count", "natural_gram_candidate",
    "normal_form", "parse_tangle", "recognize_b_canonical",
    "reduce_composition", "render", "right_justify", "run", "run_suite",
    "suite_names",
]
