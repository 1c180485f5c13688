"""Named verification suites behind the command-line ``verify`` command.

Each suite re-derives one structural statement from scratch at desk scale
and reports per-check outcomes with replayable counterexamples (fully
serialized words, polynomials and tangles).  Suites never mutate cached
bases, so re-running one produces an identical report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .algebra import STRATEGIES, TLAlgebra, evaluate_mixed
from .coxeter import FIRST_BOND, CoxeterGraph, _bruhat_leq_word, classify_letters, word_str
from .laurent import DELTA, LaurentPoly
from .tangles import (
    _canonical_index,
    _match_canonical,
    CALIBRATION_STRANDS,
    CalibrationError,
    DiagramCalculus,
    RuleSet,
    calibrate_ruleset,
    format_tangle,
    loop_count,
    verify_relations,
)

__all__ = ["SUITES", "run_suite", "CheckResult", "SuiteResult", "suite_names"]

CONFLUENCE_COUNT = 10_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    counterexample: Optional[dict] = None

    def to_json(self):
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class SuiteResult:
    suite: str
    family: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {
            "suite": self.suite,
            "family": self.family,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# transport of the canonical basis to diagrams


#: Per family: the recognition check, its failure and pass details, and the
#: enumeration the image set is compared with.
_TRANSPORT = {
    "H": ("single-diagram",
          "canonical element at {} is not a single admissible diagram with coefficient 1",
          "all {} canonical elements map to single diagrams", "admissible"),
    "B": ("canonical-form",
          "image of {} is not a normalized canonical diagram",
          "all {} canonical elements recognized with integer coefficients after "
          "normalization", "canonical"),
}


def _transport(res: SuiteResult, alg: TLAlgebra, rules: RuleSet):
    check, failed, passed, enumeration = _TRANSPORT[rules.family]
    calc = DiagramCalculus(rules)
    strands = alg.graph.rank + 1
    index = _canonical_index(rules, strands)
    recognized = {}
    for w, coords in alg.canonical_table().items():
        elem = calc.image(strands, coords)
        hit = _match_canonical(index, elem)
        if hit is None:
            res.checks.append(CheckResult(
                f"strands-{strands}-{check}", False, failed.format(word_str(w)),
                {"word": word_str(w), "image": repr(elem)}))
            return
        # normalization restores integer coefficients despite dyadic steps
        for _, c in elem.coeffs:
            c.to_integral()
        recognized[w] = hit[0]
    res.checks.append(CheckResult(
        f"strands-{strands}-{check}", True, passed.format(len(recognized))))
    expected = {t for t, _, _ in index[0].values()}
    images = set(recognized.values())
    same = images == expected and len(recognized) == len(expected)
    res.checks.append(CheckResult(
        f"strands-{strands}-image-set", same,
        f"image set vs {enumeration} enumeration: {len(recognized)} vs {len(expected)}",
        None if same else {"missing": sorted(map(format_tangle, expected - images))}))


def suite_transport(res: SuiteResult, rank: Optional[int]):
    strands_list = (3, 4) if rank is None else (rank + 1,)
    rules = calibrate_ruleset(res.family)
    for strands in strands_list:
        _transport(res, TLAlgebra(CoxeterGraph(res.family, strands - 1)), rules)


# ---------------------------------------------------------------------------
# the f-basis equals the canonical basis


def _f_equals_canonical(res: SuiteResult, alg: TLAlgebra):
    family, rank = alg.graph.family, alg.graph.rank
    canon = alg.canonical_table()
    bad = []
    for e in alg.fc_elements():
        if dict(alg.f_element(e).coords) != dict(canon[e.word]):
            bad.append(e.word)
    res.checks.append(CheckResult(
        f"{family}{rank}-f-equals-canonical", not bad,
        f"{len(alg.fc_elements())} elements compared",
        None if not bad else {"words": [word_str(w) for w in bad]}))


def suite_f_canonical(res: SuiteResult, rank: Optional[int]):
    ranks = (2, 3) if rank is None else (rank,)
    for r in ranks:
        _f_equals_canonical(res, TLAlgebra(CoxeterGraph(res.family, r)))


# ---------------------------------------------------------------------------
# positivity of canonical structure constants and descent laws


def _positivity(res: SuiteResult, alg: TLAlgebra):
    family, rank = alg.graph.family, alg.graph.rank
    elements = alg.fc_elements()
    negative = []
    for x in elements:
        for y, sc in alg.canonical_products(x).items():
            for z, c in sc.items():
                if not c.nonneg:
                    negative.append((x.word, y, z, str(c)))
    res.checks.append(CheckResult(
        f"{family}{rank}-positivity", not negative,
        f"{len(elements) ** 2} canonical products expanded",
        None if not negative else {"cases": [
            {"x": word_str(a), "y": word_str(b), "z": word_str(z), "coeff": s}
            for a, b, z, s in negative[:5]]}))

    graph = alg.graph
    by_word = {e.word: e for e in elements}
    right = alg.right_table("f")
    side_bad = []
    equiv_bad = []
    for w in elements:
        for i in graph.generators:
            sc = right[i][w.word]
            descent = i in w.right_descents
            scaled = sc == {w.word: DELTA}
            if scaled != descent:
                equiv_bad.append((w.word, i))
            for x, c in sc.items():
                if not c.nonneg:
                    side_bad.append((w.word, i, x, "negative " + str(c)))
                # support satisfies x s_i < x and x <= max(w, w s_i)
                xe = by_word[x]
                if i not in xe.right_descents:
                    side_bad.append((w.word, i, x, "no descent"))
                if descent:
                    ok = _bruhat_leq_word(graph, xe, w.word)
                else:
                    ok = _bruhat_leq_word(graph, xe, w.word + (i,))
                if not ok:
                    side_bad.append((w.word, i, x, "not below the product bound"))
    res.checks.append(CheckResult(
        f"{family}{rank}-descent-support", not side_bad,
        "support of f-basis right multiplications satisfies the descent and "
        "order bounds",
        None if not side_bad else {"cases": [
            {"w": word_str(a), "i": i, "x": word_str(x), "why": why}
            for a, i, x, why in side_bad[:5]]}))
    res.checks.append(CheckResult(
        f"{family}{rank}-descent-equivalence", not equiv_bad,
        "right multiplication scales by the loop value exactly at descents",
        None if not equiv_bad else {"cases": [
            {"w": word_str(a), "i": i} for a, i in equiv_bad[:5]]}))


def suite_positivity(res: SuiteResult, rank: Optional[int]):
    _positivity(res, TLAlgebra(CoxeterGraph(res.family, rank or 3)))


# ---------------------------------------------------------------------------
# the generator identities relating block substitutions to mixed products


def suite_block_identities(res: SuiteResult, rank: Optional[int]):
    if rank == 1:
        raise ValueError(f"suite {res.suite} needs generators 1 and 2, not rank {rank}")
    alg = TLAlgebra(CoxeterGraph(res.family, rank or 3))

    def t(*letters):
        return evaluate_mixed(alg, tuple(("t", i) for i in letters))

    def scaled(elem, k):
        return elem.scale(LaurentPoly.monomial(-k))

    for a, b in ((1, 2), (2, 1)):
        lhs1 = alg.word_to_basis((a, b, a)) - alg.word_to_basis((a,))
        rhs1 = t(a, b, a) + scaled(t(b, a), 1) + scaled(t(a), 2) + scaled(t(a, b), 1) \
            + scaled(t(b), 2) + scaled(t(), 3)
        res.checks.append(CheckResult(
            f"identity-i-{a}{b}", lhs1 == rhs1,
            f"three-letter product in generators {a},{b}"))

        lhs2 = alg.word_to_basis((a, b, a, b)) - alg.word_to_basis((a, b)).scale(2)
        rhs2 = t(a, b, a, b) + scaled(t(a, b, a), 1) + scaled(t(b, a, b), 1) \
            + scaled(t(a, b), 2) + scaled(t(b), 3) + scaled(t(b, a), 2) \
            + scaled(t(a), 3) + scaled(t(), 4)
        res.checks.append(CheckResult(
            f"identity-ii-{a}{b}", lhs2 == rhs2,
            f"four-letter product in generators {a},{b}"))


# ---------------------------------------------------------------------------
# deletion laws: loop counts, lattice degree, letter classification


def suite_deletion(res: SuiteResult, rank: Optional[int]):
    fam = res.family
    r = rank or 3
    alg = TLAlgebra(CoxeterGraph(fam, r))
    strands = r + 1
    loopy = []
    mono_bad = []
    agree_bad = []
    for e in alg.fc_elements():
        if loop_count(strands, e.word):
            loopy.append(e.word)
            continue
        cls = classify_letters(alg.graph, e.word)
        for l in range(e.length):
            hat = e.word[:l] + e.word[l + 1:]
            loops = loop_count(strands, hat)
            if loops > 1:
                mono_bad.append((e.word, l))
                continue
            deg = alg.lattice_degree(alg.word_to_basis(hat))
            marked = cls.is_internal(l) or cls.critical[l] in ("i", "ii", "iii")
            if (deg == 1) != marked or (loops == 1) != marked:
                agree_bad.append((e.word, l, str(deg), loops, marked))
    res.checks.append(CheckResult(
        f"{fam}{r}-reduced-words-loop-free", not loopy,
        "composing a reduced word closes no loop",
        None if not loopy else {"words": [word_str(w) for w in loopy[:5]]}))
    res.checks.append(CheckResult(
        f"{fam}{r}-loop-monotonicity", not mono_bad,
        "deleting one letter never adds more than one loop",
        None if not mono_bad else {"cases": [
            {"word": word_str(w), "position": l} for w, l in mono_bad[:5]]}))
    res.checks.append(CheckResult(
        f"{fam}{r}-deletion-classification", not agree_bad,
        "lattice degree rises exactly at internal or critical letters, "
        "matching the loop oracle in both directions",
        None if not agree_bad else {"cases": [
            {"word": word_str(w), "position": l, "degree": d,
             "loops": lo, "marked": m}
            for w, l, d, lo, m in agree_bad[:5]]}))


# ---------------------------------------------------------------------------
# rewriting confluence


def suite_confluence(res: SuiteResult, rank: Optional[int]):
    fam = res.family
    rng = random.Random(20_000 + {"A": 0, "B": 1, "H": 2}[fam])
    ranks = (3, 4) if rank is None else (rank,)
    # exactly ``CONFLUENCE_COUNT`` words, the remainder going to the first ranks
    per_rank, extra = divmod(CONFLUENCE_COUNT, len(ranks))
    mismatches = []
    for i, r in enumerate(ranks):
        alg = TLAlgebra(CoxeterGraph(fam, r))
        for _ in range(per_rank + (i < extra)):
            word = tuple(rng.randint(1, r) for _ in range(rng.randint(0, 12)))
            outs = [alg.word_to_basis(word, s) for s in STRATEGIES]
            if not (outs[0] == outs[1] == outs[2]):
                mismatches.append((r, word))
    res.checks.append(CheckResult(
        f"{fam}-confluence", not mismatches,
        f"{CONFLUENCE_COUNT} random words of length <= 12 reduced under "
        f"{len(STRATEGIES)} strategies",
        None if not mismatches else {"cases": [
            {"rank": r, "word": word_str(w)} for r, w in mismatches[:5]]}))


# ---------------------------------------------------------------------------
# calibration as a suite


def suite_calibration(res: SuiteResult, rank: Optional[int]):
    try:
        rules = calibrate_ruleset(res.family)
    except CalibrationError as exc:
        res.checks.append(CheckResult("solve", False, str(exc)))
        return
    res.checks.append(CheckResult("solve", True, str(rules.to_json())))
    for strands in CALIBRATION_STRANDS:
        bad = verify_relations(rules, strands)
        res.checks.append(CheckResult(
            f"residual-strands-{strands}", not bad,
            "all defining relations hold" if not bad else "; ".join(bad)))


#: Each suite's family, or None for one that runs in any family (H when none
#: is given), and its body, which fills the ``SuiteResult`` it is given.
SUITES = {
    "thm-2.1.3": ("H", suite_transport),
    "thm-2.2.5": ("B", suite_transport),
    "thm-3.4.3": ("H", suite_f_canonical),
    "thm-5.2.1": ("B", suite_f_canonical),
    "prop-4.1.9": ("H", suite_positivity),
    "prop-5.2.2": ("B", suite_positivity),
    "lemma-3.3.6": ("H", suite_block_identities),
    "prop-3.1.9": (None, suite_deletion),
    "confluence": (None, suite_confluence),
    "calibration": (None, suite_calibration),
}


def suite_names() -> Tuple[str, ...]:
    return tuple(sorted(SUITES))


def run_suite(name: str, family: Optional[str] = None,
              rank: Optional[int] = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    if family is not None and family not in FIRST_BOND:
        raise ValueError(f"unknown family {family!r}")
    # a bool or 0 is not a rank, and must not read as the default one
    if rank is not None and (type(rank) is not int or rank < 1):
        raise ValueError(f"rank {rank!r} is not a positive integer")
    fixed_family, fn = SUITES[name]
    if fixed_family is not None and family is not None and family != fixed_family:
        raise ValueError(f"suite {name} is specific to family {fixed_family}")
    res = SuiteResult(name, family or fixed_family or "H")
    fn(res, rank)
    return res
