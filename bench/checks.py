"""Output checks against references computed outside the program.

FC counts come from closed forms (Stembridge's enumeration of fully
commutative elements, J. Algebraic Combin. 7, 1998); canonical-basis
properties are checked with this file's own polynomial arithmetic and
unitriangular solve, not with ``tlbases`` code.  Each check returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from tlbases import RuleSet, enumerate_b_canonical, enumerate_h_admissible, format_tangle
from tlbases.tangles import verify_relations

from workloads import CLOSURES, EVAL_STRANDS, parse_word

H_FC = {3: 44, 4: 195, 5: 804}


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def fc_count(family: str, rank: int) -> int:
    """|FC(W)|: A_n = C_{n+1}, B_n = (n+2) C_n - 1, H_3..H_5 = 44, 195, 804."""
    if family == "A":
        return catalan(rank + 1)
    if family == "B":
        return (rank + 2) * catalan(rank) - 1
    return H_FC[rank]


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: coefficient}


def parse_poly(text: str) -> dict:
    """Read the report form ``3*v^2 - 1 + 1/2*v^-3``."""
    out: dict = {}
    if text.strip() == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "v" in term:
            head, _, tail = term.partition("v")
            head = head.rstrip("*")
            coeff = Fraction(head) if head else Fraction(1)
            exp = int(tail[1:]) if tail.startswith("^") else 1
        else:
            coeff, exp = Fraction(term), 0
        out[exp] = out.get(exp, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def bar_symmetric(p: dict) -> bool:
    return all(p.get(-e) == c for e, c in p.items())


def poly_sub_scaled(acc: dict, p: dict, q: dict) -> dict:
    """acc - p*q."""
    out = dict(acc)
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) - c1 * c2
    return {e: c for e, c in out.items() if c}


def ttilde_coordinates(coords: dict, ttilde: dict):
    """Solve coords = sum_x gamma_x * ttilde[x] by unitriangularity.

    ``ttilde[x]`` is the t-tilde element at x in monomial coordinates, with
    top coordinate 1 at x and every other word shorter.  Returns the gammas,
    or None if the table is not unitriangular in that sense.
    """
    rem = dict(coords)
    out = {}
    while rem:
        x = max(rem, key=lambda w: (len(w), w))
        gamma = rem.pop(x)
        row = ttilde.get(x)
        if row is None or row.get(x) != {0: 1} or \
                any(len(w) >= len(x) for w in row if w != x):
            return None
        out[x] = gamma
        for w, c in row.items():
            if w != x:
                new = poly_sub_scaled(rem.get(w, {}), gamma, c)
                if new:
                    rem[w] = new
                else:
                    rem.pop(w, None)
    return out


# ---------------------------------------------------------------------------
# tables


def _basis_table(report: dict) -> dict:
    return {parse_word(e["index_word"]): {parse_word(c["word"]): parse_poly(c["poly"])
                                          for c in e["coords"]}
            for e in report["results"]["entries"]}


def check_tables(ops, reports: dict, outputs: dict) -> list:
    problems = []
    tables = {}
    for op in ops:
        rep = reports[op.id]
        fam, rank = op.params["family"], op.params["rank"]
        if rep["status"] != "pass":
            problems.append(f"{op.id}: status {rep['status']}")
            continue
        if op.params["command"] == "enumerate":
            n = len({e["word"] for e in rep["results"]["elements"]})
            got = (rep["results"]["count"], n)
        else:
            tables[(op.params["basis"], fam, rank)] = _basis_table(rep)
            got = (len(rep["results"]["entries"]), len(tables[(op.params["basis"], fam, rank)]))
        want = fc_count(fam, rank)
        if got != (want, want):
            problems.append(f"{op.id}: {got} FC elements, closed form gives {want}")

    for (basis, fam, rank), canon in tables.items():
        if basis != "canonical":
            continue
        tag = f"canonical {fam}{rank}"
        for w, coords in canon.items():
            if coords.get(w) != {0: 1}:
                problems.append(f"{tag}: top coordinate at {w} is not 1")
            if not all(bar_symmetric(c) for c in coords.values()):
                problems.append(f"{tag}: element at {w} is not bar-invariant")
            if fam == "A" and coords != {w: {0: 1}}:
                problems.append(f"{tag}: type A element at {w} differs from the monomial")
        ttilde = tables.get(("ttilde", fam, rank))
        if ttilde is not None:
            for w, coords in canon.items():
                gammas = ttilde_coordinates(coords, ttilde)
                if gammas is None:
                    problems.append(f"ttilde {fam}{rank}: table is not unitriangular")
                    break
                if gammas.get(w) != {0: 1} or any(
                        any(e > -1 for e in g) for x, g in gammas.items() if x != w):
                    problems.append(f"{tag}: t-tilde coordinates of {w} leave v^-1 Z[v^-1]")
        f_table = tables.get(("f", fam, rank))
        if f_table is not None and f_table != canon:
            problems.append(f"f {fam}{rank}: differs from the canonical table")
    return problems


# ---------------------------------------------------------------------------
# suites


def _expected_checks(suites, family, rank) -> set:
    names = set()
    for s in suites:
        if s in ("prop-5.2.2", "prop-4.1.9"):
            names |= {f"{family}{rank}-{c}" for c in
                      ("positivity", "descent-support", "descent-equivalence")}
        elif s == "prop-3.1.9":
            names |= {f"{family}{rank}-{c}" for c in
                      ("loop-monotonicity", "deletion-classification")}
        elif s == "thm-2.2.5":
            names |= {f"strands-{n}-{c}" for n in (3, 4)
                      for c in ("canonical-form", "image-set")}
        elif s == "thm-3.4.3":
            names |= {f"H{r}-f-equals-canonical" for r in (2, 3)}
        elif s == "thm-5.2.1":
            names |= {f"B{r}-f-equals-canonical" for r in (2, 3)}
    return names


def gram_fault(report: dict):
    """The reason the gram-check operation failed, or None if it passed.

    A form that is unitriangular mod v^-1 has determinant 1 mod v^-1, so it
    cannot be degenerate.
    """
    checks = report["results"]["checks"]
    if all(checks.values()):
        return None
    if checks["unitriangular_mod_vinv"] and not checks["nondegenerate"]:
        return ("gram-check reports nondegenerate: false next to "
                "unitriangular_mod_vinv: true (det = 1 mod v^-1); the 14x14 cap of "
                "the exact determinant raises ValueError and gram_check reads it "
                "as False")
    return f"gram-check failed: {checks}"


def check_suites(ops, reports: dict, outputs: dict) -> list:
    problems = []
    for op in ops:
        if op.params.get("command") == "verify":
            rep = reports[op.id]
            if rep["status"] != "pass":
                problems.append(f"{op.id}: status {rep['status']}")
            seen = {c["name"]: c["passed"]
                    for suite in rep["results"]["suites"] for c in suite["checks"]}
            expected = _expected_checks(op.params["suites"], op.params["family"],
                                        op.params["rank"])
            for name in sorted(expected):
                if seen.get(name) is not True:
                    problems.append(f"{op.id}: check {name} is "
                                    f"{'missing' if name not in seen else 'failed'}")
        elif op.kind == "words":
            for text, exps in zip(op.params["words"], outputs[op.id]):
                if any(e != exps[0] for e in exps[1:]):
                    problems.append(f"{op.id}: strategies disagree on {text}")
    return problems


# ---------------------------------------------------------------------------
# diagrams

PAPER_RULES = {
    "H": {"plain_loop": "v + v^-1", "circle_loop": "0", "alpha": "1", "beta": "1",
          "sigma": None, "tau": None},
    "B": {"plain_loop": "v + v^-1", "circle_loop": "1/2*v + 1/2*v^-1", "alpha": "1",
          "beta": "0", "sigma": "2", "tau": "-1"},
}


def check_diagrams(ops, reports: dict, outputs: dict) -> list:
    problems = []
    for op in ops:
        if op.kind == "closure":
            fam, n = op.params["family"], op.params["strands"]
            got = outputs[op.id]
            ref = enumerate_h_admissible(n) if fam == "H" else \
                [t for t, _ in enumerate_b_canonical(n)]
            if set(got) != {format_tangle(t) for t in ref}:
                problems.append(f"{op.id}: closure differs from the enumeration")
            if len(got) != len(set(got)) or len(got) != fc_count(fam, n - 1):
                problems.append(f"{op.id}: {len(got)} diagrams, |FC({fam}{n - 1})| = "
                                f"{fc_count(fam, n - 1)}")
        elif op.kind == "evaluate":
            fam = op.params["family"]
            images = [tuple(map(tuple, img)) for _, img in outputs[op.id]]
            if len(images) != fc_count(fam, EVAL_STRANDS - 1) or not all(images) \
                    or len(set(images)) != len(images):
                problems.append(f"{op.id}: FC words do not map to distinct nonzero "
                                f"diagram elements")
        else:
            fam = op.params["family"]
            rep = reports[op.id]
            got = rep["results"]["ruleset"]
            want = PAPER_RULES[fam]
            if rep["status"] != "pass" or any(
                    (got.get(k) is None) != (v is None) or
                    (v is not None and parse_poly(got[k]) != parse_poly(v))
                    for k, v in want.items()):
                problems.append(f"{op.id}: scalars {got} differ from the paper's {want}")
                continue
            rules = RuleSet.from_json(got)
            for n in sorted({n for f, n in CLOSURES if f == fam} | {EVAL_STRANDS}):
                bad = verify_relations(rules, n)
                if bad:
                    problems.append(f"{op.id}: relations fail at {n} strands: {bad[:3]}")
    return problems


def failure(op, output, report: dict | None):
    """Why an operation that ran to its end failed, or None if it did not.

    A CLI job that writes no report failed (resource cap, configuration or
    calibration error).  A report whose status is "fail" is a wrong answer,
    which the workload's checks catch.
    """
    if op.kind == "cli":
        if report is None:
            return f"exit code {output} and no report"
        if op.params["command"] == "gram-check":
            return gram_fault(report)
    return None


CHECKS = {"tables": check_tables, "suites": check_suites, "diagrams": check_diagrams}
