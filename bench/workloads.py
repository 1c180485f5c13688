"""The three workloads: seeded inputs and the operations they run.

Operations go through the entry points a user reaches: ``tlbases.cli.run``
with a ``JobConfig`` where the command line has a command, a public library
call where it has none.  Reports are written under the run's scratch
directory.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

from tlbases import (
    CoxeterGraph,
    DiagramCalculus,
    RuleSet,
    TLAlgebra,
    calibrate_ruleset,
    enumerate_fc,
    format_tangle,
    generate_by_procedures,
    recognize_b_canonical,
)
from tlbases.algebra import STRATEGIES
from tlbases.cli import JobConfig, run

from coldrun import load_output, run_cold

# tables: the bases and enumerations users ask for, at ranks 4-6
TABLE_BASES = (("H", 4, "canonical"), ("H", 4, "ttilde"), ("H", 4, "f"),
               ("B", 4, "canonical"), ("B", 4, "ttilde"), ("B", 4, "f"),
               ("A", 5, "canonical"))
TABLE_ENUMS = (("A", 6), ("B", 5))

# suites: (suite list, family, rank) and the checks each report must carry
SUITE_RUNS = (
    (("prop-5.2.2",), "B", 4),
    (("prop-4.1.9",), "H", 3),
    (("prop-3.1.9",), "H", 4),
    (("thm-2.2.5",), "B", None),
    (("thm-3.4.3", "thm-5.2.1"), "H", None),
)
WORDS_GRAPH = ("H", 4)
WORDS_COUNT = 120
WORDS_LENGTH = (6, 14)
GRAM = ("B", 3)

# diagrams: closures by elementary procedures, word evaluation, calibration
CLOSURES = (("H", 6), ("B", 5))
EVAL_STRANDS = 5


def word_str(w) -> str:
    return ",".join(map(str, w)) if w else "e"


def parse_word(text: str):
    return () if text == "e" else tuple(int(x) for x in text.split(","))


def _exit_code(result):
    return result


@dataclass
class Op:
    """One cold operation: ``compute`` is timed, ``summarize`` is not."""

    id: str
    kind: str
    compute: Callable
    summarize: Callable = _exit_code
    params: dict = field(default_factory=dict)


def cli_op(op_id: str, **job) -> Op:
    def compute(tr, outdir):
        cfg = JobConfig(out=os.path.join(outdir, op_id + ".json"), **job)
        with tr.span("cli.run", "cli"):
            return run(cfg)
    return Op(op_id, "cli", compute, params=job)


# ---------------------------------------------------------------------------
# seeded inputs


def random_words(rng: random.Random, rank: int, count: int, lengths) -> list:
    lo, hi = lengths
    return [tuple(rng.randint(1, rank) for _ in range(rng.randint(lo, hi)))
            for _ in range(count)]


def _diagram_inputs(tr, outdir):
    """FC words at the evaluation strand count and both rule sets."""
    words = {}
    for fam in ("H", "B"):
        graph = CoxeterGraph(fam, EVAL_STRANDS - 1)
        words[fam] = [word_str(e.word) for e in enumerate_fc(graph)]
    rules = {fam: calibrate_ruleset(fam).to_json() for fam in ("H", "B")}
    return {"words": words, "rules": rules}


def make_inputs(workload: str, seed: int, scratch: str) -> dict:
    """Everything the operations need, made from the seed before any timing.

    Diagram inputs are computed in a forked child so that the set-up process
    itself stays cold.
    """
    rng = random.Random(seed)
    if workload == "suites":
        return {"words": random_words(rng, WORDS_GRAPH[1], WORDS_COUNT, WORDS_LENGTH),
                "order_seed": rng.random()}
    if workload == "diagrams":
        rec = run_cold("inputs", _diagram_inputs, lambda r: r, scratch)
        if "error" in rec:
            raise RuntimeError("diagram inputs failed:\n" + rec["error"])
        inputs = load_output(scratch, "inputs")
        for fam in ("H", "B"):
            rng.shuffle(inputs["words"][fam])
        inputs["order_seed"] = rng.random()
        return inputs
    return {"order_seed": rng.random()}


# ---------------------------------------------------------------------------
# operations


def _words_op(words) -> Op:
    fam, rank = WORDS_GRAPH

    def compute(tr, outdir):
        alg = TLAlgebra(CoxeterGraph(fam, rank))
        out = []
        for w in words:
            with tr.span("algebra.word_to_basis", "algebra"):
                exps = [alg.word_to_basis(w, s).as_dict() for s in STRATEGIES]
            with tr.span("algebra.monomial_product", "algebra"):
                exps.append(alg.monomial_product(w))
            out.append(exps)
        return out

    def summarize(result):
        return [[sorted((word_str(x), str(c)) for x, c in e.items()) for e in exps]
                for exps in result]
    return Op(f"words-{fam}{rank}", "words", compute, summarize,
              {"words": [word_str(w) for w in words]})


def _closure_op(fam: str, strands: int, rules_json: dict) -> Op:
    def compute(tr, outdir):
        rules = RuleSet.from_json(rules_json)
        with tr.span("tangles.generate_by_procedures", "tangles"):
            return rules, generate_by_procedures(fam, strands, rules)

    def summarize(result):
        rules, elems = result
        if fam == "H":
            return [format_tangle(e.coeffs[0][0]) for e in elems]
        return [format_tangle(recognize_b_canonical(e, rules)[0]) for e in elems]
    return Op(f"closure-{fam}{strands}", "closure", compute, summarize,
              {"family": fam, "strands": strands})


def _evaluate_op(fam: str, words, rules_json: dict) -> Op:
    def compute(tr, outdir):
        calc = DiagramCalculus(RuleSet.from_json(rules_json))
        out = []
        for text in words:
            w = parse_word(text)
            with tr.span("tangles.evaluate_word", "tangles"):
                out.append((text, calc.evaluate_word(EVAL_STRANDS, w)))
        return out

    def summarize(result):
        return [[text, [[format_tangle(t), str(c)] for t, c in elem.coeffs]]
                for text, elem in result]
    return Op(f"evaluate-{fam}{EVAL_STRANDS}", "evaluate", compute, summarize,
              {"family": fam, "strands": EVAL_STRANDS})


def make_ops(workload: str, inputs: dict) -> list:
    """The operations of one round, in a seeded order."""
    if workload == "tables":
        ops = [cli_op(f"basis-{b}-{f}{r}", command="basis", family=f, rank=r, basis=b)
               for f, r, b in TABLE_BASES]
        ops += [cli_op(f"enumerate-{f}{r}", command="enumerate", family=f, rank=r)
                for f, r in TABLE_ENUMS]
    elif workload == "suites":
        ops = [cli_op("verify-" + "+".join(s) + f"-{f}{r or ''}", command="verify",
                      family=f, rank=r, suites=s)
               for s, f, r in SUITE_RUNS]
        ops.append(_words_op([tuple(w) for w in inputs["words"]]))
        ops.append(cli_op(f"gram-check-{GRAM[0]}{GRAM[1]}", command="gram-check",
                          family=GRAM[0], rank=GRAM[1]))
    elif workload == "diagrams":
        rules = inputs["rules"]
        ops = [_closure_op(f, n, rules[f]) for f, n in CLOSURES]
        ops += [_evaluate_op(f, inputs["words"][f], rules[f]) for f in ("H", "B")]
        ops += [cli_op(f"calibrate-{f}", command="calibrate", family=f) for f in ("H", "B")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(inputs["order_seed"]).shuffle(ops)
    return ops
