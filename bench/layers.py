"""Per-layer probes for the traced run.

Each probe runs cold in its own forked child and times calls into one
module's public functions, with a span around each call.  A probe returns
its metrics as ``{name: (value, unit)}``; every timing has a count of the
work it covered next to it.  Timings are scaled to the host's nominal speed
by the reference loop timed in the same child, as the end-to-end wall time
is; span self times are left as measured.  The layer names are the
package's modules.
"""

from __future__ import annotations

import random
import statistics
import time

from tlbases import (
    CoxeterGraph,
    DiagramCalculus,
    LaurentPoly,
    RationalLaurent,
    TLAlgebra,
    calibrate_ruleset,
    classify_letters,
    compose_raw,
    enumerate_fc,
    enumerate_h_admissible,
    generate_by_procedures,
    gram_check,
    invariant_completion,
    is_fc_reduced,
    natural_gram_candidate,
    right_justify,
    run_suite,
)
from tlbases.cli import JobConfig, run

from coldrun import REF_NOMINAL_S, load_output, run_cold
from workloads import GRAM, SUITE_RUNS, WORDS_COUNT, WORDS_GRAPH, WORDS_LENGTH, random_words

LAYERS = ("laurent", "coxeter", "algebra", "tangles", "verify", "cli")
TABLE_GRAPH = ("H", 4)
MICRO_OPS = 20_000
PRODUCTS = 200
COMPOSE_PAIRS = 3000
CLI_REPEATS = 3
TIME_UNITS = ("s", "ms", "us", "ns")


def _timed(tr, name: str, layer: str, fn):
    with tr.span(name, layer):
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0


def _micro(tr, name: str, fn, operands) -> float:
    """Nanoseconds per call of fn over the operand list."""
    with tr.span(name, "laurent"):
        t0 = time.perf_counter()
        for args in operands:
            fn(*args)
        return (time.perf_counter() - t0) / len(operands) * 1e9


def probe_tables(seed: int):
    """t-tilde, canonical and f tables of H4, then Laurent arithmetic on their entries."""
    def compute(tr, outdir):
        alg = TLAlgebra(CoxeterGraph(*TABLE_GRAPH))
        fcs, _ = _timed(tr, "coxeter.enumerate_fc", "coxeter", alg.fc_elements)
        tt, t_tt = _timed(tr, "algebra.ttilde_table", "algebra", alg.ttilde_table)
        canon, t_c = _timed(tr, "algebra.canonical_table", "algebra", alg.canonical_table)
        _, t_f = _timed(tr, "algebra.f_table", "algebra", alg.f_table)
        terms = sum(len(c) for c in canon.values())

        rng = random.Random(seed)
        polys = [c for table in (tt, canon) for row in table.values() for c in row.values()]
        pairs = [(rng.choice(polys), rng.choice(polys)) for _ in range(MICRO_OPS)]
        singles = [(p,) for p, _ in pairs]
        dicts = [(dict(p.terms),) for p, _ in pairs]
        n = len(pairs)
        return {
            "algebra.ttilde_table_s": (t_tt, "s"),
            "algebra.ttilde_table_elements": (len(fcs), "count"),
            "algebra.canonical_table_s": (t_c, "s"),
            "algebra.canonical_table_elements": (len(fcs), "count"),
            "algebra.f_table_s": (t_f, "s"),
            "algebra.f_table_elements": (len(fcs), "count"),
            "algebra.canonical_terms_per_s": (terms / t_c, "1/s"),
            "algebra.canonical_terms": (terms, "count"),
            "laurent.mul_ns": (_micro(tr, "laurent.mul", lambda p, q: p * q, pairs), "ns"),
            "laurent.mul_n": (n, "count"),
            "laurent.add_ns": (_micro(tr, "laurent.add", lambda p, q: p + q, pairs), "ns"),
            "laurent.add_n": (n, "count"),
            "laurent.construct_ns": (_micro(tr, "laurent.construct", LaurentPoly, dicts), "ns"),
            "laurent.construct_n": (n, "count"),
            "laurent.invariant_completion_ns": (
                _micro(tr, "laurent.invariant_completion", invariant_completion, singles), "ns"),
            "laurent.invariant_completion_n": (n, "count"),
        }
    return compute


def probe_coxeter(seed: int):
    """FC test on the seeded words, enumeration, letter taxonomy and normal forms."""
    def compute(tr, outdir):
        graph = CoxeterGraph(*WORDS_GRAPH)
        words = random_words(random.Random(seed), graph.rank, WORDS_COUNT, WORDS_LENGTH)
        _, t_fc = _timed(tr, "coxeter.is_fc_reduced", "coxeter",
                         lambda: [is_fc_reduced(graph, w) for w in words])
        fcs, t_enum = _timed(tr, "coxeter.enumerate_fc", "coxeter", lambda: enumerate_fc(graph))
        fc_words = [e.word for e in fcs]
        _, t_cls = _timed(tr, "coxeter.classify_letters", "coxeter",
                          lambda: [classify_letters(graph, w) for w in fc_words])
        _, t_rj = _timed(tr, "coxeter.right_justify", "coxeter",
                         lambda: [right_justify(graph, w) for w in fc_words])
        strata = {}
        for w in fc_words:
            strata[len(w)] = strata.get(len(w), 0) + 1
        candidates = sum(strata.values()) * graph.rank
        return {
            "coxeter.enumerate_fc_s": (t_enum, "s"),
            "coxeter.enumerate_fc_elements": (len(fcs), "count"),
            "coxeter.is_fc_reduced_us": (t_fc / len(words) * 1e6, "us"),
            "coxeter.is_fc_reduced_words": (len(words), "count"),
            "coxeter.classify_letters_us": (t_cls / len(fc_words) * 1e6, "us"),
            "coxeter.classify_letters_words": (len(fc_words), "count"),
            "coxeter.right_justify_us": (t_rj / len(fc_words) * 1e6, "us"),
            "coxeter.right_justify_words": (len(fc_words), "count"),
            "coxeter.fc_yield": ((len(fcs) - 1) / candidates, "ratio"),
            "coxeter.fc_candidates": (candidates, "count"),
        }
    return compute


def probe_rewriting(seed: int):
    """Cold word_to_basis on the seeded words; canonical structure constants in H3."""
    def compute(tr, outdir):
        rng = random.Random(seed)
        words = random_words(rng, WORDS_GRAPH[1], WORDS_COUNT, WORDS_LENGTH)
        alg = TLAlgebra(CoxeterGraph(*WORDS_GRAPH))
        _, t_expand = _timed(tr, "algebra.word_to_basis", "algebra",
                          lambda: [alg.word_to_basis(w) for w in words])
        alg3 = TLAlgebra(CoxeterGraph("H", 3))
        _timed(tr, "algebra.canonical_table", "algebra", alg3.canonical_table)
        fcs = alg3.fc_elements()
        pairs = [(rng.choice(fcs), rng.choice(fcs)) for _ in range(PRODUCTS)]
        _, t_sc = _timed(tr, "algebra.structure_constants", "algebra",
                         lambda: [alg3.structure_constants("canonical", x, y)
                                  for x, y in pairs])
        return {
            "algebra.word_to_basis_us": (t_expand / len(words) * 1e6, "us"),
            "algebra.word_to_basis_words": (len(words), "count"),
            "algebra.structure_constants_ms": (t_sc / len(pairs) * 1e3, "ms"),
            "algebra.structure_constants_products": (len(pairs), "count"),
        }
    return compute


def probe_tangles(seed: int):
    """Calibration, composition, word evaluation and closure generation at 5 strands."""
    def compute(tr, outdir):
        rng = random.Random(seed)
        rules, t_cal = _timed(tr, "tangles.calibrate_ruleset", "tangles",
                              lambda: {f: calibrate_ruleset(f) for f in ("H", "B")})
        diagrams = enumerate_h_admissible(5)
        pairs = [(rng.choice(diagrams), rng.choice(diagrams)) for _ in range(COMPOSE_PAIRS)]
        _, t_comp = _timed(tr, "tangles.compose_raw", "tangles",
                           lambda: [compose_raw(a, b) for a, b in pairs])
        words = {f: [e.word for e in enumerate_fc(CoxeterGraph(f, 4))] for f in ("H", "B")}
        calc = DiagramCalculus(rules["H"])
        _, t_eval = _timed(tr, "tangles.evaluate_word", "tangles",
                           lambda: [calc.evaluate_word(5, w) for w in words["H"]])
        closure, t_gen = _timed(tr, "tangles.generate_by_procedures", "tangles",
                                lambda: generate_by_procedures("H", 5, rules["H"]))
        calc_b = DiagramCalculus(rules["B"])
        coeffs = [c for w in words["B"] for _, c in calc_b.evaluate_word(5, w).coeffs]
        coeffs = [c for c in coeffs if isinstance(c, RationalLaurent)]
        rpairs = [(rng.choice(coeffs), rng.choice(coeffs)) for _ in range(MICRO_OPS)]
        return {
            "tangles.calibrate_ruleset_s": (t_cal, "s"),
            "tangles.calibrate_ruleset_families": (len(rules), "count"),
            "tangles.compose_raw_us": (t_comp / len(pairs) * 1e6, "us"),
            "tangles.compose_raw_pairs": (len(pairs), "count"),
            "tangles.evaluate_word_ms": (t_eval / len(words["H"]) * 1e3, "ms"),
            "tangles.evaluate_word_words": (len(words["H"]), "count"),
            "tangles.generate_by_procedures_s": (t_gen, "s"),
            "tangles.generate_by_procedures_tangles": (len(closure), "count"),
            "laurent.rational_mul_ns": (
                _micro(tr, "laurent.rational_mul", lambda p, q: p * q, rpairs), "ns"),
            "laurent.rational_mul_n": (len(rpairs), "count"),
        }
    return compute


def probe_suite(name: str, family: str, rank):
    def compute(tr, outdir):
        res, t = _timed(tr, f"verify.{name}", "verify",
                        lambda: run_suite(name, family=None if name.startswith("thm") else family,
                                          rank=rank))
        if not res.passed:
            raise RuntimeError(f"suite {name} failed")
        return {f"verify.{name}_s": (t, "s"), f"verify.{name}_checks": (len(res.checks), "count")}
    return compute


def probe_gram(seed: int):
    def compute(tr, outdir):
        alg = TLAlgebra(CoxeterGraph(*GRAM))
        _, t = _timed(tr, "cli.gram_check", "cli",
                      lambda: gram_check(alg, natural_gram_candidate(alg)))
        return {"cli.gram_check_s": (t, "s"),
                "cli.gram_check_elements": (len(alg.fc_elements()), "count")}
    return compute


# cli.run jobs and the library calls they make, replayed directly
CLI_REPLAYS = (
    ({"command": "enumerate", "family": "A", "rank": 5},
     lambda: TLAlgebra(CoxeterGraph("A", 5)).fc_elements()),
    ({"command": "basis", "family": "B", "rank": 4, "basis": "f"},
     lambda: TLAlgebra(CoxeterGraph("B", 4)).f_table()),
)


def _cli_overhead(outdir: str) -> dict:
    """cli.run minus the same library calls, each side cold and median of a few."""
    total = 0.0
    for i, (job, replay) in enumerate(CLI_REPLAYS):
        def via_cli(tr, outdir, job=job, i=i):
            with tr.span("cli.run", "cli"):
                return run(JobConfig(out=f"{outdir}/overhead-{i}.json", **job))

        def direct(tr, outdir, replay=replay):
            with tr.span("algebra.replay", "algebra"):
                replay()
        sides = []
        for fn in (via_cli, direct):
            recs = [run_cold(f"overhead-{i}-{fn.__name__}", fn, lambda r: None, outdir)
                    for _ in range(CLI_REPEATS)]
            for rec in recs:
                if "error" in rec:
                    raise RuntimeError(rec["error"])
            sides.append(statistics.median(r["elapsed"] * REF_NOMINAL_S / r["ref"]
                                           for r in recs))
        total += sides[0] - sides[1]
    return {"cli.run_overhead_ms": (total * 1e3, "ms"),
            "cli.run_overhead_reports": (len(CLI_REPLAYS), "count")}


def probes(seed: int) -> list:
    """(name, compute) for every probe, in a fixed order."""
    out = [("tables", probe_tables(seed)), ("coxeter", probe_coxeter(seed)),
           ("rewriting", probe_rewriting(seed)), ("tangles", probe_tangles(seed)),
           ("gram", probe_gram(seed))]
    for suites, fam, rank in SUITE_RUNS:
        out += [(f"verify-{s}", probe_suite(s, fam, rank)) for s in suites]
    return out


def run_probes(seed: int, outdir: str):
    """Metrics, spans and reference-loop times of all probes."""
    metrics, spans, refs = {}, [], []
    for name, compute in probes(seed):
        rec = run_cold(f"probe-{name}", compute, lambda r: r, outdir, traced=True)
        if "error" in rec:
            raise RuntimeError(f"probe {name} failed:\n{rec['error']}")
        scale = REF_NOMINAL_S / rec["ref"]
        for key, (value, unit) in load_output(outdir, f"probe-{name}").items():
            if unit in TIME_UNITS:
                value *= scale
            elif unit == "1/s":
                value /= scale
            metrics[key] = (value, unit)
        spans += rec["spans"]
        refs += rec["refs"]
    metrics.update(_cli_overhead(outdir))
    return metrics, spans, refs


def self_times(spans) -> dict:
    """Per-layer self time: each span's duration minus its direct children's."""
    index = {}
    for s in spans:
        index.setdefault(s[5], []).append(s)
    out = {layer: 0.0 for layer in LAYERS}
    for group in index.values():
        child_time = [0.0] * len(group)
        for s in group:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        for s, covered in zip(group, child_time):
            out[s[1]] = out.get(s[1], 0.0) + (s[3] - s[2]) - covered
    return out
