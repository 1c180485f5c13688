"""Command-line orchestration: enumeration, bases, verification, calibration.

One flat flag surface drives every job: ``--command`` picks the action and
the rest of the flags parameterize it.  Reports are deterministic JSON, the
bytes of ``json.dump(report, indent=2, sort_keys=True)`` and a newline,
written to ``--out`` or to the directory named by ``TLBASES_REPORT_DIR``.
Exit codes: 0 pass, 2 verification or computation failure, 3 resource cap
exceeded, 4 configuration error.  A computation that fails inside the
library (a narrowing, a reduction, an internal invariant) exits with 2, one
that hits a resource cap with 3; both still write a report, with status
``fail`` and the error.  A configuration error writes no report.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .algebra import TLAlgebra
from .coxeter import ClassSizeError, CoxeterGraph, GrowthCapError, word_str
from .forms import gram_check, natural_gram_candidate, solution_space_dimension
from .laurent import ONE
from .tangles import (
    CALIBRATION_STRANDS,
    DiagramCalculus,
    RuleSet,
    calibrate_ruleset,
    format_tangle,
    parse_tangle,
    render,
    verify_relations,
)
from .verify import SUITES, run_suite, suite_names

__all__ = ["JobConfig", "run", "main", "ConfigError"]

REPORT_DIR_ENV = "TLBASES_REPORT_DIR"

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 2
EXIT_RESOURCE = 3
EXIT_CONFIG = 4

COMMANDS = ("enumerate", "basis", "verify", "calibrate", "render", "gram-check")
FORMATS = ("json", "csv", "svg", "text", "ascii")
BASES = ("monomial", "ttilde", "f", "canonical", "diagram")


class ConfigError(ValueError):
    pass


@dataclass
class JobConfig:
    command: str
    family: str = "H"
    rank: Optional[int] = None
    out: Optional[str] = None
    format: str = "json"
    suites: Tuple[str, ...] = ()
    basis: str = "canonical"
    tangle: Optional[str] = None
    ruleset_path: Optional[str] = None
    report_dir: str = field(default_factory=lambda: os.environ.get(REPORT_DIR_ENV, "."))

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.family not in ("A", "B", "H"):
            raise ConfigError(f"unknown family {self.family!r}")
        if self.rank is not None and (not isinstance(self.rank, int) or self.rank < 2):
            raise ConfigError(f"rank must be an integer of at least 2, not {self.rank!r}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}")
        if self.format != "json" and (self.command, self.format) not in _WRITERS:
            raise ConfigError(f"--format {self.format} does not apply to {self.command}")
        if self.basis not in BASES:
            raise ConfigError(f"unknown basis {self.basis!r}")
        if self.ruleset_path and (self.command, self.basis) != ("basis", "diagram"):
            raise ConfigError("--ruleset applies only to basis --basis diagram")
        if self.command == "verify":
            if not self.suites:
                raise ConfigError("verify requires --suite")
            for s in self.suites:
                if s not in SUITES:
                    raise ConfigError(
                        f"unknown suite {s!r}; known: {', '.join(suite_names())}")
        if self.command == "render" and not self.tangle:
            raise ConfigError("render requires --tangle")
        calibration_suite = self.command == "verify" and "calibration" in self.suites
        if self.family == "A" and (calibration_suite or
                                   self.command in ("calibrate", "render", "gram-check")):
            what = "the calibration suite" if calibration_suite else self.command
            raise ConfigError(f"{what} applies to families B and H")

    def to_json(self):
        return {
            "command": self.command,
            "family": self.family,
            "rank": self.rank,
            "format": self.format,
            "suites": list(self.suites),
            "basis": self.basis,
            "tangle": self.tangle,
        }


# ---------------------------------------------------------------------------
# command bodies


def _effective_rank(cfg: JobConfig) -> int:
    default = 2 if cfg.command == "gram-check" else 3
    return cfg.rank if cfg.rank is not None else default


def _graph(cfg: JobConfig) -> CoxeterGraph:
    return CoxeterGraph(cfg.family, _effective_rank(cfg))


def _cmd_enumerate(cfg: JobConfig) -> Tuple[dict, int]:
    alg = TLAlgebra(_graph(cfg))
    entries = [{
        "word": word_str(e.word),
        "length": e.length,
        "content": sorted(e.content),
        "descents": {"left": sorted(e.left_descents),
                     "right": sorted(e.right_descents)},
    } for e in alg.fc_elements()]
    return {"count": len(entries), "elements": entries}, EXIT_PASS


def _rules_for(cfg: JobConfig) -> RuleSet:
    if not cfg.ruleset_path:
        return calibrate_ruleset(cfg.family)
    try:
        with open(cfg.ruleset_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "results" in data:  # a calibrate report
            results = data["results"]
            if not isinstance(results, dict):
                raise TypeError("a calibrate report's results are a JSON object, "
                                f"not {type(results).__name__}")
            if "ruleset" not in results:
                raise ValueError("the calibrate report has no results.ruleset "
                                 f"(its status is {data.get('status')!r})")
            data = results["ruleset"]
        rules = RuleSet.from_json(data)
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot load rule set {cfg.ruleset_path}: {exc}") from exc
    if rules.family != cfg.family:
        raise ConfigError(f"rule set {cfg.ruleset_path} is for family {rules.family}, "
                          f"not {cfg.family}")
    for strands in CALIBRATION_STRANDS:
        bad = verify_relations(rules, strands)
        if bad:
            raise ConfigError(f"rule set {cfg.ruleset_path} violates {len(bad)} relations "
                              f"at {strands} strands: {bad[:3]}")
    return rules


def _cmd_basis(cfg: JobConfig) -> Tuple[dict, int]:
    alg = TLAlgebra(_graph(cfg))
    body = {"graph": {"family": cfg.family, "rank": _effective_rank(cfg)}, "basis": cfg.basis}
    entries = []
    if cfg.basis == "diagram":
        if cfg.family == "A":
            raise ConfigError("diagram dumps apply to families B and H")
        calc = DiagramCalculus(_rules_for(cfg))
        strands = _effective_rank(cfg) + 1
        for w, coords in alg.canonical_table().items():
            elem = calc.image(strands, coords)
            entries.append({
                "index_word": word_str(w),
                "coords": [{"tangle": format_tangle(t), "poly": str(c)}
                           for t, c in elem.coeffs],
            })
    else:
        table = None if cfg.basis == "monomial" else alg._table_for(cfg.basis)
        # rows are ordered by position in the (length, word) order of the FC
        # words; each word's and each distinct coefficient's text is made once
        words, index = alg.fc_words(), alg._index
        names = [word_str(w) for w in words]
        polys: dict = {}
        for w, name in zip(words, names):
            coords = {w: ONE} if table is None else table[w]
            row = []
            for k in sorted(map(index.__getitem__, coords)):
                c = coords[words[k]]
                text = polys.get(c.terms)
                if text is None:
                    text = polys[c.terms] = str(c)
                row.append({"word": names[k], "poly": text})
            entries.append({"index_word": name, "coords": row})
    body["entries"] = entries
    return body, EXIT_PASS


def _cmd_verify(cfg: JobConfig) -> Tuple[dict, int]:
    results = []
    all_pass = True
    for name in cfg.suites:
        fixed_family = SUITES[name][0]
        res = run_suite(name, family=fixed_family or cfg.family, rank=cfg.rank)
        results.append(res.to_json())
        all_pass = all_pass and res.passed
    return ({"suites": results},
            EXIT_PASS if all_pass else EXIT_VERIFY_FAIL)


def _cmd_calibrate(cfg: JobConfig) -> Tuple[dict, int]:
    rules = calibrate_ruleset(cfg.family)
    return {"ruleset": rules.to_json()}, EXIT_PASS


def _cmd_render(cfg: JobConfig) -> Tuple[dict, int]:
    try:
        t = parse_tangle(cfg.tangle)
    except ValueError as exc:
        raise ConfigError(f"cannot parse tangle: {exc}") from exc
    fmt = "svg" if cfg.format == "svg" else "ascii"
    text = render(t, fmt)
    return {"tangle": format_tangle(t), "format": fmt, "output": text}, EXIT_PASS


def _cmd_gram_check(cfg: JobConfig) -> Tuple[dict, int]:
    alg = TLAlgebra(_graph(cfg))
    cand = natural_gram_candidate(alg)
    checks = gram_check(alg, cand)
    body = {
        "candidate": "trace-form",
        "checks": checks,
        "witness_found": all(checks.values()),
        "solution_space_dimension": solution_space_dimension(alg),
    }
    # exploratory: the command reports outcomes and never fails the build
    return body, EXIT_PASS


# ---------------------------------------------------------------------------
# report writing and entry point


_FLUSH_CHUNKS = 4096


def _write_json_report(body: dict, path: str) -> None:
    """Write the bytes of ``json.dump(body, fh, indent=2, sort_keys=True)``
    and a newline.  A report holds dicts with str keys, lists, str, int, bool
    and None; anything else is a TypeError.  The chunks are written out every
    few thousand, so the report is never joined whole in memory."""
    quote = json.encoder.encode_basestring_ascii
    with open(path, "w", encoding="utf-8") as fh:
        chunks: list = []

        def emit(o, pad: str) -> None:
            t = type(o)
            if t is str:
                chunks.append(quote(o))
            elif t is dict or t is list:
                if not o:
                    chunks.append("{}" if t is dict else "[]")
                    return
                inner = pad + "  "
                sep = ("{\n" if t is dict else "[\n") + inner
                for k in (sorted(o) if t is dict else o):
                    if t is list:
                        chunks.append(sep)
                        emit(k, inner)
                    elif type(k) is str:
                        chunks.append(sep + quote(k) + ": ")
                        emit(o[k], inner)
                    else:
                        raise TypeError(f"report keys are str, not {type(k).__name__}")
                    sep = ",\n" + inner
                    if len(chunks) > _FLUSH_CHUNKS:
                        fh.write("".join(chunks))
                        chunks.clear()
                chunks.append("\n" + pad + ("}" if t is dict else "]"))
            elif o is None:
                chunks.append("null")
            elif t is bool:
                chunks.append("true" if o else "false")
            elif t is int:
                chunks.append(int.__repr__(o))
            else:
                raise TypeError(f"{t.__name__} is not a report value")

        emit(body, "")
        chunks.append("\n")
        fh.write("".join(chunks))


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _enumerate_csv(results: dict, cfg: JobConfig) -> str:
    def cell(letters):
        return " ".join(map(str, letters))
    return _csv([["word", "length", "content", "left_descents", "right_descents"]] + [
        [e["word"], e["length"], cell(e["content"]),
         cell(e["descents"]["left"]), cell(e["descents"]["right"])]
        for e in results["elements"]])


def _basis_csv(results: dict, cfg: JobConfig) -> str:
    key = "tangle" if cfg.basis == "diagram" else "word"
    return _csv([["index_word", key, "poly"]] + [
        [entry["index_word"], co[key], co["poly"]]
        for entry in results["entries"] for co in entry["coords"]])


def _enumerate_text(results: dict, cfg: JobConfig) -> str:
    return "".join([f"{'word':<24}{'length':<8}content\n"] + [
        f"{e['word']:<24}{e['length']:<8}{' '.join(map(str, e['content']))}\n"
        for e in results["elements"]])


#: The writer of each (command, format) pair besides JSON, which every
#: command writes; ``JobConfig.validate`` rejects any other pair.
_WRITERS = {
    ("enumerate", "csv"): _enumerate_csv,
    ("enumerate", "text"): _enumerate_text,
    ("basis", "csv"): _basis_csv,
    **{("render", fmt): lambda results, cfg: results["output"] for fmt in ("text", "ascii", "svg")},
}


def run(cfg: JobConfig) -> int:
    """Execute one job; writes a report unless the configuration is bad (exit 4)."""
    try:
        cfg.validate()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_path = cfg.out
    if out_path is None:
        suffix = {"json": "json", "csv": "csv", "svg": "svg",
                  "text": "txt", "ascii": "txt"}[cfg.format]
        out_path = os.path.join(
            cfg.report_dir,
            f"{cfg.command}-{cfg.family}{_effective_rank(cfg)}.{suffix}")
    out_dir = os.path.dirname(out_path)
    try:
        # makedirs on an existing directory raises and catches an OSError,
        # whose first raise in a process adds about 0.5 MB to its peak RSS
        if out_dir and not os.path.isdir(out_dir):
            os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"configuration error: cannot make the report directory: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG

    bodies = {
        "enumerate": _cmd_enumerate,
        "basis": _cmd_basis,
        "verify": _cmd_verify,
        "calibrate": _cmd_calibrate,
        "render": _cmd_render,
        "gram-check": _cmd_gram_check,
    }
    try:
        results, code = bodies[cfg.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # configuration is validated above, so anything else is a cap or the
        # computation failing (a calibration, narrowing, reduction or
        # internal invariant); it is reported, never passed off as bad input
        if isinstance(exc, (ClassSizeError, GrowthCapError)):
            print(f"resource cap exceeded: {exc}", file=sys.stderr)
            code = EXIT_RESOURCE
        else:
            print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = EXIT_VERIFY_FAIL
        results = {"error": {"type": type(exc).__name__, "message": str(exc)}}

    body = {
        "config": cfg.to_json(),
        "status": "pass" if code == EXIT_PASS else "fail",
        "results": results,
    }
    if cfg.format == "json" or "error" in results:
        _write_json_report(body, out_path)  # a failed computation has only the JSON form
    else:
        text = _WRITERS[cfg.command, cfg.format](results, cfg)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    # renders and tabular formats keep the JSON report alongside
    if cfg.format != "json":
        _write_json_report(body, os.path.splitext(out_path)[0] + ".report.json")
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tlbases", description=__doc__)
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--family", default="H", choices=("A", "B", "H"))
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="json", choices=FORMATS)
    p.add_argument("--suite", action="append", default=[],
                   help="verification suite name; repeatable or comma-separated")
    p.add_argument("--basis", default="canonical", choices=BASES)
    p.add_argument("--tangle", default=None,
                   help="serialized tangle, e.g. 'n=3; N1-N2[c]; S1-S2[c]; N3-S3'")
    p.add_argument("--ruleset", dest="ruleset_path", default=None,
                   help="basis --basis diagram: load a calibrated rule set from "
                        "JSON instead of solving")
    return p


def config_from_args(argv) -> JobConfig:
    args = build_parser().parse_args(argv)
    suites = []
    for chunk in args.suite:
        suites.extend(s.strip() for s in chunk.split(",") if s.strip())
    return JobConfig(
        command=args.command,
        family=args.family,
        rank=args.rank,
        out=args.out,
        format=args.format,
        suites=tuple(suites),
        basis=args.basis,
        tangle=args.tangle,
        ruleset_path=args.ruleset_path,
    )


def main(argv=None) -> None:
    try:
        cfg = config_from_args(argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    sys.exit(run(cfg))


if __name__ == "__main__":
    main()
