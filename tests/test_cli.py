"""Command-line behaviour: exit codes, reports, determinism, gram checks."""

import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tlbases

from tlbases.algebra import TLAlgebra
from tlbases.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_PASS,
    EXIT_RESOURCE,
    EXIT_VERIFY_FAIL,
    FORMATS,
    JobConfig,
    config_from_args,
    main,
    run,
)
from tlbases import cli as cli_mod
from tlbases import coxeter as coxeter_mod
from tlbases.coxeter import CoxeterGraph, word_str
from tlbases.forms import GramCandidate, gram_check, natural_gram_candidate
from tlbases.laurent import ONE, V, ZERO


def run_args(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(config_from_args(argv + ["--out", str(out)]))
    return code, out


def test_enumerate_catalan(tmp_path):
    code, out = run_args(["--command", "enumerate", "--family", "A", "--rank", "3"], tmp_path)
    assert code == EXIT_PASS
    data = json.loads(out.read_text())
    assert data["results"]["count"] == 14
    assert data["status"] == "pass"


def test_basis_b2_canonical_dump(tmp_path):
    code, out = run_args(
        ["--command", "basis", "--family", "B", "--rank", "2", "--basis", "canonical"],
        tmp_path)
    assert code == EXIT_PASS
    entries = json.loads(out.read_text())["results"]["entries"]
    assert len(entries) == 7
    by_index = {e["index_word"]: e["coords"] for e in entries}
    assert by_index["1,2,1"] == [
        {"word": "1", "poly": "-1"}, {"word": "1,2,1", "poly": "1"}]


def _json_dump_reference(body) -> str:
    # the writer's contract: what json.dump writes, and a final newline
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


_REPORT_JOBS = [
    ["--command", "basis", "--family", "H", "--rank", "4", "--basis", "ttilde"],
    ["--command", "enumerate", "--family", "B", "--rank", "3"],
    *(["--command", "basis", "--family", "B", "--rank", "3", "--basis", basis]
      for basis in ("monomial", "ttilde", "f", "canonical", "diagram")),
    ["--command", "verify", "--family", "H", "--suite", "lemma-3.3.6,prop-3.1.9"],
    ["--command", "calibrate", "--family", "B"],
    ["--command", "render", "--family", "H", "--tangle", "n=3; N1-N2[c]; S1-S2[c]; N3-S3"],
    ["--command", "gram-check", "--family", "B", "--rank", "2"],
]
# every non-JSON format: the report goes to a JSON sidecar
_SIDECAR_JOBS = [
    ["--command", "enumerate", "--family", "A", "--rank", "3", "--format", "csv"],
    ["--command", "enumerate", "--family", "A", "--rank", "3", "--format", "text"],
    ["--command", "basis", "--family", "H", "--rank", "3", "--basis", "canonical",
     "--format", "csv"],
    *(["--command", "render", "--family", "B", "--tangle", "n=2; N1-N2[c]; S1-S2[c]",
       "--format", fmt] for fmt in ("text", "ascii", "svg")),
]


def test_json_reports_are_indented_dumps_of_their_body(tmp_path, monkeypatch):
    # every report, sidecars and failure reports included, is the bytes of
    # json.dump(body, indent=2, sort_keys=True) and a final newline
    written = []
    writer = cli_mod._write_json_report

    def spy(body, path):
        writer(body, path)
        written.append((body, path))

    monkeypatch.setattr(cli_mod, "_write_json_report", spy)
    for k, argv in enumerate(_REPORT_JOBS + _SIDECAR_JOBS):
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        assert run_args(argv, tmp_path, f"r{k}.{fmt}")[0] == EXIT_PASS, argv
    # a failed computation, in JSON and under a tabular format
    monkeypatch.setattr(coxeter_mod, "CLASS_CAP", 1)
    for fmt in ("json", "csv"):
        argv = ["--command", "basis", "--family", "H", "--rank", "3", "--basis", "f",
                "--format", fmt]
        assert run_args(argv, tmp_path, f"cap.{fmt}")[0] == EXIT_RESOURCE
    assert len(written) == len(_REPORT_JOBS) + len(_SIDECAR_JOBS) + 3
    assert written[0][1].endswith("r0.json") and os.path.getsize(written[0][1]) > 900_000
    assert [p for _, p in written[-3:]] == [
        str(tmp_path / name) for name in ("cap.json", "cap.csv", "cap.report.json")]
    for body, path in written:
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == _json_dump_reference(body), path


def _ref_basis_rows(family, rank, basis):
    # the reference rows: each coordinate sorted by (length, word), each
    # string made where it is used
    alg = TLAlgebra(CoxeterGraph(family, rank))
    table = None if basis == "monomial" else alg._table_for(basis)
    for e in alg.fc_elements():
        coords = {e.word: ONE} if table is None else table[e.word]
        for w, c in sorted(coords.items(), key=lambda t: (len(t[0]), t[0])):
            yield [word_str(e.word), word_str(w), str(c)]


@pytest.mark.parametrize("family, rank, basis", [
    ("H", 4, "ttilde"), ("H", 3, "canonical"), ("B", 4, "f"), ("A", 4, "monomial")])
def test_basis_rows_match_the_sorted_reference(tmp_path, family, rank, basis):
    argv = ["--command", "basis", "--family", family, "--rank", str(rank),
            "--basis", basis, "--format", "csv"]
    code, out = run_args(argv, tmp_path, "table.csv")
    assert code == EXIT_PASS
    buf = io.StringIO()
    csv.writer(buf).writerows([["index_word", "word", "poly"],
                               *_ref_basis_rows(family, rank, basis)])
    assert out.read_bytes() == buf.getvalue().encode("utf-8")


_AWKWARD_BODY = {
    "empty": {}, "nothing": [], "deep": {"a": [[], {}, [{}], {"b": [[[]]]}]},
    "ints": [0, -1, 7, -(10 ** 40), 10 ** 60, True, False, None],
    "naïve ключ \u2603\t\x00": "tab\tnul\x00 bell\x07 quote\" slash\\ é 𝔖 \u2028",
    "\x1f": [[1, [2, {"z": "", "a": "", "": []}]], "\ud800"],
    "": {"": {"": None}},
}


def test_report_writer_matches_json_dump_on_every_value_shape(tmp_path):
    path = tmp_path / "body.json"
    cli_mod._write_json_report(_AWKWARD_BODY, str(path))
    assert path.read_bytes() == _json_dump_reference(_AWKWARD_BODY).encode("ascii")
    for body in ({}, [], {"a": {}}, [[]], {"x": [{}]}):
        cli_mod._write_json_report(body, str(path))
        assert path.read_text(encoding="utf-8") == _json_dump_reference(body)


def test_report_writer_streams_a_large_report(tmp_path, monkeypatch):
    # the report is written in pieces as it is encoded, never joined whole
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

        def close(self):
            self.seen = self.getvalue()
            super().close()

    fh = Recorder()
    monkeypatch.setattr(cli_mod, "open", lambda *args, **kwargs: fh, raising=False)
    body = {"rows": [{"word": str(k), "poly": "v + v^-1"} for k in range(20_000)]}
    cli_mod._write_json_report(body, str(tmp_path / "big.json"))
    assert fh.seen == _json_dump_reference(body)
    assert len(writes) > 10 and max(writes) < len(fh.seen) / 10


@pytest.mark.parametrize("value", [1.5, 0.0, (1, 2), {1: "a"}, b"x", {"a": {3}}],
                         ids=["float", "zero", "tuple", "int-key", "bytes", "set"])
def test_report_writer_rejects_what_a_report_never_holds(tmp_path, value):
    # json.dump would take a float, a tuple or an int key; a report holds none
    with pytest.raises(TypeError):
        cli_mod._write_json_report({"results": [value]}, str(tmp_path / "r.json"))


def test_basis_diagram_dump(tmp_path):
    code, out = run_args(
        ["--command", "basis", "--family", "H", "--rank", "2", "--basis", "diagram"],
        tmp_path)
    assert code == EXIT_PASS
    entries = json.loads(out.read_text())["results"]["entries"]
    assert len(entries) == 9
    for e in entries:
        assert len(e["coords"]) == 1 and e["coords"][0]["poly"] == "1"


def test_verify_pass_and_report(tmp_path):
    code, out = run_args(
        ["--command", "verify", "--family", "B", "--suite", "thm-5.2.1"],
        tmp_path)
    assert code == EXIT_PASS
    data = json.loads(out.read_text())
    assert data["results"]["suites"][0]["passed"] is True


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    import tlbases.verify as verify_mod
    from tlbases.verify import CheckResult

    def failing(res, rank):
        res.checks.append(CheckResult(
            "sentinel", False, "injected failure",
            {"word": "1,2", "poly": "v + v^-1"}))

    monkeypatch.setitem(verify_mod.SUITES, "always-red", (None, failing))
    code, out = run_args(
        ["--command", "verify", "--family", "H", "--suite", "always-red"], tmp_path)
    assert code == EXIT_VERIFY_FAIL
    data = json.loads(out.read_text())
    assert data["status"] == "fail"
    ce = data["results"]["suites"][0]["checks"][0]["counterexample"]
    assert ce == {"word": "1,2", "poly": "v + v^-1"}


def test_resource_cap_exit_code(tmp_path, monkeypatch):
    # the right-justification behind H3's f-basis walks past the first
    # member of some commutation class
    monkeypatch.setattr(coxeter_mod, "CLASS_CAP", 1)
    code, out = run_args(
        ["--command", "basis", "--family", "H", "--rank", "3", "--basis", "f"],
        tmp_path, "cap.json")
    assert code == EXIT_RESOURCE
    data = json.loads(out.read_text())
    assert data["status"] == "fail"
    assert data["results"]["error"]["type"] == "ClassSizeError"
    assert "exceeded cap 1" in data["results"]["error"]["message"]


def test_verify_honours_the_class_cap(tmp_path, monkeypatch):
    # the confluence suite's lexicographic strategies walk past the first
    # member of some commutation class before they find a factor
    monkeypatch.setattr(coxeter_mod, "CLASS_CAP", 1)
    code, out = run_args(
        ["--command", "verify", "--family", "H", "--suite", "confluence", "--rank", "3"],
        tmp_path, "cap.json")
    assert code == EXIT_RESOURCE
    data = json.loads(out.read_text())
    assert data["status"] == "fail"
    assert data["results"]["error"]["type"] == "ClassSizeError"
    assert "exceeded cap 1" in data["results"]["error"]["message"]


def test_rewriting_walks_no_class(tmp_path, monkeypatch):
    # the deletion suite rewrites at each word's Stembridge witness and reads
    # the taxonomy off the heap, so it passes under the smallest cap
    argv = ["--command", "verify", "--family", "H", "--suite", "prop-3.1.9", "--rank", "3"]
    _, free = run_args(argv, tmp_path, "free.json")
    monkeypatch.setattr(coxeter_mod, "CLASS_CAP", 1)
    code, capped = run_args(argv, tmp_path, "capped.json")
    assert code == EXIT_PASS
    assert capped.read_text() == free.read_text()


@pytest.mark.parametrize("flag", ["--cap-class-size", "--confluence-count"])
def test_removed_tuning_flags_are_config_errors(tmp_path, flag):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["--command", "verify", "--family", "H", "--suite", "confluence",
              flag, "5", "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG and not out.exists()


def test_enumerate_b7_builds_no_class(tmp_path):
    # B7 has an FC element whose class exceeds a million members
    code, out = run_args(["--command", "enumerate", "--family", "B", "--rank", "7"],
                         tmp_path)
    assert code == EXIT_PASS
    assert json.loads(out.read_text())["results"]["count"] == 3860


def test_stratum_cap_exit_code(tmp_path, monkeypatch):
    # A4 has 4 FC elements of length 1
    monkeypatch.setattr(coxeter_mod, "STRATUM_CAP", 3)
    code, out = run_args(
        ["--command", "enumerate", "--family", "A", "--rank", "4"], tmp_path, "cap.json")
    assert code == EXIT_RESOURCE
    data = json.loads(out.read_text())
    assert data["status"] == "fail"
    assert data["results"]["error"]["type"] == "GrowthCapError"
    assert "exceeded 3 elements" in data["results"]["error"]["message"]


def test_cap_bounds_the_members_a_lexicographic_search_walks(tmp_path, monkeypatch):
    # the lexicographic rewrites behind the confluence suite at H3 read
    # classes of up to 924 members but find their factor within the first 3
    argv = ["--command", "verify", "--family", "H", "--suite", "confluence", "--rank", "3"]
    _, free = run_args(argv, tmp_path, "free.json")
    monkeypatch.setattr(coxeter_mod, "CLASS_CAP", 3)
    code, capped = run_args(argv, tmp_path, "capped.json")
    assert code == EXIT_PASS
    assert capped.read_text() == free.read_text()


@pytest.mark.parametrize("count", [1, 3])
def test_confluence_checks_exactly_count_words(tmp_path, monkeypatch, count):
    import tlbases.verify as verify_mod
    from tlbases.algebra import STRATEGIES

    words = []
    expand = TLAlgebra.word_to_basis

    def counted(self, word, strategy="lex-least-leftmost"):
        words.append(word)
        return expand(self, word, strategy)

    monkeypatch.setattr(TLAlgebra, "word_to_basis", counted)
    monkeypatch.setattr(verify_mod, "CONFLUENCE_COUNT", count)
    code, out = run_args(
        ["--command", "verify", "--family", "H", "--suite", "confluence"], tmp_path)
    assert code == EXIT_PASS
    assert len(words) == count * len(STRATEGIES)
    check = json.loads(out.read_text())["results"]["suites"][0]["checks"][0]
    assert check["detail"].startswith(f"{count} random words ")


def test_module_entry_point_warns_nothing(tmp_path):
    # the package must not import tlbases.cli before runpy runs it as __main__
    src = str(Path(tlbases.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "tlbases.cli",
         "--command", "enumerate", "--family", "A", "--rank", "2",
         "--out", str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert proc.stderr == ""


def test_config_errors(tmp_path):
    assert run(JobConfig(command="enumerate", family="Z")) == EXIT_CONFIG
    assert run(JobConfig(command="enumerate", family="A", rank=1)) == EXIT_CONFIG
    assert run(JobConfig(command="verify", family="H")) == EXIT_CONFIG
    assert run(JobConfig(command="render", family="H")) == EXIT_CONFIG
    assert run(JobConfig(command="nonsense")) == EXIT_CONFIG
    with pytest.raises(SystemExit) as exc:
        main(["--command", "bogus"])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("rank", ["3", 2.5, 3.0, True, False])
def test_rank_that_is_not_an_integer_is_config_error(tmp_path, capsys, rank):
    # a bool is an int below 2; anything else that is not an int is bad input,
    # not a failed computation: exit 4 and no report
    assert run(JobConfig(command="enumerate", rank=rank, report_dir=str(tmp_path))) == EXIT_CONFIG
    assert "configuration error: rank must be an integer of at least 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_WRITTEN = {("enumerate", "csv"), ("enumerate", "text"), ("basis", "csv"),
            ("render", "text"), ("render", "ascii"), ("render", "svg")}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_format_without_a_writer_is_config_error(tmp_path, capsys, command, fmt):
    # a format the command has no writer for is bad input: no report, not
    # JSON under the format's suffix
    cfg = JobConfig(command=command, format=fmt, rank=2, suites=("calibration",),
                    tangle="n=2; N1-N2[c]; S1-S2[c]", report_dir=str(tmp_path))
    if fmt == "json" or (command, fmt) in _WRITTEN:
        cfg.validate()
        return
    assert run(cfg) == EXIT_CONFIG
    assert f"--format {fmt} does not apply to {command}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_reports_deterministic(tmp_path):
    argv = ["--command", "verify", "--family", "H", "--suite", "lemma-3.3.6"]
    _, out1 = run_args(argv, tmp_path, "a.json")
    _, out2 = run_args(argv, tmp_path, "b.json")
    assert out1.read_bytes() == out2.read_bytes()


def test_report_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TLBASES_REPORT_DIR", str(tmp_path))
    code = run(config_from_args(["--command", "enumerate", "--family", "A", "--rank", "2"]))
    assert code == EXIT_PASS
    assert (tmp_path / "enumerate-A2.json").exists()


def test_out_in_a_missing_directory_makes_it(tmp_path):
    # the report's directory is made before the job, as the report dir is
    code, out = run_args(["--command", "enumerate", "--family", "A", "--rank", "3",
                          "--format", "csv"], tmp_path, "no/such/dir/enum.csv")
    assert code == EXIT_PASS
    assert out.read_text().startswith("word,length")
    assert (out.parent / "enum.report.json").exists()


@pytest.mark.parametrize("where", ["out", "out-below", "report-dir"])
def test_report_directory_that_cannot_be_made_is_config_error(tmp_path, capsys, monkeypatch,
                                                              where):
    # a path component that is a file: exit 4 before any computation, no report
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(cli_mod, "_cmd_enumerate", _raiser(AssertionError("computed")))
    cfg = {"out": JobConfig(command="enumerate", out=str(blocker / "x.json")),
           "out-below": JobConfig(command="enumerate", out=str(blocker / "a" / "x.json")),
           "report-dir": JobConfig(command="enumerate", report_dir=str(blocker))}[where]
    assert run(cfg) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_csv_and_text_formats(tmp_path):
    code, out = run_args(
        ["--command", "enumerate", "--family", "B", "--rank", "2", "--format", "csv"],
        tmp_path, "enum.csv")
    assert code == EXIT_PASS
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("word,length")
    assert len(lines) == 8  # header + 7 elements
    assert (tmp_path / "enum.report.json").exists()

    code, out = run_args(
        ["--command", "basis", "--family", "B", "--rank", "2", "--format", "csv"],
        tmp_path, "basis.csv")
    assert code == EXIT_PASS
    assert out.read_text().startswith("index_word,word,poly")

    code, out = run_args(
        ["--command", "enumerate", "--family", "A", "--rank", "2", "--format", "text"],
        tmp_path, "enum.txt")
    assert code == EXIT_PASS
    assert "length" in out.read_text()


def test_sidecar_stays_beside_the_report(tmp_path, monkeypatch):
    # only the report's own extension is replaced: a dot in a directory name
    # or a report without an extension keeps the sidecar beside the report
    argv = ["--command", "enumerate", "--family", "B", "--rank", "2", "--format", "csv"]
    (tmp_path / "a.b").mkdir()
    code, out = run_args(argv, tmp_path / "a.b", "report")
    assert code == EXIT_PASS and out.exists()
    assert (tmp_path / "a.b" / "report.report.json").exists()
    assert not (tmp_path / "a.report.json").exists()
    monkeypatch.chdir(tmp_path)
    code = run(config_from_args(argv + ["--out", "./table"]))
    assert code == EXIT_PASS
    assert (tmp_path / "table.report.json").exists()
    assert not (tmp_path / ".report.json").exists()


def test_render_command(tmp_path):
    code, out = run_args(
        ["--command", "render", "--family", "H",
         "--tangle", "n=3; N1-N2[c]; S1-S2[c]; N3-S3", "--format", "svg"],
        tmp_path, "u1.svg")
    assert code == EXIT_PASS
    assert out.read_text().startswith("<svg")


@pytest.mark.parametrize("tangle", ["n=1; N1-X1", "n=2; N1-"])
def test_malformed_tangle_is_a_config_error(tmp_path, tangle):
    # an unknown face and a missing end are bad input, not a failed computation
    code, out = run_args(["--command", "render", "--family", "H", "--tangle", tangle], tmp_path)
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_ruleset_file_round_trip(tmp_path):
    code, out = run_args(["--command", "calibrate", "--family", "B"], tmp_path, "rules.json")
    assert code == EXIT_PASS
    rules = json.loads(out.read_text())["results"]["ruleset"]
    path = tmp_path / "ruleset.json"
    path.write_text(json.dumps(rules))
    code, out2 = run_args(
        ["--command", "basis", "--family", "B", "--rank", "2",
         "--basis", "diagram", "--ruleset", str(path)], tmp_path, "diag.json")
    assert code == EXIT_PASS
    assert len(json.loads(out2.read_text())["results"]["entries"]) == 7


H_RULES = {"family": "H", "plain_loop": "v + v^-1", "circle_loop": "0",
           "alpha": "1", "beta": "1", "sigma": None, "tau": None}


def _diagram_job(family, ruleset):
    return ["--command", "basis", "--family", family, "--rank", "2",
            "--basis", "diagram", "--ruleset", str(ruleset)]


def test_ruleset_violating_the_relations_is_config_error(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(H_RULES))
    assert run_args(_diagram_job("H", path), tmp_path)[0] == EXIT_PASS
    path.write_text(json.dumps(dict(H_RULES, circle_loop="v", alpha="2")))
    code, out = run_args(_diagram_job("H", path), tmp_path, "bad.json")
    assert code == EXIT_CONFIG and not out.exists()


@pytest.mark.parametrize("key, value", [("plain_loop", 5), ("alpha", [1]),
                                        ("beta", True), ("circle_loop", None)])
def test_ruleset_scalar_that_is_not_text_is_config_error(tmp_path, key, value):
    # only family H's square scalars may be null
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(dict(H_RULES, **{key: value})))
    code, out = run_args(_diagram_job("H", path), tmp_path)
    assert code == EXIT_CONFIG and not out.exists()


def test_ruleset_reads_the_calibrate_report(tmp_path):
    code, rules = run_args(["--command", "calibrate", "--family", "B"], tmp_path, "ruleset.json")
    assert code == EXIT_PASS
    code, out = run_args(_diagram_job("B", rules), tmp_path, "loaded.json")
    assert code == EXIT_PASS
    code, ref = run_args(_diagram_job("B", rules)[:-2], tmp_path, "solved.json")
    assert code == EXIT_PASS
    assert out.read_text() == ref.read_text()


@pytest.mark.parametrize("report, message", [
    ({"status": "fail", "results": {"error": {"type": "CalibrationError", "message": "x"}}},
     "the calibrate report has no results.ruleset (its status is 'fail')"),
    ({"results": 5}, "a calibrate report's results are a JSON object, not int"),
])
def test_ruleset_from_a_report_without_one_names_the_problem(tmp_path, capsys, report,
                                                             message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out = run_args(_diagram_job("H", path), tmp_path)
    assert code == EXIT_CONFIG and not out.exists()
    assert message in capsys.readouterr().err


def test_calibration_system_of_unsupported_shape_is_a_reported_failure(tmp_path,
                                                                       monkeypatch):
    # a solve the exact solver cannot decide fails the job with a report
    import tlbases.tangles as tangles_mod
    from tlbases.laurent import LaurentPoly

    quadratic = [{(1, 0, 0): ONE, (0, 0, 0): -ONE}, {(0, 1, 0): ONE, (0, 0, 0): -ONE},
                 {(0, 0, 2): ONE, (0, 0, 0): LaurentPoly.const(-4)}]
    monkeypatch.setattr(tangles_mod, "_calibration_equations", lambda family: quadratic)
    code, out = run_args(["--command", "calibrate", "--family", "H"], tmp_path)
    assert code == EXIT_VERIFY_FAIL
    data = json.loads(out.read_text())
    assert data["status"] == "fail"
    assert data["results"]["error"]["type"] == "CalibrationError"
    assert "has degree 2 in c" in data["results"]["error"]["message"]


def test_calibration_suite_rejects_family_a(tmp_path):
    code, out = run_args(["--command", "verify", "--suite", "calibration", "--family", "A"],
                         tmp_path)
    assert code == EXIT_CONFIG and not out.exists()


@pytest.mark.parametrize("family", ["H", "B"])
def test_calibration_suite_passes_with_the_calibrated_rule_set(tmp_path, family):
    code, out = run_args(["--command", "verify", "--suite", "calibration", "--family", family],
                         tmp_path)
    assert code == EXIT_PASS
    checks = json.loads(out.read_text())["results"]["suites"][0]["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [
        ("solve", True), ("residual-strands-3", True), ("residual-strands-4", True)]
    code, report = run_args(["--command", "calibrate", "--family", family], tmp_path,
                            "calibrate.json")
    assert code == EXIT_PASS
    # the solve check prints the rule set that calibrate reports
    assert ast.literal_eval(checks[0]["detail"]) == \
        json.loads(report.read_text())["results"]["ruleset"]


def test_gram_check_identity_candidate():
    alg = TLAlgebra(CoxeterGraph("B", 2))
    words = [e.word for e in alg.fc_elements()]
    ident = GramCandidate(alg.graph, {w: {x: ONE if w == x else ZERO for x in words}
                                      for w in words})
    res = gram_check(alg, ident)
    assert res["symmetric"] is True
    assert res["unitriangular_mod_vinv"] is True
    assert res["nondegenerate"] is True
    assert isinstance(res["anti_associative"], bool)  # reported as computed


def test_gram_check_zero_row_degenerate():
    alg = TLAlgebra(CoxeterGraph("B", 2))
    words = [e.word for e in alg.fc_elements()]
    cand = GramCandidate(alg.graph, {w: {x: ZERO if w == words[0] else
                                         (ONE if w == x else ZERO) for x in words}
                                     for w in words})
    assert gram_check(alg, cand)["nondegenerate"] is False


def test_gram_natural_candidate_nondegenerate_at_b3():
    # unitriangularity decides it without elimination
    alg = TLAlgebra(CoxeterGraph("B", 3))
    res = gram_check(alg, natural_gram_candidate(alg))
    assert res["unitriangular_mod_vinv"] is True
    assert res["nondegenerate"] is True


def _assert_basis_canonical_fails_with(tmp_path, message):
    code, out = run_args(
        ["--command", "basis", "--family", "B", "--rank", "3", "--basis", "canonical"],
        tmp_path)
    assert code == EXIT_VERIFY_FAIL
    body = json.loads(out.read_text())
    assert body["status"] == "fail"
    assert body["results"]["error"]["type"] == "AssertionError"
    assert message in body["results"]["error"]["message"]


def test_ttilde_entry_outside_z_vinv_fails_with_report(tmp_path, monkeypatch):
    # the injection sits in the products that both routes of the packed
    # t-tilde walk read: b_1 = b_() b_1 gains v b_(), so t~_1 = b_1 + (v - v^-1) b_()
    w2b = TLAlgebra._w2b_coords

    def with_v_term(self, word, strategy):
        out = dict(w2b(self, word, strategy))
        if word == (1,):
            out[()] = out.get((), ZERO) + V
        return out
    monkeypatch.setattr(TLAlgebra, "_w2b_coords", with_v_term)
    for table in ("canonical_table", "ttilde_table"):
        with pytest.raises(AssertionError, match=r"outside Z\[v\^-1\]"):
            getattr(TLAlgebra(CoxeterGraph("B", 3)), table)()
    _assert_basis_canonical_fails_with(tmp_path, "outside Z[v^-1]")


def test_rewrite_coefficient_above_degree_one_fails_with_report(tmp_path, monkeypatch):
    # the truncated t-tilde walk is exact only while every b_u b_s has
    # coefficients of degree <= 1; b_1 b_1 = (v + v^-1) b_1 becomes (v^2 + 1) b_1
    w2b = TLAlgebra._w2b_coords

    def with_v2_term(self, word, strategy):
        out = w2b(self, word, strategy)
        return {x: c * V for x, c in out.items()} if word == (1, 1) else out
    monkeypatch.setattr(TLAlgebra, "_w2b_coords", with_v2_term)
    message = "the rewriting of 1,1 has the coefficient v^2 + 1 of degree above 1"
    with pytest.raises(AssertionError) as raised:
        TLAlgebra(CoxeterGraph("B", 3)).canonical_table()
    assert str(raised.value) == message
    _assert_basis_canonical_fails_with(tmp_path, message)


def _gram_check_report(tmp_path, monkeypatch, candidate):
    monkeypatch.setattr(cli_mod, "natural_gram_candidate", candidate)
    code, out = run_args(
        ["--command", "gram-check", "--family", "B", "--rank", "3"], tmp_path)
    assert code == EXIT_PASS
    return json.loads(out.read_text())["results"]


def test_gram_check_decides_scaled_identity_at_b3(tmp_path, monkeypatch):
    # v*I at B3: not unitriangular mod v^-1, and 24 x 24 is eliminated exactly
    def scaled_identity(alg):
        return GramCandidate(alg.graph, {e.word: {e.word: V} for e in alg.fc_elements()})
    body = _gram_check_report(tmp_path, monkeypatch, scaled_identity)
    assert body["checks"]["nondegenerate"] is True
    assert body["checks"]["unitriangular_mod_vinv"] is False
    assert body["witness_found"] is False


def test_gram_check_zero_row_at_b3_is_degenerate(tmp_path, monkeypatch):
    def identity_with_zero_row(alg):
        words = [e.word for e in alg.fc_elements()]
        return GramCandidate(alg.graph, {w: {w: ONE} for w in words[1:]})
    body = _gram_check_report(tmp_path, monkeypatch, identity_with_zero_row)
    assert body["checks"]["nondegenerate"] is False
    assert body["witness_found"] is False


def test_gram_natural_candidate_is_witness_at_rank_2():
    for family in ("B", "H", "A"):
        alg = TLAlgebra(CoxeterGraph(family, 2))
        res = gram_check(alg, natural_gram_candidate(alg))
        assert all(res.values()), (family, res)


def test_gram_check_command_reports(tmp_path):
    code, out = run_args(
        ["--command", "gram-check", "--family", "B", "--rank", "2"], tmp_path)
    assert code == EXIT_PASS
    body = json.loads(out.read_text())["results"]
    assert body["witness_found"] is True
    assert body["solution_space_dimension"] == 6


@pytest.mark.parametrize("family, dimension", [("B", 17), ("H", 28)])
def test_gram_check_reports_the_dimension_past_rank_2(tmp_path, family, dimension):
    # the dimension is an orbit count, so the report carries it at every rank
    code, out = run_args(
        ["--command", "gram-check", "--family", family, "--rank", "3"], tmp_path)
    assert code == EXIT_PASS
    assert json.loads(out.read_text())["results"]["solution_space_dimension"] == dimension


def test_gram_check_default_rank_names_report(tmp_path, monkeypatch):
    # gram-check defaults to rank 2, and the report file is named for it
    monkeypatch.setenv("TLBASES_REPORT_DIR", str(tmp_path))
    code = run(config_from_args(["--command", "gram-check", "--family", "B"]))
    assert code == EXIT_PASS
    assert [p.name for p in tmp_path.iterdir()] == ["gram-check-B2.json"]
    body = json.loads((tmp_path / "gram-check-B2.json").read_text())["results"]
    assert "solution_space_dimension" in body


def _raiser(exc):
    def boom(*args, **kwargs):
        raise exc
    return boom


def _internal_failure(path):
    """(object to patch, attribute, exception raised, argv) for one failure path."""
    import tlbases.verify as verify_mod
    from tlbases.laurent import NarrowingError
    from tlbases.tangles import CalibrationError, DiagramCalculus, ReductionError

    return {
        "narrowing": (TLAlgebra, "canonical_table",
                      NarrowingError("coefficient 1/2 at v^0 is not an integer"),
                      ["--command", "basis", "--family", "B", "--rank", "2"]),
        "reduction": (DiagramCalculus, "image", ReductionError("tangle does not reduce"),
                      ["--command", "basis", "--family", "H", "--rank", "2",
                       "--basis", "diagram"]),
        # a csv job: the failure report is JSON whatever the format
        "value-error": (
            TLAlgebra, "fc_elements",
            ValueError("support is not a combination of canonical diagrams"),
            ["--command", "enumerate", "--family", "B", "--rank", "2", "--format", "csv"]),
        "assertion": (TLAlgebra, "canonical_table",
                      AssertionError("t-basis element at (1, 2) is not unitriangular"),
                      ["--command", "basis", "--family", "H", "--rank", "2"]),
        "runtime": (cli_mod, "run_suite",
                    RuntimeError("identity element rejected by the closure acceptor"),
                    ["--command", "verify", "--family", "B", "--suite", "thm-2.2.5"]),
        "calibration": (cli_mod, "calibrate_ruleset", CalibrationError("no admissible scalars"),
                        ["--command", "calibrate", "--family", "H"]),
        # the calibration suite reports only a failed solve as a failed check
        "calibration-suite": (verify_mod, "calibrate_ruleset",
                              ZeroDivisionError("division by zero"),
                              ["--command", "verify", "--suite", "calibration"]),
    }[path]


@pytest.mark.parametrize("path", ["narrowing", "reduction", "value-error",
                                  "assertion", "runtime", "calibration",
                                  "calibration-suite"])
def test_internal_failure_exits_2_with_report(path, tmp_path, monkeypatch):
    target, attr, exc, argv = _internal_failure(path)
    monkeypatch.setattr(target, attr, _raiser(exc))
    code, out = run_args(argv, tmp_path)
    assert code == EXIT_VERIFY_FAIL
    data = json.loads(out.read_text())
    assert data["status"] == "fail"
    assert data["results"]["error"] == {"type": type(exc).__name__, "message": str(exc)}


@pytest.mark.parametrize("name, kwargs", [
    ("prop-4.1.9", {"rank": 0}),
    ("prop-4.1.9", {"rank": False}),
    ("thm-2.1.3", {"rank": True}),
    ("prop-3.1.9", {"rank": 3.0}),
    ("confluence", {"family": "Z"}),
    ("no-such-suite", {}),
])
def test_run_suite_rejects_malformed_input_at_entry(name, kwargs):
    # a falsy rank must not read as the default one, nor True as rank 1
    with pytest.raises(ValueError):
        tlbases.run_suite(name, **kwargs)


@pytest.mark.parametrize("name", tlbases.suite_names())
def test_every_suite_runs_or_rejects_rank_1(name):
    # rank 1 has one generator: a suite either runs there or says, before
    # any work, that it needs more, naming itself and the rank
    try:
        res = tlbases.run_suite(name, rank=1)
    except ValueError as exc:
        assert name in str(exc) and "rank 1" in str(exc), exc
        assert name == "lemma-3.3.6"
    else:
        assert res.suite == name and res.checks


def test_duplicate_canonical_diagram_is_a_reported_assertion(tmp_path, monkeypatch):
    # two enumerated diagrams whose images lead with one tangle break the
    # index's invariant: a failed computation, never a passing report
    import tlbases.tangles as tangles_mod
    full = tangles_mod.enumerate_b_canonical
    monkeypatch.setattr(tangles_mod, "enumerate_b_canonical", lambda n: full(n) + full(n)[:1])
    tangles_mod._canonical_index.cache_clear()
    try:
        code, out = run_args(["--command", "verify", "--family", "B",
                              "--suite", "thm-2.2.5"], tmp_path)
    finally:
        tangles_mod._canonical_index.cache_clear()
    assert code == EXIT_VERIFY_FAIL
    data = json.loads(out.read_text())
    assert data["status"] == "fail"
    assert data["results"]["error"]["type"] == "AssertionError"


def test_bad_ruleset_file_is_config_error(tmp_path):
    missing = ["--command", "basis", "--family", "B", "--rank", "2", "--basis", "diagram",
               "--ruleset", str(tmp_path / "absent.json")]
    code, out = run_args(missing, tmp_path)
    assert code == EXIT_CONFIG and not out.exists()
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, out = run_args(missing[:-1] + [str(broken)], tmp_path)
    assert code == EXIT_CONFIG and not out.exists()


@pytest.mark.parametrize("argv", [
    ["--command", "verify", "--family", "H", "--suite", "thm-2.1.3"],
    ["--command", "basis", "--family", "H", "--rank", "2", "--basis", "canonical"],
])
def test_ruleset_outside_the_diagram_dump_is_config_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(H_RULES, alpha="2")))
    for ruleset in (bad, tmp_path / "missing.json"):
        code, out = run_args(argv + ["--ruleset", str(ruleset)], tmp_path)
        assert code == EXIT_CONFIG and not out.exists()
        assert "--ruleset applies only to basis --basis diagram" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ([H_RULES], "a rule set is a JSON object, not list"),
    (dict(H_RULES, family="A"), "rule set family must be B or H, not 'A'"),
    ({k: v for k, v in H_RULES.items() if k != "family"},
     "rule set family must be B or H, not None"),
])
def test_malformed_ruleset_names_the_problem(tmp_path, capsys, data, message):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(data))
    code, out = run_args(_diagram_job("H", path), tmp_path)
    assert code == EXIT_CONFIG and not out.exists()
    assert message in capsys.readouterr().err


def test_malformed_tangle_is_config_error(tmp_path):
    code, out = run_args(
        ["--command", "render", "--family", "H", "--tangle", "N1-N2"], tmp_path)
    assert code == EXIT_CONFIG and not out.exists()
