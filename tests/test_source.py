"""Properties of the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tlbases
from tlbases.algebra import TLAlgebra
from tlbases.coxeter import CoxeterGraph

SRC = Path(tlbases.__file__).resolve().parent


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so no invariant may rest on one
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"bare assert statements: {found}"


def test_no_module_imports_sympy():
    # the package computes over Z[v, v^-1] with its own kernel, calibration
    # included; sympy is a development dependency of the reference tests
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno}" for name in names
                         if name.split(".")[0] == "sympy")
    assert not found, f"sympy imported by the package: {found}"


def test_reports_have_one_encoder():
    # cli._write_json_report writes every report; json.dump and json.dumps
    # would be a second encoder (json.load, for --ruleset, reads only)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                hit = (isinstance(node.value, ast.Name) and node.value.id == "json"
                       and node.attr in ("dump", "dumps"))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                hit = any(alias.name in ("dump", "dumps") for alias in node.names)
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"json encoders outside cli._write_json_report: {found}"


def _run_python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_the_package_leaves_sympy_unloaded():
    # nothing in the package needs sympy, so nothing may load it
    code = "import sys, tlbases, tlbases.cli; print('sympy' in sys.modules)"
    assert _run_python(code).strip() == "False"


_JOBS_WITHOUT_SYMPY = """
import json, os, sys
if sys.argv[1] == "blocked":
    sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from tlbases.cli import config_from_args, run
reports = {}
for argv in (["--command", "calibrate", "--family", "H"],
             ["--command", "calibrate", "--family", "B"],
             ["--command", "verify", "--suite", "calibration,thm-2.2.5", "--family", "B"]):
    out = os.path.join(sys.argv[2], sys.argv[1] + "-" + "-".join(argv[1::2]) + ".json")
    code = run(config_from_args(argv + ["--out", out]))
    with open(out, encoding="utf-8") as fh:
        reports[" ".join(argv)] = [code, fh.read()]
print(json.dumps({"sympy": sys.modules.get("sympy") is not None, "reports": reports}))
"""


def test_calibration_runs_without_sympy(tmp_path):
    # the package's only former runtime dependency: blocking its import must
    # change no exit code and no report, and a cold run must never load it
    runs = {}
    for mode in ("blocked", "open"):
        runs[mode] = json.loads(_run_python(_JOBS_WITHOUT_SYMPY, mode, str(tmp_path)))
    assert runs["blocked"]["reports"] == runs["open"]["reports"]
    assert [code for code, _ in runs["open"]["reports"].values()] == [0, 0, 0]
    assert runs["open"]["sympy"] is False


def test_trusted_tangles_are_built_only_in_tangles():
    # Tangle._from_edges skips validation; only the module whose composition
    # and edge folding guarantee a valid result may call it
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "tangles.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "_from_edges")
    assert not found, f"Tangle._from_edges used outside tangles.py: {found}"


def test_no_function_takes_a_tuning_knob():
    # resource bounds are module constants (coxeter.CLASS_CAP, STRATUM_CAP,
    # verify.CONFLUENCE_COUNT), not parameters threaded through the calls
    knobs = {"cap", "class_cap", "opts"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + \
                    [p for p in (a.vararg, a.kwarg) if p]
                found.extend(f"{path.name}:{node.lineno} {p.arg}" for p in params
                             if p.arg in knobs)
    assert not found, f"tuning parameters: {found}"


_COLLECTORS = {"list", "tuple", "sorted", "set", "frozenset"}


def _walks_extensions(node):
    return any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "extensions"
               for n in ast.walk(node))


def _lists_a_class(node):
    """The collector called on, or the comprehension iterating, a walk of
    ``extensions``, however deep in its argument or generators; else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _COLLECTORS:
        if any(_walks_extensions(arg) for arg in node.args):
            return node.func.id
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
        if any(_walks_extensions(gen.iter) for gen in node.generators):
            return type(node).__name__
    return None


def test_no_module_lists_a_commutation_class():
    # the ordered class searches walk _Heap.extensions lazily and stop at
    # their first hit, the rewriting reads each word's Stembridge witness and
    # the letter taxonomy reads the heap itself: only commutation_class
    # materializes a whole class
    listed = [_lists_a_class(node) for node in ast.walk(ast.parse(
        "a = frozenset(_letters(w, o) for o in heap.extensions())\n"
        "b = [o for o in sorted(heap.extensions())]\n"
        "c = {o: 1 for o in _Heap(g, w).extensions(True)}\n"
        "d = next(heap.extensions())\n"
        "for o in heap.extensions():\n    pass\n"))]
    assert sorted(filter(None, listed)) == ["DictComp", "ListComp", "frozenset", "sorted"]
    found = _by_owner(_lists_a_class)
    assert {owner for _, owner, _ in found} == {"commutation_class"}, found


def _by_owner(match):
    """(module, top-level function or method, label) for each node of the
    package's syntax trees that ``match`` labels."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owners = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                owners.extend((getattr(item, "name", node.name), item) for item in node.body)
            else:
                owners.append((getattr(node, "name", "<module>"), node))
        for owner, node in owners:
            for sub in ast.walk(node):
                label = match(sub)
                if label:
                    found.append((path.name, owner, label))
    return found


def _calls_by_owner(names):
    """(module, top-level function or method, callee) for each call to ``names``."""
    def callee(node):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            return name if name in names else None
        return None

    return _by_owner(callee)


def test_one_canonical_diagram_recognizer():
    # the enumerations are the only encoding of the canonical diagrams: one
    # index reads them, and the classifier serves only the enumerations
    enum = _calls_by_owner({"enumerate_b_canonical", "enumerate_h_admissible"})
    assert enum and {owner for _, owner, _ in enum} == {"_canonical_index"}, enum
    classify = _calls_by_owner({"classify_diagram"})
    assert classify and {owner for _, owner, _ in classify} <= \
        {"enumerate_b_canonical", "enumerate_h_admissible"}, classify


def test_one_west_exposure_rule():
    # the boundary sweep is the only west-exposure rule: validation, the
    # public per-edge query and the enumerations read it, and the package
    # itself never asks edge by edge; the B-canonical classes live only in
    # enumerate_b_canonical, so the classifier carries no copy of them
    per_edge = _calls_by_owner({"west_exposed"})
    assert not per_edge, per_edge
    sweep = _calls_by_owner({"_exposure"})
    assert {owner for _, owner, _ in sweep} == \
        {"_validate", "west_exposed", "enumerate_h_admissible", "enumerate_b_canonical"}, sweep
    named = [path.name for path in sorted(SRC.rglob("*.py"))
             for field in ("B_admissible", "B_canonical_class")
             if field in path.read_text(encoding="utf-8")]
    assert not named, named


def test_unit_rule_lives_in_the_scalar_rings():
    # "a factor equal to 1 is not multiplied" is the rings' own multiplication:
    # the calculus keeps no unit helper, no unit table and threads no unit
    tree = ast.parse((SRC / "tangles.py").read_text(encoding="utf-8"))
    names = {getattr(node, "name", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert not names & {"_times", "_UNITS"}
    threaded = [(node.lineno, node.name) for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and "one" in [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]]
    assert not threaded, threaded


def test_one_right_justification_walk():
    # the block rules are tested on prefixes inside the one class walk, whose
    # first member is the answer: no member is parsed into blocks afterwards
    defined = [(path.name, node.lineno) for path in sorted(SRC.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == "_parse_blocks"]
    assert not defined, defined
    walks = [found for found in _calls_by_owner({"extensions"}) if found[1] == "right_justify"]
    assert len(walks) == 1, walks


def _non_f_structure_constant_calls(source: str):
    """Line numbers of ``structure_constants`` calls whose basis is not the
    literal ``"f"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "structure_constants":
            basis = node.args[0] if node.args else None
            if not (isinstance(basis, ast.Constant) and basis.value == "f"):
                found.append(node.lineno)
    return found


def test_suites_expand_canonical_products_by_rows():
    # the positivity suites read whole rows off canonical_products; a
    # per-pair canonical loop must not come back, and the scan must see one
    per_pair = ("for x in elements:\n    for y in elements:\n"
                "        sc = alg.structure_constants(\"canonical\", x, y)\n")
    assert _non_f_structure_constant_calls(per_pair) == [3]
    source = (SRC / "verify.py").read_text(encoding="utf-8")
    assert "right_table(\"f\")" in source
    assert _non_f_structure_constant_calls(source) == []


def test_canonical_basis_reads_the_truncated_walk():
    # the canonical table needs only the constant terms of the t-tilde rows,
    # which the truncated walk gives; the full table serves t-tilde
    # coordinates only, and one walk builds both
    full = _calls_by_owner({"ttilde_table"})
    assert full and "canonical_table" not in {owner for _, owner, _ in full}, full
    walk = _calls_by_owner({"_ttilde_walk"})
    assert sorted(owner for _, owner, _ in walk) == ["canonical_table", "ttilde_table"], walk
    # the table is the walk's constants, with no correction on top, and the
    # canonical rows read their steps off the canonical right table
    source = (SRC / "algebra.py").read_text(encoding="utf-8")
    assert "invariant_completion" not in {
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    alg = TLAlgebra(CoxeterGraph("H", 2))
    alg.canonical_products(())
    assert not hasattr(TLAlgebra, "_canonical_steps") and not hasattr(alg, "_canonical_steps")
    # the walk runs on packed rows, which only the walk itself steps
    packed = _calls_by_owner({"_packed_walk", "_packed_product"})
    assert sorted((owner, name) for _, owner, name in packed) == \
        [("_packed_walk", "_packed_product"), ("_ttilde_walk", "_packed_walk")], packed


def test_forms_accumulate_through_the_algebras_helper():
    # the trace form and the anti-associativity check combine rows through
    # algebra._combine; neither a second accumulation loop nor a per-term
    # closure in gram_check may come back
    tree = ast.parse((SRC / "forms.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "_combine" in names and not names & {"_merge", "_settle"}
    check = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "gram_check")
    nested = [node.lineno for node in ast.walk(check) if node is not check and
              isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert not nested, nested
    assert not hasattr(tlbases.TLAlgebra, "_convert_to_monomial")


def test_form_space_dimension_is_an_orbit_count():
    # the elimination lives in the Laurent kernel: the calibration resultant
    # takes it from there, not from the gram checker, and the dimension of
    # the form space is counted, not eliminated
    tangles = ast.parse((SRC / "tangles.py").read_text(encoding="utf-8"))
    from_forms = [node.lineno for node in ast.walk(tangles)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "forms"]
    assert not from_forms, from_forms
    forms = ast.parse((SRC / "forms.py").read_text(encoding="utf-8"))
    dimension = next(node for node in forms.body if isinstance(node, ast.FunctionDef)
                     and node.name == "solution_space_dimension")
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(dimension)}
    assert "_bareiss" not in names


def test_generator_actions_compose_no_whole_tangles():
    # a generator rewrites only the two arcs it touches: generator actions
    # and word evaluation go through the action, never the general product
    callees = {}
    for module, owner, callee in _calls_by_owner({"compose_raw", "multiply", "_act",
                                                  "apply_gen"}):
        if module == "tangles.py":
            callees.setdefault(owner, set()).add(callee)
    assert callees["apply_gen"] == {"_act"}, callees
    assert callees["evaluate_word"] == {"apply_gen"}, callees


def test_gram_check_steps_rows_like_the_trace_form():
    # one row step builds the trace form and decides anti-associativity: the
    # checker reads the t~ right table only through the helper the trace form
    # uses, a form is its rows, and right-justification keeps no r-set
    callees = {}
    for module, owner, callee in _calls_by_owner({"_row_steps", "right_table"}):
        if module == "forms.py":
            callees.setdefault(owner, set()).add(callee)
    assert callees == {"_row_steps": {"right_table"}, "gram_check": {"_row_steps"},
                       "natural_gram_candidate": {"_row_steps"}}, callees
    assert "entries" not in tlbases.GramCandidate.__dataclass_fields__
    assert "rset" not in (SRC / "coxeter.py").read_text(encoding="utf-8")
    assert not hasattr(tlbases.TLAlgebra, "pi_equal")


def test_one_table_of_generator_products():
    # right_table is the one table of products by a generator: the canonical
    # rows, the descent checks and the row step read it, and the rewriting
    # appends every generator on the right, so no word starts with a literal
    readers = {(module, owner) for module, owner, _ in _calls_by_owner({"right_table"})}
    assert readers == {("algebra.py", "canonical_products"), ("verify.py", "_positivity"),
                       ("forms.py", "_row_steps")}, readers
    for name in ("ttilde_left_table", "_canonical_right_table"):
        assert not hasattr(tlbases.TLAlgebra, name), name
    algebra = ast.parse((SRC / "algebra.py").read_text(encoding="utf-8"))
    prepended = [node.lineno for node in ast.walk(algebra) if isinstance(node, ast.BinOp)
                 and isinstance(node.op, ast.Add) and isinstance(node.left, ast.Tuple)]
    assert not prepended, prepended


def test_one_evaluator_per_calculus():
    # evaluate_mixed is the algebra's one fold over a word of generator
    # symbols, so the t~ step serves only it (the t~ walk steps packed rows),
    # and the suites build their products through it; on diagrams
    # DiagramCalculus.evaluate_word is the one entry point
    step = _calls_by_owner({"_ttilde_step"})
    assert {(module, owner) for module, owner, _ in step} == \
        {("algebra.py", "evaluate_mixed")}, step
    folds = [found for found in _calls_by_owner({"multiply", "ttilde_element"})
             if found[0] == "verify.py"]
    assert not folds, folds
    knobs = [f"{path.name}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.arg) and node.arg == "prescale"]
    assert not knobs, knobs
    tangles = ast.parse((SRC / "tangles.py").read_text(encoding="utf-8"))
    module_level = {node.name for node in tangles.body if isinstance(node, ast.FunctionDef)}
    assert "evaluate_word" not in module_level
    calculus = next(node for node in tangles.body
                    if isinstance(node, ast.ClassDef) and node.name == "DiagramCalculus")
    methods = {node.name for node in calculus.body if isinstance(node, ast.FunctionDef)}
    assert "evaluate_word" in methods and "gen_element" not in methods


def _numbers_a_sequence(node):
    """The label "position-map" for a dict comprehension
    {w: i for i, w in enumerate(...)}, which maps each element of a sequence
    to its position; else None."""
    if not (isinstance(node, ast.DictComp) and len(node.generators) == 1):
        return None
    gen = node.generators[0]
    if not (isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "enumerate"
            and isinstance(gen.target, ast.Tuple) and len(gen.target.elts) == 2):
        return None
    counter, element = (getattr(n, "id", None) for n in gen.target.elts)
    key, value = getattr(node.key, "id", None), getattr(node.value, "id", None)
    return "position-map" if (key, value) == (element, counter) else None


def test_one_numbering_of_the_basis():
    # fc_words numbers the FC elements once, and the t~ walk, the triangular
    # solve, the canonical rows and the basis report read that numbering; no
    # second index, descending copy or cache that nothing reads twice remains
    found = [_numbers_a_sequence(node) for node in ast.walk(ast.parse(
        "a = {w: i for i, w in enumerate(words)}\n"
        "b = {w: k for k, w in enumerate(alg.fc_words())}\n"
        "c = {i: w for i, w in enumerate(words)}\n"
        "d = {j: f(x) for j, x in enumerate(words)}\n"))]
    assert found.count("position-map") == 2
    maps = _by_owner(_numbers_a_sequence)
    assert maps == [("algebra.py", "fc_words", "position-map")], maps
    alg = TLAlgebra(CoxeterGraph("H", 3))
    alg.right_table("f")
    for name in ("_descending", "_f_factors"):
        assert not hasattr(TLAlgebra, name) and not hasattr(alg, name), name
    verify = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    names = {getattr(node, "id", getattr(node, "name", None)) for node in ast.walk(verify)}
    assert not names & {"_RULES_CACHE", "_rules"}, names & {"_RULES_CACHE", "_rules"}
