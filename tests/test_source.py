"""Static checks on the package source (no linter is needed to run them)."""

import ast
import dataclasses
from pathlib import Path

import pytest

from gapfit.optimizer import FitConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gapfit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in ``source`` that nothing else refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector():
    source = ("import os\nimport numpy as np\nfrom . import a, b as c\n"
              "def f():\n    from .m import g\n    return np.x, a\n")
    assert unused_imports(source) == [(1, "os"), (3, "c"), (5, "g")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Where a HospitalSeries may be built: the model itself.  Everything else
# holds a Cohort's arrays; the loss takes a whole cohort.
SERIES_BUILDERS = {("model", None)}


def calls(source, matches):
    """(enclosing top-level function or class, None at module level, and
    line) of every call whose ``ast.Call`` node ``matches``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if where is None and isinstance(child, (ast.FunctionDef,
                                                    ast.AsyncFunctionDef,
                                                    ast.ClassDef)):
                inner = child.name
            if isinstance(child, ast.Call) and matches(child):
                found.append((where, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def _called_name(call):
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def series_builds(source):
    """Where ``source`` builds a HospitalSeries, by name or through
    ``type(x)(...)`` (see :func:`calls`)."""
    return calls(source, lambda call: _called_name(call) == "HospitalSeries"
                 or (isinstance(call.func, ast.Call)
                     and getattr(call.func.func, "id", None) == "type"))


def test_series_build_detector():
    source = ("x = HospitalSeries(1, 2, 3)\n"
              "def f(s):\n    return [type(s)(s.id)]\n"
              "class C:\n    def g(self):\n"
              "        return m.HospitalSeries()\n")
    assert series_builds(source) == [(None, 1), ("f", 3), ("C", 6)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_series_built_only_where_a_row_is_needed(path):
    module = path.stem
    source = path.read_text(encoding="utf-8")
    builds = [(where, line) for where, line in series_builds(source)
              if (module, None) not in SERIES_BUILDERS
              and (module, where) not in SERIES_BUILDERS]
    assert builds == []


# Where a FitResult may be built: the per-row view of a cohort fit's
# arrays.  Every other caller reads the arrays of sharing.CohortFit.
FIT_RESULT_BUILDERS = {("sharing", "CohortFit")}


def fit_result_builds(source):
    """Where ``source`` builds a FitResult, by name or by attribute (see
    :func:`calls`)."""
    return calls(source, lambda call: _called_name(call) == "FitResult")


def test_fit_result_build_detector():
    source = ("r = FitResult(b, [], True, 1)\n"
              "def f(x):\n    return [optimizer.FitResult(*x)]\n"
              "class C:\n    @property\n    def results(self):\n"
              "        return [FitResult(b, t, c, s) for b, t, c, s in x]\n"
              "def g():\n    return FitResults(), FitResult\n")
    assert fit_result_builds(source) == [(None, 1), ("f", 3), ("C", 7)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fit_results_built_only_by_the_cohort_fit_view(path):
    module = path.stem
    found = [(where, line) for where, line in
             fit_result_builds(path.read_text(encoding="utf-8"))
             if (module, where) not in FIT_RESULT_BUILDERS]
    assert found == []


# Where csv may write: the quoting fallback of datagen's one CSV writer.
# Every artifact goes through datagen._write_columns.
CSV_WRITERS = {("datagen", "_text_cells")}


def csv_writes(source):
    """Where ``source`` makes a csv writer: ``csv.writer`` or
    ``csv.DictWriter``, by attribute or by an imported name."""
    return calls(source, lambda call: _called_name(call) in ("writer",
                                                             "DictWriter"))


def test_csv_write_detector():
    source = ("import csv\nw = csv.writer(fh)\n"
              "def f(fh):\n    return csv.DictWriter(fh, [])\n"
              "class C:\n    def g(self):\n        return writer(x)\n"
              "def h():\n    return self.writers(x), writerow(x)\n")
    assert csv_writes(source) == [(None, 2), ("f", 4), ("C", 7)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_csv_written_only_by_the_one_writer(path):
    module = path.stem
    found = [(where, line) for where, line in
             csv_writes(path.read_text(encoding="utf-8"))
             if (module, where) not in CSV_WRITERS]
    assert found == []


# Where a ParseError may name a line: datagen's one CSV reader, which formats
# every record fault from its reader's fault table.
LINE_ERRORS = {("datagen", "_CsvColumns")}


def line_errors(source):
    """Where ``source`` builds a ``ParseError(..., line=...)``."""
    return calls(source, lambda call: _called_name(call) == "ParseError"
                 and any(kw.arg == "line" for kw in call.keywords))


def test_line_error_detector():
    source = ("raise ParseError('a', line=1)\n"
              "def f(n):\n    raise errors.ParseError('b', line=n)\n"
              "class C:\n    def g(self):\n"
              "        return ParseError('c', line=3), ParseError('d')\n"
              "def h():\n    return ParseError('e'), OtherError('f', line=2)\n")
    assert line_errors(source) == [(None, 1), ("f", 3), ("C", 6)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_record_faults_formatted_only_by_the_one_reader(path):
    module = path.stem
    found = [(where, line) for where, line in
             line_errors(path.read_text(encoding="utf-8"))
             if (module, where) not in LINE_ERRORS]
    assert found == []


# FitConfig fields that no CLI flag sets: none.  Every field must be set
# by cli._fit_config: a fit option that only the tests reach is a second
# code path that no run exercises.  A library caller with starts of its own
# passes them to fit_shared(setup=).
LIBRARY_ONLY = set()


def keywords_passed(source, function, callee):
    """Keyword names that the top-level ``function`` in ``source`` passes to
    calls of ``callee``, by name or by attribute."""
    return {kw.arg for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == function
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and _called_name(call) == callee
            for kw in call.keywords}


def test_keywords_passed_detector():
    source = ("def _fit_config(args):\n"
              "    c = optimizer.FitConfig(eta=1, steps=args['s'])\n"
              "    return FitConfig(lam=0.1), Other(method='gd')\n"
              "def other():\n    return FitConfig(warm_start=True)\n")
    assert keywords_passed(source, "_fit_config", "FitConfig") == {
        "eta", "steps", "lam"}
    assert keywords_passed(source, "missing", "FitConfig") == set()


def test_every_fit_option_is_a_cli_flag_or_library_only():
    set_by_cli = keywords_passed((PACKAGE / "cli.py").read_text(
        encoding="utf-8"), "_fit_config", "FitConfig")
    fields = {f.name for f in dataclasses.fields(FitConfig)}
    assert fields - set_by_cli == LIBRARY_ONLY


def test_every_fit_shared_keyword_is_passed_in_the_package():
    # as for FitConfig's fields: a keyword that no caller in the package
    # passes is a fit path that only the tests reach
    tree = ast.parse((PACKAGE / "sharing.py").read_text(encoding="utf-8"))
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "fit_shared")
    params = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
    options = params[params.index("config") + 1:]
    passed = {kw.arg for path in PACKAGE.glob("*.py")
              for call in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(call, ast.Call)
              and _called_name(call) == "fit_shared"
              for kw in call.keywords}
    assert options
    assert set(options) - passed == set()
