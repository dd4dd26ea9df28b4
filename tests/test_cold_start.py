"""Cold start: what each entry point loads, and the module surface it keeps.

``metrics`` and ``export`` compute no statistic, so neither they nor a bare
``import solmetrics`` / ``import solmetrics.cli`` may load numpy, the
statistics layer or a process pool; ``analyze`` loads neither numpy nor
scipy. No entry point loads ``dataclasses`` or the ``inspect`` module it
imports: the package generates no class code at import.
Each check runs in a fresh interpreter, since this test process has long
since loaded all of them.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from collections import Counter

import pytest

import solmetrics
from golden_corpus import GOLDEN
from solmetrics import cli, corpus

SRC = os.path.dirname(os.path.dirname(os.path.abspath(solmetrics.__file__)))

STATISTICS_MODULES = (
    "numpy",
    "scipy",
    "solmetrics.pipeline",
    "solmetrics.stats",
    "solmetrics.reports",
    "concurrent.futures",
    "multiprocessing",
)

# Importing these, and the class code dataclasses generate, cost more than
# the package's own modules on a cold start.
CODEGEN_MODULES = ("dataclasses", "inspect")

# Runs the given statement, then prints which of the modules are loaded.
_PROBE = """
import json, sys
{statement}
print(json.dumps(sorted(m for m in sys.argv[1:] if m in sys.modules)))
"""


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


@pytest.fixture
def golden_corpus(tmp_path):
    """Every golden snippet as one file; every third contract is vulnerable."""
    root = tmp_path / "src"
    root.mkdir()
    lines = ["file,contract,label,type"]
    keys = []
    for name, (source, expected) in sorted(GOLDEN.items()):
        (root / f"{name}.sol").write_text(source, encoding="utf-8")
        keys.extend((f"{name}.sol", contract) for contract in sorted(expected))
    for i, (file, contract) in enumerate(keys):
        label = "vulnerable,RE" if i % 3 == 0 else "neutral,"
        lines.append(f"{file},{contract},{label}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(manifest), str(root), tmp_path


def _cli_statement(argv: list[str], exit_codes: tuple[int, ...] = (0,)) -> str:
    return (
        "import contextlib, io\n"
        "from solmetrics.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        f"assert rc in {exit_codes!r}, rc\n"
    )


IMPORTS = {"package": "import solmetrics", "cli": "import solmetrics.cli"}


@pytest.mark.parametrize("entry", ["package", "cli", "metrics", "metrics-jobs-2", "export"])
def test_cold_start_loads_no_statistics_layer(entry, golden_corpus):
    manifest, root, tmp = golden_corpus
    if entry == "metrics":
        files = sorted(os.path.join(root, f) for f in os.listdir(root))
        statement = _cli_statement(["metrics", *files, "--jobs", "1"])
    elif entry == "metrics-jobs-2":
        # two workers are allowed, on any host, but the golden files hold
        # too few bytes for a pool to pay: they are parsed in this process
        files = sorted(os.path.join(root, f) for f in os.listdir(root))
        assert sum(map(os.path.getsize, files)) < corpus.POOL_BREAK_EVEN_BYTES
        statement = "import solmetrics.corpus\nsolmetrics.corpus.available_cpus = lambda: 2\n"
        statement += _cli_statement(["metrics", *files, "--jobs", "2"])
    elif entry == "export":
        argv = ["export", "--manifest", manifest, "--root", root, "--out", str(tmp / "out")]
        statement = _cli_statement(argv + ["--format", "csv,json", "--jobs", "1"])
    else:
        statement = IMPORTS[entry]
    result = run_python(_PROBE.format(statement=statement), *STATISTICS_MODULES, *CODEGEN_MODULES)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
    if entry == "export":
        assert sorted(os.listdir(tmp / "out")) == ["metrics.csv", "metrics.json"]


def test_analyze_loads_neither_numpy_nor_scipy(golden_corpus):
    # every statistic runs on Python floats, and every p-value and interval
    # comes from the pure-Python t distribution
    manifest, root, tmp = golden_corpus
    argv = ["analyze", "--manifest", manifest, "--root", root, "--out", str(tmp / "out")]
    statement = _cli_statement(argv + ["--jobs", "1"], exit_codes=(0, 2))
    result = run_python(_PROBE.format(statement=statement), "numpy", "scipy")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
    assert "rq1.csv" in os.listdir(tmp / "out")


@pytest.mark.parametrize("command", ["analyze", *cli.ANALYSES])
def test_analysis_commands_load_neither_dataclasses_nor_inspect(command, golden_corpus):
    manifest, root, tmp = golden_corpus
    argv = [command, "--manifest", manifest, "--root", root, "--out", str(tmp / "out")]
    statement = _cli_statement(argv + ["--jobs", "1"], exit_codes=(0, 2))
    result = run_python(_PROBE.format(statement=statement), *CODEGEN_MODULES)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []


def test_parse_result_round_trips_through_pickle(golden_corpus):
    # a pool worker's result reaches the parent pickled: unpickled, it must
    # give the same facts, with base names still a list; besides the golden
    # files, one file has a diagnostic and one a lex error
    manifest, root, tmp = golden_corpus
    with open(os.path.join(root, "dup.sol"), "w", encoding="utf-8") as fh:
        fh.write("contract A is B {}\ncontract A {}\n")
    with open(os.path.join(root, "bad.sol"), "w", encoding="utf-8") as fh:
        fh.write("contract A {} /* open")
    for file in sorted(os.listdir(root)):
        sent = corpus._parse_sol_file((root, file))
        got = pickle.loads(pickle.dumps(sent))
        assert type(got) is corpus._ParsedFile and got == sent
        assert [(c.name, c.base_names, c.digest, c.metrics.as_cells()) for c in got.contracts] == [
            (c.name, c.base_names, c.digest, c.metrics.as_cells()) for c in sent.contracts
        ]
        assert all(type(c.base_names) is list for c in got.contracts)
        assert [type(c.metrics) for c in got.contracts] == [type(c.metrics) for c in sent.contracts]
        assert bool(got.contracts) == (file != "bad.sol") and bool(got.error) == (file == "bad.sol")
        assert bool(got.diagnostics) == (file == "dup.sol")


def _read_tree(path) -> dict[str, bytes]:
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_analyze_in_fresh_interpreter_matches_in_process(golden_corpus, capsys):
    manifest, root, tmp = golden_corpus
    flags = ["--manifest", manifest, "--root", root, "--jobs", "1", "--seed", "3"]
    fresh = run_python(
        "import sys\nfrom solmetrics.cli import main\nsys.exit(main(sys.argv[1:]))",
        "analyze", *flags, "--out", str(tmp / "fresh"),
    )
    assert cli.main(["analyze", *flags, "--out", str(tmp / "loaded")]) == fresh.returncode
    assert capsys.readouterr().err == fresh.stderr
    assert fresh.returncode in (0, 2), fresh.stderr
    assert _read_tree(tmp / "fresh") == _read_tree(tmp / "loaded")


def test_package_surface_resolves_lazily():
    code = (
        "import sys, solmetrics\n"
        "assert 'numpy' not in sys.modules\n"
        "listed = set(dir(solmetrics))\n"
        "missing = [n for n in solmetrics.__all__ if n not in listed]\n"
        "assert not missing, missing\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in solmetrics.__all__:\n"
        "    getattr(solmetrics, name)\n"
        "namespace = {}\n"
        "exec('from solmetrics import *', namespace)\n"
        "unbound = [n for n in solmetrics.__all__ if n not in namespace]\n"
        "assert not unbound, unbound\n"
        "assert namespace['rank'] is solmetrics.stats.rank\n"
        "assert namespace['run_analysis'] is solmetrics.pipeline.run_analysis\n"
        "print('ok')\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        solmetrics.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


# The names perfbench/trace_child.py wraps on ``cli``, each with the command
# that calls it through ``cli``.
CLI_HOOKS = {
    "load_manifest": "analyze",
    "ingest": "analyze",
    "run_analysis": "analyze",
    "write_report": "analyze",
    "write_run_manifest": "analyze",
    "parse_files": "metrics",
}


@pytest.mark.parametrize("name", sorted(CLI_HOOKS))
def test_replacement_set_on_cli_is_what_the_command_calls(name, golden_corpus, monkeypatch, capsys):
    manifest, root, tmp = golden_corpus
    original = getattr(cli, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    if CLI_HOOKS[name] == "analyze":
        argv = ["analyze", "--manifest", manifest, "--root", root, "--out", str(tmp / "out")]
    else:
        argv = ["metrics", *sorted(os.path.join(root, f) for f in os.listdir(root))]
    assert cli.main(argv + ["--jobs", "1"]) in (0, 2)
    capsys.readouterr()
    assert calls == [name]


def test_frontend_hooks_stay_on_cli():
    # ingest calls these through corpus; a tracer wraps them on both modules
    assert cli.build_inheritance_graph is corpus.build_inheritance_graph
    assert cli.contract_metrics is corpus.contract_metrics


# The names perfbench/trace_child.py wraps on ``corpus``, each with what
# ``_parse_sol_file`` calls it once for.
CORPUS_HOOKS = {
    "tokenize": "file",
    "parse_file": "file",
    "line_accounting": "contract",
    "normalized_contract_text": "contract",
    "contract_metrics": "contract",
}


def test_replacements_set_on_corpus_are_what_parse_sol_file_calls(golden_corpus, monkeypatch):
    manifest, root, tmp = golden_corpus
    files = sorted(os.listdir(root))
    calls = Counter()
    token_counts = []

    def counting(name, original):
        def replacement(*args, **kwargs):
            calls[name] += 1
            result = original(*args, **kwargs)
            if name == "tokenize":
                walked = list(result)
                token_counts.append((len(result), len(walked), sum(t.is_comment for t in walked)))
            return result

        return replacement

    for name in CORPUS_HOOKS:
        monkeypatch.setattr(corpus, name, counting(name, getattr(corpus, name)))
    parsed = corpus.parse_files(root, files, jobs=1)
    assert [pf.error for pf in parsed] == [None] * len(files)
    contracts = sum(len(pf.contracts) for pf in parsed)
    per = {"file": len(files), "contract": contracts}
    assert dict(calls) == {name: per[each] for name, each in CORPUS_HOOKS.items()}
    # len() of the stream is the full token count, comments included
    assert all(length == walked for length, walked, _ in token_counts)
    assert sum(comments for _, _, comments in token_counts) > 0
