from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import re
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import metrics_for
from golden_corpus import GOLDEN
from solmetrics import cli, corpus
from solmetrics.corpus import (
    LabeledContractSet,
    _ParsedFile,
    _parse_sol_file,
    export_metrics,
    import_metrics,
    ingest,
    load_manifest,
    parse_files,
)
from solmetrics.errors import CorpusError
from solmetrics.inheritance import build_inheritance_graph
from solmetrics.lexer import tokenize
from solmetrics.metrics import METRIC_NAMES
from solmetrics.nodes import ContractDef, FunctionDef, FunctionMetrics, SourceUnit
from solmetrics.parser import parse_source

SIMPLE = "contract Token {\n  uint supply;\n  function mint() public { supply += 1; }\n}"
OTHER = "contract Vault {\n  uint locked;\n  function lock() public { locked += 2; }\n}"


def write_manifest(tmp_path, rows, name="manifest.csv", header="file,contract,label,type"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# manifest loading


def test_empty_manifest(tmp_path):
    m = load_manifest(write_manifest(tmp_path, []))
    assert m.entries == ()
    zero_bytes = tmp_path / "zero.csv"
    zero_bytes.write_bytes(b"")
    assert load_manifest(str(zero_bytes)).entries == ()


def test_manifest_row_with_type(tmp_path):
    m = load_manifest(write_manifest(tmp_path, ["", "a.sol,Token,vulnerable,RE", "  "]))
    (entry,) = m.entries  # blank rows are skipped
    assert (entry.file, entry.contract, entry.label, entry.vuln_type) == (
        "a.sol",
        "Token",
        "vulnerable",
        "RE",
    )


def test_manifest_neutral_without_type(tmp_path):
    m = load_manifest(write_manifest(tmp_path, ["a.sol,Token,neutral,"]))
    assert m.entries[0].vuln_type is None


def test_manifest_unknown_label_names_row(tmp_path):
    with pytest.raises(CorpusError, match="row 2"):
        load_manifest(write_manifest(tmp_path, ["a.sol,Token,maybe,"]))


@pytest.mark.parametrize(
    "row,message",
    [
        ("a.sol,Token", "expected 3 or 4 fields, got 2"),
        ("a.sol,Token,vulnerable,RE,x", "expected 3 or 4 fields, got 5"),
        (",Token,neutral,", "empty file or contract name"),
        ("a.sol, ,neutral,", "empty file or contract name"),
    ],
    ids=["short", "long", "no-file", "no-contract"],
)
def test_manifest_malformed_row_names_row(tmp_path, row, message):
    with pytest.raises(CorpusError) as exc:
        load_manifest(write_manifest(tmp_path, ["a.sol,Token,neutral,", row]))
    assert str(exc.value) == f"manifest row 3: {message}"


def test_manifest_unknown_type_rejected(tmp_path):
    with pytest.raises(CorpusError, match="row 3"):
        load_manifest(
            write_manifest(tmp_path, ["a.sol,Token,vulnerable,RE", "b.sol,Token,vulnerable,XX"])
        )


def test_manifest_type_on_neutral_rejected(tmp_path):
    with pytest.raises(CorpusError, match="type tag"):
        load_manifest(write_manifest(tmp_path, ["a.sol,Token,neutral,RE"]))


@pytest.mark.parametrize("spelling", ["a.sol", "./a.sol", "sub/../a.sol"])
def test_manifest_duplicate_key_rejected(tmp_path, spelling):
    # one file under any spelling, and the message names the row's own
    with pytest.raises(CorpusError) as exc:
        load_manifest(
            write_manifest(tmp_path, ["a.sol,Token,neutral,", f"{spelling},Token,vulnerable,RE"])
        )
    assert str(exc.value) == f"manifest row 3: duplicate entry for {spelling}:Token"


def test_manifest_bad_header(tmp_path):
    with pytest.raises(CorpusError, match="header"):
        load_manifest(write_manifest(tmp_path, [], header="path;name;label"))


def test_manifest_with_utf8_bom(tmp_path):
    raw = "\ufefffile,contract,label,type\na.sol,Token,neutral,\n".encode("utf-8")
    path = tmp_path / "manifest.csv"
    path.write_bytes(raw)
    m = load_manifest(str(path))
    assert [(e.file, e.contract, e.label) for e in m.entries] == [("a.sol", "Token", "neutral")]
    assert m.content_hash == hashlib.sha256(raw).hexdigest()


def test_manifest_fields_are_not_csv_quoted(tmp_path):
    m = load_manifest(write_manifest(tmp_path, ['"a.sol", "Token" ,neutral,']))
    entry = m.entries[0]
    assert (entry.file, entry.contract) == ('"a.sol"', '"Token"')


def test_manifest_missing_file():
    with pytest.raises(CorpusError, match="cannot read"):
        load_manifest("/nonexistent/manifest.csv")


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_single_contract(make_corpus):
    manifest, root = make_corpus({"a.sol": SIMPLE}, [("a.sol", "Token", "vulnerable", "RE")])
    s = ingest(load_manifest(manifest), root)
    assert len(s.rows) == 1
    assert s.counts == (1, 0)
    assert s.rows[0].metrics.nf == 1
    assert not s.diagnostics


def test_ingest_dedupe_same_text_in_two_files(make_corpus):
    manifest, root = make_corpus(
        {"a.sol": SIMPLE, "b.sol": SIMPLE},
        [("a.sol", "Token", "vulnerable", None), ("b.sol", "Token", "neutral", None)],
    )
    s = ingest(load_manifest(manifest), root)
    assert len(s.rows) == 1
    assert s.rows[0].file == "a.sol"  # first occurrence kept
    assert len(s.diagnostics) == 1 and "duplicate" in s.diagnostics[0]


def test_ingest_dedupe_ignores_comments_and_spacing(make_corpus):
    with_comment = SIMPLE.replace("uint supply;", "uint   supply; // state")
    manifest, root = make_corpus(
        {"a.sol": SIMPLE, "b.sol": with_comment},
        [("a.sol", "Token", "neutral", None), ("b.sol", "Token", "neutral", None)],
    )
    s = ingest(load_manifest(manifest), root)
    assert len(s.rows) == 1


def test_ingest_missing_contract_skips(make_corpus):
    manifest, root = make_corpus({"a.sol": SIMPLE}, [("a.sol", "Nope", "neutral", None)])
    s = ingest(load_manifest(manifest), root)
    assert s.rows == []
    assert any("contract not found" in d for d in s.diagnostics)


def test_ingest_unreadable_file_is_per_entry_diagnostic(make_corpus):
    manifest, root = make_corpus(
        {"a.sol": SIMPLE},
        [("a.sol", "Token", "neutral", None), ("gone.sol", "X", "neutral", None)],
    )
    s = ingest(load_manifest(manifest), root)
    assert len(s.rows) == 1
    assert any("gone.sol:X" in d for d in s.diagnostics)


def test_ingest_majority_skips_is_global_error(make_corpus):
    manifest, root = make_corpus(
        {"a.sol": SIMPLE},
        [
            ("a.sol", "Token", "neutral", None),
            ("m1.sol", "X", "neutral", None),
            ("m2.sol", "Y", "neutral", None),
        ],
    )
    with pytest.raises(CorpusError, match="unusable"):
        ingest(load_manifest(manifest), root)


def test_ingest_deterministic(make_corpus):
    manifest, root = make_corpus(
        {"a.sol": SIMPLE, "b.sol": OTHER},
        [("b.sol", "Vault", "neutral", None), ("a.sol", "Token", "vulnerable", "OF")],
    )
    s1 = ingest(load_manifest(manifest), root)
    s2 = ingest(load_manifest(manifest), root)
    assert s1 == s2
    assert [r.contract_id for r in s1.rows] == ["a.sol:Token", "b.sol:Vault"]


def test_ingest_dedupe_idempotence(make_corpus):
    manifest, root = make_corpus(
        {"a.sol": SIMPLE, "b.sol": OTHER, "a2.sol": SIMPLE, "b2.sol": OTHER},
        [
            ("a.sol", "Token", "vulnerable", "RE"),
            ("b.sol", "Vault", "neutral", None),
            ("a2.sol", "Token", "vulnerable", "RE"),
            ("b2.sol", "Vault", "neutral", None),
        ],
    )
    doubled = ingest(load_manifest(manifest), root)
    single_manifest, single_root = make_corpus(
        {"a.sol": SIMPLE, "b.sol": OTHER},
        [("a.sol", "Token", "vulnerable", "RE"), ("b.sol", "Vault", "neutral", None)],
    )
    single = ingest(load_manifest(single_manifest), single_root)
    assert [(r.contract_id, r.metrics, r.label) for r in doubled.rows] == [
        (r.contract_id, r.metrics, r.label) for r in single.rows
    ]


def test_row_count_bounded_by_entries(make_corpus):
    manifest, root = make_corpus(
        {"a.sol": SIMPLE},
        [("a.sol", "Token", "neutral", None), ("a.sol", "Ghost", "neutral", None)],
    )
    m = load_manifest(manifest)
    s = ingest(m, root)
    assert len(s.rows) < len(m.entries)
    assert s.diagnostics


def test_ingest_jobs_parallel_equivalent(make_corpus, pooled):
    files = {f"c{i}.sol": SIMPLE.replace("Token", f"Token{i}") for i in range(6)}
    entries = [(f"c{i}.sol", f"Token{i}", "neutral", None) for i in range(6)]
    manifest, root = make_corpus(files, entries)
    serial = ingest(load_manifest(manifest), root, jobs=1)
    parallel = ingest(load_manifest(manifest), root, jobs=3)
    assert pooled == [3]
    assert serial == parallel


def test_cross_file_inheritance_resolved_in_ingest(make_corpus):
    base = "contract Base { uint x; }"
    child = "contract Child is Base { function f() public { x = 1; } }"
    manifest, root = make_corpus(
        {"base.sol": base, "child.sol": child},
        [("base.sol", "Base", "neutral", None), ("child.sol", "Child", "neutral", None)],
    )
    s = ingest(load_manifest(manifest), root)
    by_name = {r.contract: r.metrics for r in s.rows}
    assert by_name["Child"].dit == 1
    assert by_name["Base"].nod == 1


def test_ingest_reads_each_file_once_under_any_manifest_spelling(make_corpus, monkeypatch):
    files = {
        "a.sol": "contract A { uint x; }\ncontract A2 is A {}",
        "b.sol": "contract C is A { function f() public { x = 1; } }",
    }
    plain = [("a.sol", "A", "vulnerable", "RE"), ("a.sol", "A2", "neutral", None),
             ("b.sol", "C", "neutral", None)]
    respelled = [("a.sol", "A", "vulnerable", "RE"), ("./a.sol", "A2", "neutral", None),
                 ("sub/../b.sol", "C", "neutral", None)]
    manifest, root = make_corpus(files, plain)
    expected = {r.contract: r.metrics for r in ingest(load_manifest(manifest), root).rows}
    os.mkdir(os.path.join(root, "sub"))
    manifest, root = make_corpus(files, respelled)
    read = []
    parse = corpus._parse_sol_file
    monkeypatch.setattr(corpus, "_parse_sol_file", lambda task: read.append(task[1]) or parse(task))
    s = ingest(load_manifest(manifest), root)
    assert read == ["a.sol", "sub/../b.sol"]  # each file once, under its first spelling
    assert [r.contract_id for r in s.rows] == ["./a.sol:A2", "a.sol:A", "sub/../b.sol:C"]
    assert {r.contract: r.metrics for r in s.rows} == expected
    assert expected["A"].nod == 2
    assert s.diagnostics == []
    [pf] = parse_files(root, ["./b.sol", "b.sol", "sub/../b.sol"])
    assert pf.path == "./b.sol"


def test_parse_result_carries_no_parse_tree(tmp_path):
    (tmp_path / "a.sol").write_text(SIMPLE + "\n" + OTHER, encoding="utf-8")
    result = _parse_sol_file((str(tmp_path), "a.sol"))
    assert [c.name for c in result.contracts] == ["Token", "Vault"]
    data = pickle.dumps(result)
    for cls in (SourceUnit, ContractDef, FunctionDef, FunctionMetrics):
        assert cls.__name__.encode() not in data


def test_parse_files_matches_metrics_for_on_golden_corpus(tmp_path):
    for name, (source, _) in GOLDEN.items():
        file = f"{name}.sol"
        (tmp_path / file).write_text(source, encoding="utf-8")
        [pf] = parse_files(str(tmp_path), [file])
        assert {c.name: c.metrics for c in pf.contracts} == metrics_for(source, file), name


def test_parse_files_inheritance_metrics_follow_the_corpus_graph(tmp_path):
    sources = {
        "base.sol": "contract A is External {}",
        "mid.sol": "contract B is A {}",
        "leaves.sol": "contract C is B {}\ncontract D is B, A {}",
    }
    for file, source in sources.items():
        (tmp_path / file).write_text(source, encoding="utf-8")
    parsed = parse_files(str(tmp_path), list(sources))
    graph = build_inheritance_graph([parse_source(s, f) for f, s in sources.items()])
    assert graph.unresolved_bases == {(("base.sol", "A"), "External")}
    got = {
        (pf.path, c.name): (c.metrics.dit, c.metrics.noa, c.metrics.nod)
        for pf in parsed
        for c in pf.contracts
    }
    assert got == {key: (graph.dit(key), graph.noa(key), graph.nod(key)) for key in graph.nodes}
    assert got[("leaves.sol", "C")] == (3, 2, 0)


@pytest.fixture
def recording_join(monkeypatch):
    """Records the files of each share of every fork-join run, which then
    runs as it would: share 0 in this process, the others forked."""
    joins = []
    fork_join = corpus._fork_join

    def recording(tasks, shares):
        joins.append([[tasks[i][1] for i in share] for share in shares])
        return fork_join(tasks, shares)

    monkeypatch.setattr(corpus, "_fork_join", recording)
    return joins


def _write_sized(root, sizes: list[int]) -> list[str]:
    """One contract per file, padded to exactly the given byte sizes."""
    files = []
    for i, size in enumerate(sizes):
        text = f"contract C{i} {{}}"
        (root / f"f{i}.sol").write_text(text.ljust(size), encoding="utf-8")
        files.append(f"f{i}.sol")
    return files


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "jobs, cpus, sizes",
    [(5000, 2, [2]), (3, 8, [3]), (8, 8, [4]), (5000, None, []), (1, 8, [])],
)
def test_parse_files_workers_capped_by_cpus_and_files(
    tmp_path, monkeypatch, recording_join, jobs, cpus, sizes
):
    files = _write_sized(tmp_path, [20] * 4)
    planned = []
    plan_shares = corpus._plan_shares

    def recording_plan(root, files, workers):
        planned.append(workers)
        return plan_shares(root, files, workers)

    # a platform that reports only os.cpu_count(), which may be None
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(corpus, "POOL_BREAK_EVEN_BYTES", 0)
    monkeypatch.setattr(corpus, "_plan_shares", recording_plan)
    parsed = parse_files(str(tmp_path), files, jobs)
    # one worker plans nothing: not even the sizes are read
    assert planned == sizes
    assert [len(shares) for shares in recording_join] == sizes
    assert [pf.path for pf in parsed] == files
    assert all(pf.error is None and len(pf.contracts) == 1 for pf in parsed)
    _assert_no_child_left()


@pytest.mark.parametrize(
    "sizes, workers, off",
    [
        # the largest file holds the critical path: 400 - 300
        ([300, 50, 50], 2, 100),
        # an equal share holds it: 400 - 400 / 2, and 400 - 400 / 4
        ([100, 100, 100, 100], 2, 200),
        ([100, 100, 100, 100], 4, 300),
    ],
)
def test_parse_files_pools_from_the_break_even_up(
    tmp_path, monkeypatch, recording_join, sizes, workers, off
):
    files = _write_sized(tmp_path, sizes)
    monkeypatch.setattr(corpus, "available_cpus", lambda: workers)
    monkeypatch.setattr(corpus, "POOL_BREAK_EVEN_BYTES", off + 1)
    below = parse_files(str(tmp_path), files, workers)
    assert recording_join == []
    monkeypatch.setattr(corpus, "POOL_BREAK_EVEN_BYTES", off)
    at = parse_files(str(tmp_path), files, workers)
    assert [len(shares) for shares in recording_join] == [workers]
    assert below == at


def test_parse_files_submits_largest_first_and_returns_input_order(
    tmp_path, monkeypatch, recording_join
):
    sizes = [50, 400, 100, 400, 200, 30]
    files = _write_sized(tmp_path, sizes) + ["missing.sol"]
    monkeypatch.setattr(corpus, "POOL_BREAK_EVEN_BYTES", 0)
    monkeypatch.setattr(corpus, "available_cpus", lambda: 3)
    for workers in (2, 3):
        parsed = parse_files(str(tmp_path), files, workers)
        assert [pf.path for pf in parsed] == files
        assert [[c.name for c in pf.contracts] for pf in parsed] == [
            [f"C{i}"] for i in range(len(sizes))
        ] + [[]]
        assert parsed[-1].error.startswith("unreadable file")
    # each next-largest file goes to the lightest share, the first of equal
    # ones; equal sizes keep their input order, and a file that cannot be
    # read counts 0 bytes
    assert recording_join == [
        [["f1.sol", "f4.sol"], ["f3.sol", "f2.sol", "f0.sol", "f5.sol", "missing.sol"]],
        [["f1.sol"], ["f3.sol"], ["f4.sol", "f2.sol", "f0.sol", "f5.sol", "missing.sol"]],
    ]
    _assert_no_child_left()


def test_parse_files_without_fork_parses_in_process(tmp_path, monkeypatch, recording_join):
    # a platform without os.fork (Windows) parses every file in this process
    files = _write_sized(tmp_path, [100, 100, 100])
    monkeypatch.setattr(corpus, "POOL_BREAK_EVEN_BYTES", 0)
    monkeypatch.setattr(corpus, "available_cpus", lambda: 2)
    forked = parse_files(str(tmp_path), files, 2)
    assert len(recording_join) == 1
    monkeypatch.delattr(os, "fork")
    assert parse_files(str(tmp_path), files, 2) == forked
    assert len(recording_join) == 1


def _failing_child(how: str, parent: int):
    """The module and name to patch so that a forked child fails on f2.sol:
    ``_parse_sol_file`` exits, is killed or is interrupted there, or
    ``pickle.dump`` sends a short or an unreadable payload."""
    real = corpus._parse_sol_file

    def parse(args):
        if args[1].endswith("f2.sol") and os.getpid() != parent:
            if how == "exit":
                os._exit(1)
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise KeyboardInterrupt  # not an Exception: _parse_sol_file lets it out
        return real(args)

    def dump(obj, fh):
        payload = pickle.dumps(obj)
        fh.write(payload[: len(payload) // 2] if how == "short" else b"not a pickle")

    return (pickle, "dump", dump) if how in ("short", "garbage") else (corpus, "_parse_sol_file", parse)


@pytest.mark.parametrize("how", ["exit", "signal", "interrupt", "short", "garbage"])
def test_failed_child_changes_no_output(tmp_path, monkeypatch, capsys, recording_join, how):
    files = _write_sized(tmp_path, [100, 300, 200])
    paths = [str(tmp_path / f) for f in files]
    monkeypatch.setattr(corpus, "available_cpus", lambda: 2)
    serial = cli.main(["metrics", *paths, "--jobs", "1"]), capsys.readouterr()
    monkeypatch.setattr(corpus, "POOL_BREAK_EVEN_BYTES", 0)
    parent = os.getpid()
    monkeypatch.setattr(*_failing_child(how, parent))
    try:
        parallel = cli.main(["metrics", *paths, "--jobs", "2"]), capsys.readouterr()
    finally:
        if os.getpid() != parent:  # a child came back into its caller's frames
            (tmp_path / "escaped").touch()
            os._exit(0)
    assert not (tmp_path / "escaped").exists()
    # f1.sol, the largest, is parsed here; the child's share fails, and this
    # process parses it again
    assert recording_join == [[[paths[1]], [paths[2], paths[0]]]]
    assert parallel == serial
    _assert_no_child_left()


def test_available_cpus_honours_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert corpus.available_cpus() == 3
    monkeypatch.delattr(os, "process_cpu_count")
    assert corpus.available_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert corpus.available_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert corpus.available_cpus() == 1
    monkeypatch.setattr(os, "process_cpu_count", lambda: None, raising=False)
    assert corpus.available_cpus() == 1


_GOLDEN_SOURCES = [source for source, _ in GOLDEN.values()]
# every token text of the golden sources, plus characters that break lexing
_SOURCE_PIECES = sorted(
    {t.text for source in _GOLDEN_SOURCES for t in tokenize(source)}
    | {'"', "'", "\\", "/*", "*/", "//", "\ufeff", "\u0663", "\u2028", "\x00"}
)
_SEPARATORS = st.sampled_from(["", " ", "\n", "\r\n", "\r"])


@st.composite
def _edited_golden_source(draw):
    """A golden source with a few character ranges replaced by one piece each."""
    text = draw(st.sampled_from(_GOLDEN_SOURCES))
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 40)))
        text = text[:start] + draw(st.sampled_from(_SOURCE_PIECES)) + text[end:]
    return text


_SOURCE_SOUP = st.lists(st.tuples(st.sampled_from(_SOURCE_PIECES), _SEPARATORS), max_size=80).map(
    lambda pairs: "".join(piece + sep for piece, sep in pairs)
)


@settings(max_examples=200, deadline=None)
@given(_edited_golden_source() | _SOURCE_SOUP)
def test_parse_sol_file_never_raises(tmp_path_factory, text):
    root = tmp_path_factory.getbasetemp()
    with open(root / "fuzz.sol", "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert isinstance(_parse_sol_file((str(root), "fuzz.sol")), _ParsedFile)


# ---------------------------------------------------------------------------
# export / import


def _small_set(make_corpus) -> LabeledContractSet:
    manifest, root = make_corpus(
        {"a.sol": SIMPLE, "b.sol": OTHER},
        [("a.sol", "Token", "vulnerable", "RE"), ("b.sol", "Vault", "neutral", None)],
    )
    return ingest(load_manifest(manifest), root)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_import_round_trip(make_corpus, tmp_path, fmt):
    s = _small_set(make_corpus)
    path = str(tmp_path / f"metrics.{fmt}")
    export_metrics(s, path, fmt)
    again = import_metrics(path, fmt)
    assert again == s


def test_export_deterministic_bytes(make_corpus, tmp_path):
    s = _small_set(make_corpus)
    p1, p2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
    export_metrics(s, p1, "csv")
    export_metrics(s, p2, "csv")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_export_csv_shape(make_corpus, tmp_path):
    s = _small_set(make_corpus)
    path = str(tmp_path / "metrics.csv")
    export_metrics(s, path, "csv")
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("file,contract,sloc,")
    assert lines[0].endswith(",label,type")
    assert lines[1].split(",")[-2] == "vulnerable"
    assert lines[2].split(",")[-2] == "neutral"


def test_export_empty_set_rejected(tmp_path):
    empty = LabeledContractSet([])
    with pytest.raises(CorpusError):
        export_metrics(empty, str(tmp_path / "x.csv"), "csv")


def test_export_labels_match_manifest(make_corpus, tmp_path):
    s = _small_set(make_corpus)
    path = str(tmp_path / "metrics.json")
    export_metrics(s, path, "json")
    again = import_metrics(path, "json")
    assert [(r.contract_id, r.label, r.vuln_type) for r in again.rows] == [
        ("a.sol:Token", "vulnerable", "RE"),
        ("b.sol:Vault", "neutral", None),
    ]


def _with_avg_nl(fields, cell):
    """A CSV row with the float metric avg_nl, after file and contract, set to ``cell``."""
    at = 2 + METRIC_NAMES.index("avg_nl")
    return fields[:at] + [cell] + fields[at + 1:]


def _rewrite_csv_row(path, index, edit):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    fields = lines[index].split(",")
    lines[index] = ",".join(edit(fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda f: f[:-2] + ["bogus", ""], "row 3: unknown label 'bogus'"),
        (lambda f: f[:-2] + ["neutral", "RE"], "row 3: type tag only allowed on vulnerable rows"),
        (lambda f: f[:-2] + ["vulnerable", "XX"], "row 3: unknown vulnerability type 'XX'"),
        (lambda f: f[:5], "row 3: expected 25 fields, got 5"),
        (lambda f: f[:2] + ["many"] + f[3:], "row 3: bad metric value"),
        (lambda f: _with_avg_nl(f, "nan"), "row 3: metric 'avg_nl' must be finite, got nan"),
        (lambda f: _with_avg_nl(f, "-inf"), "row 3: metric 'avg_nl' must be finite, got -inf"),
    ],
    ids=[
        "unknown-label", "type-on-neutral", "unknown-type", "short-row", "bad-value", "nan", "inf"
    ],
)
def test_import_csv_rejects_bad_row(make_corpus, tmp_path, edit, message):
    path = str(tmp_path / "metrics.csv")
    export_metrics(_small_set(make_corpus), path, "csv")
    _rewrite_csv_row(path, 2, edit)
    with pytest.raises(CorpusError, match=message):
        import_metrics(path, "csv")


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("label", "bogus", r"rows\[1\]: unknown label"),
        ("type", "RE", r"rows\[1\]: type tag only allowed"),
        ("metrics", {"sloc": 1}, r"rows\[1\]: bad metric value"),
        ("sloc", 3.7, r"rows\[1\]: metric 'sloc' must be an integer, got 3\.7"),
        ("nf", True, r"rows\[1\]: metric 'nf' must be an integer, got True"),
        ("sloc", "12", r"rows\[1\]: metric 'sloc' must be an integer, got '12'"),
        ("avg_nl", False, r"rows\[1\]: metric 'avg_nl' must be a number, got False"),
        ("avg_nl", "0.5", r"rows\[1\]: metric 'avg_nl' must be a number, got '0\.5'"),
        ("avg_nl", None, r"rows\[1\]: metric 'avg_nl' must be a number, got None"),
        ("avg_nl", math.nan, r"rows\[1\]: metric 'avg_nl' must be finite, got nan"),
        ("avg_nl", math.inf, r"rows\[1\]: metric 'avg_nl' must be finite, got inf"),
        ("avg_nl", 10**400, r"rows\[1\]: bad metric value \(OverflowError"),
    ],
    ids=[
        "unknown-label",
        "type-on-neutral",
        "missing-metric",
        "float-for-int",
        "bool-for-int",
        "string-for-int",
        "bool-for-float",
        "string-for-float",
        "null-for-float",
        "nan-for-float",
        "infinity-for-float",
        "int-past-float-range",
    ],
)
def test_import_json_rejects_bad_row(make_corpus, tmp_path, field, value, message):
    path = str(tmp_path / "metrics.json")
    export_metrics(_small_set(make_corpus), path, "json")
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    row = payload["rows"][1]
    (row["metrics"] if field in row["metrics"] else row)[field] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(CorpusError, match=message):
        import_metrics(path, "json")


def test_import_json_takes_an_integer_for_a_float_metric(make_corpus, tmp_path):
    path = str(tmp_path / "metrics.json")
    export_metrics(_small_set(make_corpus), path, "json")
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    payload["rows"][1]["metrics"]["avg_nl"] = 2
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert import_metrics(path, "json").rows[1].metrics.avg_nl == 2.0


@pytest.mark.parametrize(
    "payload,message",
    [
        ({}, "expected a JSON object with a 'rows' list"),
        ([], "expected a JSON object with a 'rows' list"),
        ({"rows": 5}, "expected a JSON object with a 'rows' list"),
        ({"rows": [5]}, r"rows\[0\]: expected string file"),
        (
            {"rows": [{"contract": "A", "label": "neutral", "metrics": {}, "type": None}]},
            r"rows\[0\]: expected string file",
        ),
    ],
    ids=["empty-object", "list", "rows-not-a-list", "row-not-an-object", "row-without-file"],
)
def test_import_json_rejects_bad_document(tmp_path, payload, message):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorpusError, match=message):
        import_metrics(str(path), "json")


@pytest.mark.parametrize(
    "fmt,text,message",
    [("json", "not json", "is not valid JSON"), ("csv", "", "unexpected export header")],
    ids=["invalid-json", "empty-csv"],
)
def test_import_rejects_unparsable_file(tmp_path, fmt, text, message):
    path = tmp_path / f"metrics.{fmt}"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError, match=message):
        import_metrics(str(path), fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_import_table_with_utf8_bom(make_corpus, tmp_path, fmt):
    s = _small_set(make_corpus)
    path = tmp_path / f"metrics.{fmt}"
    export_metrics(s, str(path), fmt)
    raw = b"\xef\xbb\xbf" + path.read_bytes()
    path.write_bytes(raw)
    again = import_metrics(str(path), fmt)
    assert again == s
    assert again.provenance == (str(path), hashlib.sha256(raw).hexdigest())


def test_import_deeply_nested_json_names_path(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(f"'{path}' nests too deeply to decode")):
        import_metrics(str(path), "json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_import_missing_file_names_path(tmp_path, fmt):
    path = str(tmp_path / f"missing.{fmt}")
    with pytest.raises(CorpusError, match=re.escape(f"cannot read metric table '{path}'")):
        import_metrics(path, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_import_unreadable_file_names_path(tmp_path, fmt):
    path = tmp_path / f"metrics.{fmt}"
    path.mkdir()
    with pytest.raises(CorpusError, match=re.escape(f"cannot read metric table '{path}'")):
        import_metrics(str(path), fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_import_non_utf8_file_names_path(tmp_path, fmt):
    path = tmp_path / f"metrics.{fmt}"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(CorpusError, match=re.escape(f"metric table '{path}' is not valid UTF-8")):
        import_metrics(str(path), fmt)
