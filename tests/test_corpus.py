from __future__ import annotations

import json
import os
import pickle

import pytest

from solmetrics.corpus import (
    LabeledContractSet,
    _parse_sol_file,
    export_metrics,
    import_metrics,
    ingest,
    load_manifest,
)
from solmetrics.errors import CorpusError
from solmetrics.nodes import ContractDef, FunctionDef, SourceUnit, Statement

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


def test_manifest_row_with_type(tmp_path):
    m = load_manifest(write_manifest(tmp_path, ["a.sol,Token,vulnerable,RE"]))
    entry = m.entries[0]
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


def test_manifest_unknown_type_rejected(tmp_path):
    with pytest.raises(CorpusError, match="row 3"):
        load_manifest(
            write_manifest(tmp_path, ["a.sol,Token,vulnerable,RE", "b.sol,Token,vulnerable,XX"])
        )


def test_manifest_type_on_neutral_rejected(tmp_path):
    with pytest.raises(CorpusError, match="type tag"):
        load_manifest(write_manifest(tmp_path, ["a.sol,Token,neutral,RE"]))


def test_manifest_duplicate_key_rejected(tmp_path):
    with pytest.raises(CorpusError, match="duplicate"):
        load_manifest(
            write_manifest(tmp_path, ["a.sol,Token,neutral,", "a.sol,Token,vulnerable,RE"])
        )


def test_manifest_bad_header(tmp_path):
    with pytest.raises(CorpusError, match="header"):
        load_manifest(write_manifest(tmp_path, [], header="path;name;label"))


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


def test_ingest_jobs_parallel_equivalent(make_corpus):
    files = {f"c{i}.sol": SIMPLE.replace("Token", f"Token{i}") for i in range(6)}
    entries = [(f"c{i}.sol", f"Token{i}", "neutral", None) for i in range(6)]
    manifest, root = make_corpus(files, entries)
    serial = ingest(load_manifest(manifest), root, jobs=1)
    parallel = ingest(load_manifest(manifest), root, jobs=3)
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


def test_parse_result_carries_no_parse_tree(tmp_path):
    (tmp_path / "a.sol").write_text(SIMPLE + "\n" + OTHER, encoding="utf-8")
    result = _parse_sol_file((str(tmp_path), "a.sol"))
    assert [c.name for c in result.contracts] == ["Token", "Vault"]
    data = pickle.dumps(result)
    for cls in (SourceUnit, ContractDef, FunctionDef, Statement):
        assert cls.__name__.encode() not in data


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
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_export_csv_shape(make_corpus, tmp_path):
    s = _small_set(make_corpus)
    path = str(tmp_path / "metrics.csv")
    export_metrics(s, path, "csv")
    lines = open(path, encoding="utf-8").read().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("file,contract,sloc,")
    assert lines[0].endswith(",label,type")
    assert lines[1].split(",")[-2] == "vulnerable"
    assert lines[2].split(",")[-2] == "neutral"


def test_export_empty_set_rejected(tmp_path):
    empty = LabeledContractSet(rows=[], n_vulnerable=0, n_neutral=0)
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


def _rewrite_csv_row(path, index, edit):
    lines = open(path, encoding="utf-8").read().splitlines()
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
    ],
    ids=["unknown-label", "type-on-neutral", "unknown-type", "short-row", "bad-value"],
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
    ],
    ids=["unknown-label", "type-on-neutral", "missing-metric"],
)
def test_import_json_rejects_bad_row(make_corpus, tmp_path, field, value, message):
    path = str(tmp_path / "metrics.json")
    export_metrics(_small_set(make_corpus), path, "json")
    payload = json.load(open(path, encoding="utf-8"))
    payload["rows"][1][field] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(CorpusError, match=message):
        import_metrics(path, "json")
