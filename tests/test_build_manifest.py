from __future__ import annotations

import importlib.util
import os

import pytest

from solmetrics.corpus import ingest, load_manifest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "build_manifest.py")
_spec = importlib.util.spec_from_file_location("build_manifest", _TOOL)
build_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(build_manifest)


@pytest.fixture
def built(tmp_path, capsys):
    """Run the tool over a small tree; returns (manifest path, root, stderr)."""
    root = tmp_path / "src"
    (root / "sub").mkdir(parents=True)
    (root / "a.sol").write_text("contract A1 { uint x; }\ncontract A2 { uint y; }\n")
    (root / "sub" / "b.sol").write_text("contract B { function f() public {} }\n")
    (root / "c.sol").write_text("contract C is A1 {}\n")
    (root / "a,b.sol").write_text("contract Comma {}\n")
    (root / " pad.sol").write_text("contract Pad {}\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("file,contract,label,type\na.sol,A1,vulnerable,RE\nsub/b.sol,vulnerable,TP\n")
    out = tmp_path / "manifest.csv"
    rc = build_manifest.main([str(root), "--labels", str(labels), "--out", str(out)])
    assert rc == 0
    return str(out), str(root), capsys.readouterr().err


def test_labels_per_contract_per_file_and_default(built):
    out, _, _ = built
    with open(out, encoding="utf-8") as fh:
        assert fh.read().splitlines() == [
            "file,contract,label,type",
            "a.sol,A1,vulnerable,RE",
            "a.sol,A2,neutral,",
            "c.sol,C,neutral,",
            "sub/b.sol,B,vulnerable,TP",
        ]


def test_paths_the_manifest_cannot_hold_are_skipped(built):
    _, _, err = built
    assert err.splitlines() == [
        "skipped ' pad.sol': a comma, line break or edge blank in the path",
        "skipped 'a,b.sol': a comma, line break or edge blank in the path",
    ]


def test_written_manifest_loads_and_ingests(built):
    out, root, _ = built
    contract_set = ingest(load_manifest(out), root)
    assert [r.contract_id for r in contract_set.rows] == [
        "a.sol:A1",
        "a.sol:A2",
        "c.sol:C",
        "sub/b.sol:B",
    ]
    assert contract_set.counts == (2, 2)
    assert contract_set.diagnostics == []


@pytest.mark.parametrize("header", ["file,contract,label,type\n", ""], ids=["header", "no-header"])
def test_labels_csv_with_byte_order_mark(tmp_path, capsys, header):
    # spreadsheet tools save CSV with a UTF-8 byte-order mark
    root = tmp_path / "src"
    root.mkdir()
    (root / "a.sol").write_text("contract A {}\ncontract B {}\n")
    labels = tmp_path / "labels.csv"
    labels.write_bytes(("\ufeff" + header + "a.sol,A,vulnerable,RE\n").encode("utf-8"))
    out = tmp_path / "manifest.csv"
    assert build_manifest.main([str(root), "--labels", str(labels), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8").splitlines() == [
        "file,contract,label,type",
        "a.sol,A,vulnerable,RE",
        "a.sol,B,neutral,",
    ]


def test_label_row_paths_are_normalized(tmp_path, capsys):
    root = tmp_path / "src"
    (root / "sub").mkdir(parents=True)
    (root / "a.sol").write_text("contract A {}\ncontract B {}\n")
    (root / "sub" / "c.sol").write_text("contract C {}\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("./a.sol,A,vulnerable,RE\nsub/../sub/./c.sol,vulnerable,TP\n")
    out = tmp_path / "manifest.csv"
    assert build_manifest.main([str(root), "--labels", str(labels), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text(encoding="utf-8").splitlines() == [
        "file,contract,label,type",
        "a.sol,A,vulnerable,RE",
        "a.sol,B,neutral,",
        os.path.join("sub", "c.sol") + ",C,vulnerable,TP",
    ]


def test_label_rows_that_label_no_contract_are_reported(tmp_path, capsys):
    root = tmp_path / "src"
    root.mkdir()
    (root / "a.sol").write_text("contract A {}\n")
    (root / "b.sol").write_text("contract B {}\ncontract B2 {}\n")
    labels = tmp_path / "labels.csv"
    labels.write_text(
        "file,contract,label,type\n"
        "a.sol,Z,vulnerable,RE\n"  # no such contract
        "a.sol,A,vulnerable,OF\n"
        "gone.sol,vulnerable\n"  # no such file
        "b.sol,neutral\n"  # every contract of b.sol has its own row
        "b.sol,B,vulnerable,TP\n"
        "b.sol,B2,vulnerable,TP\n"
    )
    out = tmp_path / "manifest.csv"
    assert build_manifest.main([str(root), "--labels", str(labels), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"skipped {labels}:2: label row for a.sol:Z labels no contract",
        f"skipped {labels}:4: label row for gone.sol labels no contract",
        f"skipped {labels}:5: label row for b.sol labels no contract",
    ]
    assert out.read_text(encoding="utf-8").splitlines() == [
        "file,contract,label,type",
        "a.sol,A,vulnerable,OF",
        "b.sol,B,vulnerable,TP",
        "b.sol,B2,vulnerable,TP",
    ]


@pytest.mark.parametrize("spelling", ["a.sol", "./a.sol"])
def test_repeated_label_row_exits_1(tmp_path, capsys, spelling):
    root = tmp_path / "src"
    root.mkdir()
    (root / "a.sol").write_text("contract A {}\n")
    labels = tmp_path / "labels.csv"
    labels.write_text(f"a.sol,A,vulnerable,RE\n{spelling},A,neutral\n")
    out = tmp_path / "manifest.csv"
    with pytest.raises(SystemExit) as exc:
        build_manifest.main([str(root), "--labels", str(labels), "--out", str(out)])
    assert exc.value.code == f"{labels}:2: repeats the label row on line 1"
    assert not out.exists()


def test_inheritance_cycle_exits_1_before_writing(tmp_path):
    root = tmp_path / "src"
    root.mkdir()
    (root / "a.sol").write_text("contract A is B {}\n")
    (root / "b.sol").write_text("contract B is A {}\ncontract C {}\n")
    out = tmp_path / "manifest.csv"
    with pytest.raises(SystemExit) as exc:
        build_manifest.main([str(root), "--out", str(out)])
    assert exc.value.code == "inheritance cycle: a.sol:A -> b.sol:B -> a.sol:A"
    assert not out.exists()


def test_files_are_read_as_the_corpus_commands_read_them(tmp_path, capsys):
    root = tmp_path / "src"
    root.mkdir()
    (root / "a.sol").write_text("contract A {}\ncontract { uint x; }\ncontract B {}\n")
    (root / "lex.sol").write_text('contract L { string s = "open; }\n')
    (root / "latin1.sol").write_bytes("contract Café {}\n".encode("latin-1"))
    out = tmp_path / "manifest.csv"
    assert build_manifest.main([str(root), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote 2 entries to {out} (0 vulnerable, 2 neutral)\n"
    assert captured.err.splitlines() == [
        "skipped a.sol:2: missing name in contract header",
        "skipped latin1.sol: not valid UTF-8",
        "skipped lex.sol: lex error: line 1: unterminated string literal",
    ]
    assert out.read_text(encoding="utf-8").splitlines() == [
        "file,contract,label,type",
        "a.sol,A,neutral,",
        "a.sol,B,neutral,",
    ]


def test_files_go_to_forked_workers_where_they_pay(tmp_path, monkeypatch, capsys, pooled):
    monkeypatch.setattr(build_manifest, "available_cpus", lambda: 4)
    root = tmp_path / "src"
    root.mkdir()
    for i in range(4):
        (root / f"c{i}.sol").write_text(f"contract C{i} {{}}\n")
    out = tmp_path / "manifest.csv"
    assert build_manifest.main([str(root), "--out", str(out)]) == 0
    assert pooled == [4]
    assert out.read_text(encoding="utf-8").splitlines() == [
        "file,contract,label,type",
        "c0.sol,C0,neutral,",
        "c1.sol,C1,neutral,",
        "c2.sol,C2,neutral,",
        "c3.sol,C3,neutral,",
    ]
