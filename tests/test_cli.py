from __future__ import annotations

import csv
import io
import json
import os

import pytest

from solmetrics.cli import main

GOOD = "contract A {\n  uint x;\n  function f() public { x = 1; }\n}"
VULN = "contract V {\n  uint y;\n  function g(uint a) public { if (a > 0) { y = a; } }\n}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "src"
    root.mkdir()
    names = []
    for i in range(4):
        (root / f"v{i}.sol").write_text(
            VULN.replace("contract V", f"contract V{i}").replace("a > 0", f"a > {i}"),
            encoding="utf-8",
        )
        names.append((f"v{i}.sol", f"V{i}", "vulnerable", "RE" if i % 2 else "OF"))
    for i in range(9):
        (root / f"n{i}.sol").write_text(
            GOOD.replace("contract A", f"contract N{i}").replace("x = 1", f"x = {i}"),
            encoding="utf-8",
        )
        names.append((f"n{i}.sol", f"N{i}", "neutral", None))
    manifest = tmp_path / "manifest.csv"
    lines = ["file,contract,label,type"]
    for file, contract, label, vuln_type in names:
        lines.append(f"{file},{contract},{label},{vuln_type or ''}")
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(manifest), str(root), str(tmp_path / "out")


def test_metrics_empty_contract(tmp_path, capsys):
    f = tmp_path / "empty.sol"
    f.write_text("contract A {}", encoding="utf-8")
    code, out, err = run_cli(capsys, "metrics", str(f), "--jobs", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:5] == ["file", "contract", "sloc", "lloc", "cloc"]
    assert rows[1][1] == "A"
    assert rows[1][2:5] == ["1", "1", "0"]
    assert all(v in ("0", "0.0") for v in rows[1][5:])


def test_metrics_rows_sorted(tmp_path, capsys):
    (tmp_path / "b.sol").write_text("contract Z {}\ncontract A {}", encoding="utf-8")
    (tmp_path / "a.sol").write_text("contract M {}", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "metrics", str(tmp_path / "b.sol"), str(tmp_path / "a.sol"), "--jobs", "1"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    keys = [(r[0], r[1]) for r in rows]
    assert keys == sorted(keys)


def test_metrics_diagnostics_exit_2(tmp_path, capsys):
    f = tmp_path / "broken.sol"
    f.write_text("contract { uint x; }\ncontract B {}", encoding="utf-8")
    code, out, err = run_cli(capsys, "metrics", str(f), "--jobs", "1")
    assert code == 2
    assert "B" in out
    assert err.strip()


def test_metrics_nothing_parsable_exit_1(tmp_path, capsys):
    f = tmp_path / "empty.sol"
    f.write_text("// nothing here", encoding="utf-8")
    code, _, err = run_cli(capsys, "metrics", str(f), "--jobs", "1")
    assert code == 1
    assert "no parsable contract" in err


def test_metrics_missing_file_diagnostic(tmp_path, capsys):
    good = tmp_path / "ok.sol"
    good.write_text(GOOD, encoding="utf-8")
    code, out, err = run_cli(capsys, "metrics", str(good), str(tmp_path / "gone.sol"), "--jobs", "1")
    assert code == 2
    assert "gone.sol" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_metrics_deep_nesting_is_a_diagnostic(tmp_path, capsys, jobs):
    body = "if (x) {" * 600 + "x = 1;" + "}" * 600
    deep = tmp_path / "deep.sol"
    deep.write_text(
        f"contract Deep {{ function f(uint x) public {{ {body} }} }}\ncontract B {{}}",
        encoding="utf-8",
    )
    ok = tmp_path / "ok.sol"
    ok.write_text(GOOD, encoding="utf-8")
    code, out, err = run_cli(capsys, "metrics", str(deep), str(ok), "--jobs", jobs)
    assert code == 2
    assert "nesting too deep" in err
    assert [row[1] for row in csv.reader(io.StringIO(out))][1:] == ["B", "A"]


CROSS_FILE = {
    "base.sol": "contract Base is Ownable {\n  uint x;\n  function f() public { x = 1; }\n}",
    "child.sol": (
        "contract Child is Base, ERC20 {\n"
        "  function g(uint a) public { if (a > 1) { x = a; } }\n}"
    ),
    "leaf.sol": "contract Leaf is Child {}\ncontract Lone is Missing { uint z; }",
}


@pytest.fixture
def cross_file_dir(tmp_path, monkeypatch):
    """Cross-file and unresolved bases, with the source root as working directory."""
    root = tmp_path / "src"
    root.mkdir()
    for name, text in CROSS_FILE.items():
        (root / name).write_text(text, encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file,contract,label,type\nbase.sol,Base,vulnerable,RE\nchild.sol,Child,neutral,\n"
        "leaf.sol,Leaf,neutral,\nleaf.sol,Lone,vulnerable,\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(root)
    return str(manifest), str(tmp_path / "out")


def test_metrics_rows_equal_export_columns(cross_file_dir, capsys):
    manifest, out = cross_file_dir
    code, metrics_out, _ = run_cli(capsys, "metrics", *sorted(CROSS_FILE), "--jobs", "1")
    assert code == 0
    code, _, _ = run_cli(
        capsys, "export", "--manifest", manifest, "--root", ".", "--out", out, "--jobs", "1"
    )
    assert code == 0
    with open(os.path.join(out, "metrics.csv"), encoding="utf-8", newline="") as fh:
        exported = [row[:-2] for row in csv.reader(fh)]
    rows = list(csv.reader(io.StringIO(metrics_out)))
    assert rows == exported
    dit = rows[0].index("dit")
    assert {row[1]: row[dit] for row in rows[1:]} == {
        "Base": "1", "Child": "2", "Leaf": "3", "Lone": "1"
    }


def test_metrics_output_jobs_invariant(cross_file_dir, capsys):
    serial = run_cli(capsys, "metrics", *sorted(CROSS_FILE), "--jobs", "1")
    parallel = run_cli(capsys, "metrics", *sorted(CROSS_FILE), "--jobs", "3")
    assert serial == parallel


def test_analyze_writes_reports(corpus_dir, capsys):
    manifest, root, out = corpus_dir
    code, _, err = run_cli(
        capsys, "analyze", "--manifest", manifest, "--root", root, "--out", out, "--jobs", "1"
    )
    assert code == 0, err
    names = set(os.listdir(out))
    assert {"report.json", "run_manifest.json", "rq1.csv", "rq2.md", "rq3.json", "rq4.csv"} <= names
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["counts"] == {"vulnerable": 4, "neutral": 9}
    manifest_data = json.load(open(os.path.join(out, "run_manifest.json")))
    assert manifest_data["config"]["seed"] == 42
    assert set(manifest_data["outputs"]) == names - {"run_manifest.json"}


def test_analyze_deterministic(corpus_dir, tmp_path, capsys):
    manifest, root, _ = corpus_dir
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "analyze", "--manifest", manifest, "--root", root, "--out", out, "--jobs", "1"
        )
        assert code == 0
    b1 = open(os.path.join(out1, "report.json"), "rb").read()
    b2 = open(os.path.join(out2, "report.json"), "rb").read()
    assert b1 == b2


def test_analyze_jobs_invariant(corpus_dir, tmp_path, capsys):
    manifest, root, _ = corpus_dir
    outputs = []
    for jobs, out in (("1", str(tmp_path / "j1")), ("3", str(tmp_path / "j3"))):
        code, _, _ = run_cli(
            capsys,
            "analyze", "--manifest", manifest, "--root", root, "--out", out, "--jobs", jobs,
        )
        assert code == 0
        outputs.append(open(os.path.join(out, "report.json"), "rb").read())
    assert outputs[0] == outputs[1]


def test_analyze_seed_changes_rq3(corpus_dir, tmp_path, capsys):
    manifest, root, _ = corpus_dir
    reports = []
    for seed, out in (("42", str(tmp_path / "s42")), ("43", str(tmp_path / "s43"))):
        code, _, _ = run_cli(
            capsys,
            "analyze", "--manifest", manifest, "--root", root, "--out", out,
            "--seed", seed, "--jobs", "1",
        )
        assert code == 0
        reports.append(json.load(open(os.path.join(out, "report.json"))))
    assert reports[0]["rq3"]["seed"] == 42 and reports[1]["rq3"]["seed"] == 43
    assert reports[0]["rq2"] == reports[1]["rq2"]  # seed only affects rq3


def test_analyze_significance_plumbing(corpus_dir, tmp_path, capsys):
    manifest, root, _ = corpus_dir
    out = str(tmp_path / "strict")
    code, _, _ = run_cli(
        capsys,
        "analyze", "--manifest", manifest, "--root", root, "--out", out,
        "--significance", "1e-15", "--jobs", "1",
    )
    assert code == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert not any(r["discriminative"] for r in report["rq3"]["rows"])


def test_analyze_exit_2_with_partial_skips(corpus_dir, capsys):
    manifest, root, out = corpus_dir
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("missing.sol,X,neutral,\n")
    code, _, err = run_cli(
        capsys, "analyze", "--manifest", manifest, "--root", root, "--out", out, "--jobs", "1"
    )
    assert code == 2
    assert "missing.sol" in err
    assert os.path.exists(os.path.join(out, "report.json"))


def test_analyze_bad_manifest_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("file,contract,label,type\nx.sol,A,maybe,\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "analyze", "--manifest", str(bad), "--root", str(tmp_path), "--out", str(tmp_path / "o"),
        "--jobs", "1",
    )
    assert code == 1
    assert "maybe" in err


@pytest.mark.parametrize("key", ["rq1", "rq2", "rq3", "rq4"])
def test_single_runner_writes_only_its_files(corpus_dir, tmp_path, capsys, key):
    manifest, root, _ = corpus_dir
    out = str(tmp_path / key)
    code, _, _ = run_cli(
        capsys, key, "--manifest", manifest, "--root", root, "--out", out, "--jobs", "1"
    )
    assert code == 0
    names = set(os.listdir(out))
    assert f"{key}.csv" in names and f"{key}.json" in names and f"{key}.md" in names
    assert "report.json" not in names
    assert "run_manifest.json" in names
    for other in {"rq1", "rq2", "rq3", "rq4"} - {key}:
        assert f"{other}.csv" not in names
    full = str(tmp_path / "analyze")
    code, _, _ = run_cli(
        capsys, "analyze", "--manifest", manifest, "--root", root, "--out", full, "--jobs", "1"
    )
    assert code == 0
    configs = [
        json.load(open(os.path.join(d, "run_manifest.json")))["config"] for d in (out, full)
    ]
    assert configs[0] == configs[1]


def test_export_round_trip(corpus_dir, capsys):
    manifest, root, out = corpus_dir
    code, _, _ = run_cli(
        capsys,
        "export", "--manifest", manifest, "--root", root, "--out", out,
        "--format", "csv,json", "--jobs", "1",
    )
    assert code == 0
    from solmetrics.corpus import import_metrics

    csv_set = import_metrics(os.path.join(out, "metrics.csv"), "csv")
    json_set = import_metrics(os.path.join(out, "metrics.json"), "json")
    assert csv_set == json_set
    assert csv_set.counts == (4, 9)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
