from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import pytest

from conftest import NESTING_SHAPES, nested_source
from solmetrics import cli, corpus
from solmetrics.cli import main
from solmetrics.parser import MAX_NESTING

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
def test_metrics_internal_error_skips_the_file(tmp_path, capsys, monkeypatch, pooled, jobs):
    real_parse_file = corpus.parse_file

    def parse_file(tokens, path):
        if path.endswith("bad.sol"):
            raise RuntimeError("boom")
        return real_parse_file(tokens, path)

    # worker processes are forked, so they see the replacement too
    monkeypatch.setattr(corpus, "parse_file", parse_file)
    paths = []
    for name, text in (("bad.sol", GOOD), ("ok.sol", VULN)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths.append(str(tmp_path / name))
    code, out, err = run_cli(capsys, "metrics", *paths, "--jobs", jobs)
    assert pooled == ([2] if jobs == "2" else [])
    assert code == 2
    assert err.splitlines() == [f"{paths[0]}:1: internal error: RuntimeError: boom"]
    assert [row[1] for row in csv.reader(io.StringIO(out))][1:] == ["V"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_metrics_deep_nesting_is_a_diagnostic(tmp_path, capsys, pooled, jobs):
    body = "if (x) {" * 600 + "x = 1;" + "}" * 600
    deep = tmp_path / "deep.sol"
    deep.write_text(
        f"contract Deep {{ function f(uint x) public {{ {body} }} }}\ncontract B {{}}",
        encoding="utf-8",
    )
    ok = tmp_path / "ok.sol"
    ok.write_text(GOOD, encoding="utf-8")
    code, out, err = run_cli(capsys, "metrics", str(deep), str(ok), "--jobs", jobs)
    assert pooled == ([2] if jobs == "2" else [])
    assert code == 2
    assert "nesting too deep" in err
    assert [row[1] for row in csv.reader(io.StringIO(out))][1:] == ["B", "A"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "tail", ["abstract", "struct S {", "function g() pure {"], ids=["abstract", "struct", "function"]
)
def test_metrics_malformed_file_level_item_exit_2(tmp_path, capsys, pooled, jobs, tail):
    bad = tmp_path / "bad.sol"
    bad.write_text("contract Keep {}\n" + tail, encoding="utf-8")
    ok = tmp_path / "ok.sol"
    ok.write_text(GOOD, encoding="utf-8")
    code, out, err = run_cli(capsys, "metrics", str(bad), str(ok), "--jobs", jobs)
    assert pooled == ([2] if jobs == "2" else [])
    assert code == 2
    assert "Traceback" not in err
    assert [line.split(": ", 1)[0] for line in err.splitlines()] == [f"{bad}:2"]
    assert [row[1] for row in csv.reader(io.StringIO(out))][1:] == ["Keep", "A"]


def test_metrics_nesting_limit_jobs_invariant(tmp_path, capsys, pooled):
    paths = []
    for shape in sorted(NESTING_SHAPES):
        for depth in (MAX_NESTING, MAX_NESTING + 1):
            path = tmp_path / f"{shape}-{depth}.sol"
            path.write_text(nested_source(shape, depth), encoding="utf-8")
            paths.append(str(path))
    serial = run_cli(capsys, "metrics", *paths, "--jobs", "1")
    parallel = run_cli(capsys, "metrics", *paths, "--jobs", "2")
    assert pooled == [2]
    assert serial == parallel
    code, out, err = serial
    assert code == 2
    scored = {
        (os.path.basename(row[0]), row[1]) for row in list(csv.reader(io.StringIO(out)))[1:]
    }
    for shape in NESTING_SHAPES:
        assert (f"{shape}-{MAX_NESTING}.sol", "D") in scored
        assert (f"{shape}-{MAX_NESTING + 1}.sol", "D") not in scored
    assert err.splitlines() == [
        f"{tmp_path / shape}-{MAX_NESTING + 1}.sol:2: nesting too deep"
        for shape in sorted(NESTING_SHAPES)
    ]


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


def test_metrics_output_jobs_invariant(cross_file_dir, capsys, pooled):
    serial = run_cli(capsys, "metrics", *sorted(CROSS_FILE), "--jobs", "1")
    parallel = run_cli(capsys, "metrics", *sorted(CROSS_FILE), "--jobs", "3")
    assert pooled == [3]
    assert serial == parallel


def test_metrics_repeated_path_is_measured_once(cross_file_dir, capsys):
    once = run_cli(capsys, "metrics", *sorted(CROSS_FILE), "--jobs", "1")
    twice = run_cli(capsys, "metrics", *sorted(CROSS_FILE), "child.sol", "base.sol", "--jobs", "1")
    assert twice == once


def test_metrics_path_spellings_of_one_file_are_measured_once(cross_file_dir, capsys):
    once = run_cli(capsys, "metrics", "base.sol", "child.sol", "--jobs", "1")
    respelled = run_cli(capsys, "metrics", "base.sol", "child.sol", "./base.sol", "--jobs", "1")
    assert respelled == once
    nod = once[1].splitlines()[0].split(",").index("nod")
    assert [row.split(",")[nod] for row in once[1].splitlines()[1:]] == ["1", "0"]


@pytest.mark.parametrize("command", ["analyze", "rq1", "export"])
def test_unwritable_out_fails_before_the_corpus_is_read(
    corpus_dir, tmp_path, capsys, monkeypatch, command
):
    manifest, root, _ = corpus_dir

    def no_ingest(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(cli, "ingest", no_ingest)
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    code, stdout, err = run_cli(
        capsys, command, "--manifest", manifest, "--root", root, "--out", str(out)
    )
    assert (code, stdout, err) == (1, "", f"cannot write output {str(out)!r}: File exists\n")


@pytest.mark.parametrize("command", ["analyze", "rq3", "export"])
def test_failed_ingest_leaves_no_new_out_directory(tmp_path, capsys, command):
    (tmp_path / "bad.sol").write_text("contract {", encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("file,contract,label,type\nbad.sol,A,neutral,\n", encoding="utf-8")
    out = tmp_path / "new" / "reports"
    code, stdout, _ = run_cli(
        capsys, command, "--manifest", str(manifest), "--root", str(tmp_path),
        "--out", str(out), "--jobs", "1",
    )
    assert (code, stdout) == (1, "")
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["analyze", "rq2", "export"])
@pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
def test_unwritable_out_is_a_one_line_error(corpus_dir, tmp_path, capsys, command, where):
    manifest, root, _ = corpus_dir
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    out = str(blocker if where == "existing-file" else blocker / "reports")
    code, stdout, err = run_cli(
        capsys, command, "--manifest", manifest, "--root", root, "--out", out, "--jobs", "1"
    )
    assert (code, stdout) == (1, "")
    assert err.startswith(f"cannot write output {out!r}: ")
    assert err.count("\n") == 1


def test_analyze_writes_reports(corpus_dir, capsys):
    manifest, root, out = corpus_dir
    code, _, err = run_cli(
        capsys, "analyze", "--manifest", manifest, "--root", root, "--out", out, "--jobs", "1"
    )
    assert code == 0, err
    names = set(os.listdir(out))
    assert {"report.json", "run_manifest.json", "rq1.csv", "rq2.md", "rq3.json", "rq4.csv"} <= names
    report = json.loads(Path(out, "report.json").read_text())
    assert report["counts"] == {"vulnerable": 4, "neutral": 9}
    manifest_data = json.loads(Path(out, "run_manifest.json").read_text())
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
    b1 = Path(out1, "report.json").read_bytes()
    b2 = Path(out2, "report.json").read_bytes()
    assert b1 == b2


def test_analyze_jobs_invariant(corpus_dir, tmp_path, capsys, pooled):
    manifest, root, _ = corpus_dir
    outputs = []
    for jobs, out in (("1", str(tmp_path / "j1")), ("3", str(tmp_path / "j3"))):
        code, _, _ = run_cli(
            capsys,
            "analyze", "--manifest", manifest, "--root", root, "--out", out, "--jobs", jobs,
        )
        assert code == 0
        outputs.append(Path(out, "report.json").read_bytes())
    assert pooled == [3]
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
        reports.append(json.loads(Path(out, "report.json").read_text()))
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
    report = json.loads(Path(out, "report.json").read_text())
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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_metrics_and_analyze_reject_jobs_below_one(corpus_dir, capsys, jobs):
    manifest, root, out = corpus_dir
    metrics = run_cli(capsys, "metrics", os.path.join(root, "n0.sol"), "--jobs", jobs)
    analyze = run_cli(
        capsys, "analyze", "--manifest", manifest, "--root", root, "--out", out, "--jobs", jobs
    )
    assert metrics == analyze == (1, "", "jobs must be at least 1\n")


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
        json.loads(Path(d, "run_manifest.json").read_text())["config"] for d in (out, full)
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
