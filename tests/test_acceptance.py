"""Acceptance suite.

Criteria 1-3 and 8 are self-contained and always run. Criteria 4-7 need
the labeled public corpus: point SOLMETRICS_DATASET at a directory
holding manifest.csv plus the referenced .sol tree (see
tools/build_manifest.py); without it they skip and the dataset-
independent property suites of criterion 8 constitute acceptance.

Run with `pytest tests/test_acceptance.py -v -s` for one PASS line per
criterion.
"""

from __future__ import annotations

import json
import math
import os
import random
import time

import pytest

from conftest import metrics_for
from golden_corpus import GOLDEN
from solmetrics.corpus import ingest, load_manifest
from solmetrics.metrics import METRIC_NAMES
from solmetrics.pipeline import (
    HIGHER_IN_NEUTRAL,
    HIGHER_IN_VULNERABLE,
    RunConfig,
    rq1_redundancy,
    rq2_metric_vs_vulnerability,
    rq3_discriminative,
    rq4_interval_comparison,
    run_analysis,
)
from solmetrics.stats import (
    mean_confidence_interval,
    paired_t_test,
    rank,
    spearman,
    student_t_cdf,
)

DATASET_ENV = "SOLMETRICS_DATASET"

# Reference per-metric label correlations for the public corpus
# (reproduction tolerance 0.05, matching signs, p < 0.05).
REFERENCE_RHO = {
    "sloc": 0.153,
    "lloc": 0.132,
    "cloc": -0.077,
    "nf": 0.123,
    "wmc": 0.130,
    "nl": 0.146,
    "nle": 0.144,
    "numpar": 0.082,
    "nos": 0.160,
    "dit": 0.099,
    "noa": 0.102,
    "nod": -0.042,
    "cbo": 0.182,
    "na": 0.170,
    "noi": 0.165,
    "avg_mccc": 0.127,
    "avg_nl": 0.121,
    "avg_nle": 0.116,
    "avg_numpar": -0.037,
    "avg_nos": 0.144,
    "avg_noi": 0.145,
}


def _report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}", flush=True)


# ---------------------------------------------------------------------------
# criterion 1: golden metric corpus


def test_criterion_1_golden_corpus():
    assert len(GOLDEN) >= 12
    started = time.perf_counter()
    checked = 0
    for name, (source, expected) in GOLDEN.items():
        vectors = metrics_for(source)
        assert set(vectors) == set(expected), name
        for contract_name, want in expected.items():
            got = vectors[contract_name].as_row()
            assert got[:15] == want[:15], f"{name}/{contract_name}"
            for metric, g, w in zip(METRIC_NAMES[15:], got[15:], want[15:]):
                assert abs(g - w) <= 1e-12, f"{name}/{contract_name}/{metric}"
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden corpus took {elapsed:.3f}s"
    _report("1 golden-metric-corpus", f"{checked} vectors, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: spearman oracle equivalence


def _brute_force_ranks(values):
    out = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(less + (equal + 1) / 2)
    return out


def _plain_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def test_criterion_2_spearman_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240817)
    for trial in range(1000):
        n = rng.randint(3, 50)
        # tie-free: distinct values, shuffled
        x = rng.sample(range(100_000), n)
        y = rng.sample(range(100_000), n)
        rho = spearman(x, y).rho
        rx = _brute_force_ranks(x)
        ry = _brute_force_ranks(y)
        d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
        closed_form = 1 - 6 * d2 / (n * (n * n - 1))
        assert abs(rho - closed_form) <= 1e-12, f"trial {trial}"
    for trial in range(1000):
        n = rng.randint(3, 50)
        x = [rng.randint(0, 8) for _ in range(n)]
        y = [rng.randint(0, 8) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        rho = spearman(x, y).rho
        oracle = _plain_pearson(_brute_force_ranks(x), _brute_force_ranks(y))
        assert abs(rho - oracle) <= 1e-10, f"tied trial {trial}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"spearman oracle suite took {elapsed:.3f}s"
    _report("2 spearman-oracle-equivalence", f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: student-t accuracy


def test_criterion_3_student_t_accuracy():
    cauchy = 0.5 + math.atan(1.0) / math.pi  # exactly 0.75
    assert abs(student_t_cdf(1.0, 1) - cauchy) <= 1e-10
    assert abs(student_t_cdf(1.0, 1) - 0.75) <= 1e-10
    for i in range(10_000):
        t = -50.0 + i * (100.0 / 9_999)
        for df in (1, 7, 240):
            assert abs(student_t_cdf(t, df) + student_t_cdf(-t, df) - 1.0) <= 1e-10
    _report("3 student-t-accuracy")


# ---------------------------------------------------------------------------
# criteria 4-7: public dataset reproductions (conditional)


@pytest.fixture(scope="module")
def dataset_set():
    root = os.environ.get(DATASET_ENV)
    if not root:
        pytest.skip(f"{DATASET_ENV} not set; public dataset not fetched")
    manifest_path = os.path.join(root, "manifest.csv")
    manifest = load_manifest(manifest_path)
    return ingest(manifest, root, jobs=os.cpu_count() or 1)


def test_criterion_4_label_correlation_reproduction(dataset_set):
    started = time.perf_counter()
    section = rq2_metric_vs_vulnerability(dataset_set)
    for row in section.rows:
        expected = REFERENCE_RHO[row.metric]
        assert row.result is not None, row.metric
        assert abs(row.result.rho - expected) <= 0.05, (
            f"{row.metric}: rho {row.result.rho:.4f} vs reported {expected}"
        )
        assert math.copysign(1, row.result.rho) == math.copysign(1, expected), row.metric
        assert row.result.p_value < 0.05, row.metric
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report("4 label-correlation-reproduction", f"{elapsed:.1f}s")


def test_criterion_5_discriminative_flag_reproduction(dataset_set):
    agreeing_seeds = 0
    for seed in range(100):
        section = rq3_discriminative(dataset_set, seed=seed)
        if all(r.discriminative for r in section.rows):
            agreeing_seeds += 1
    assert agreeing_seeds >= 95, f"only {agreeing_seeds}/100 seeds flag all 21 metrics"
    _report("5 discriminative-flag-reproduction", f"{agreeing_seeds}/100 seeds")


def test_criterion_6_rq4_direction_reproduction(dataset_set):
    section = rq4_interval_comparison(dataset_set)
    directions = {r.metric: r.direction for r in section.rows}
    higher_in_neutral = {m for m, d in directions.items() if d == HIGHER_IN_NEUTRAL}
    assert higher_in_neutral == {"avg_numpar", "cloc", "nod"}
    must_be_higher_in_vulnerable = {
        "sloc", "lloc", "nos", "cbo", "na", "noi", "wmc", "nl", "nle",
    }
    for metric in must_be_higher_in_vulnerable:
        assert directions[metric] == HIGHER_IN_VULNERABLE, metric
    _report("6 rq4-direction-reproduction")


def test_criterion_7_rq1_qualitative_reproduction(dataset_set):
    section = rq1_redundancy(dataset_set, threshold=0.9)
    pairs = {frozenset((p.metric_a, p.metric_b)) for p in section.redundant_pairs}
    for a, b in (("noa", "dit"), ("noi", "avg_noi"), ("nl", "nle")):
        assert frozenset((a, b)) in pairs, f"({a}, {b}) not flagged redundant"
    _report("7 rq1-qualitative-reproduction")


# ---------------------------------------------------------------------------
# criterion 8: dataset-independent property suites


def _random_labeled_set(seed: int):
    from test_pipeline import random_set

    return random_set(seed)


def test_criterion_8a_relabeling_swap():
    from test_pipeline import swap_labels

    s = _random_labeled_set(81)
    flipped = swap_labels(s)
    base_rq2 = rq2_metric_vs_vulnerability(s)
    flip_rq2 = rq2_metric_vs_vulnerability(flipped)
    for a, b in zip(base_rq2.rows, flip_rq2.rows):
        if a.result is None:
            assert b.result is None
        else:
            assert a.result.rho == -b.result.rho
    base_rq4 = rq4_interval_comparison(s)
    flip_rq4 = rq4_interval_comparison(flipped)
    swap = {
        HIGHER_IN_VULNERABLE: HIGHER_IN_NEUTRAL,
        HIGHER_IN_NEUTRAL: HIGHER_IN_VULNERABLE,
        "overlapping": "overlapping",
    }
    for a, b in zip(base_rq4.rows, flip_rq4.rows):
        assert b.direction == swap[a.direction]
    _report("8a relabeling-swap-negation")


def test_criterion_8b_monotone_transform_invariance():
    rng = random.Random(82)
    x = [rng.random() * 40 for _ in range(60)]
    y = [rng.random() * 40 for _ in range(60)]
    base = spearman(x, y).rho
    for transform in (math.exp, lambda v: 3.5 * v + 11, lambda v: v**3):
        assert spearman([transform(v) for v in x], y).rho == base
    base_ranks = rank(x).ranks
    assert rank([math.exp(v) for v in x]).ranks == base_ranks
    _report("8b monotone-transform-invariance")


def test_criterion_8c_t_test_antisymmetry():
    rng = random.Random(83)
    for _ in range(50):
        n = rng.randint(2, 30)
        x = [rng.gauss(0, 3) for _ in range(n)]
        y = [rng.gauss(1, 2) for _ in range(n)]
        try:
            a = paired_t_test(x, y)
            b = paired_t_test(y, x)
        except Exception:
            continue
        assert abs(a.t_statistic + b.t_statistic) <= 1e-12
        assert a.p_value == b.p_value
    _report("8c t-test-antisymmetry")


def test_criterion_8d_ci_nesting():
    rng = random.Random(84)
    for _ in range(50):
        values = [rng.gauss(5, 2) for _ in range(rng.randint(2, 40))]
        inner = mean_confidence_interval(values, 0.95)
        outer = mean_confidence_interval(values, 0.99)
        assert outer.lower <= inner.lower <= inner.upper <= outer.upper
    _report("8d confidence-interval-nesting")


def test_criterion_8e_dedupe_idempotence(tmp_path):
    files = {}
    entries = []
    for i in range(6):
        body = f"contract C{i} {{\n  uint a;\n  function f() public {{ a = {i}; }}\n}}"
        files[f"c{i}.sol"] = body
        entries.append((f"c{i}.sol", f"C{i}", "neutral" if i % 2 else "vulnerable"))
    root = tmp_path / "src"
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
        (root / ("dup_" + name)).write_text(text, encoding="utf-8")
    plain_lines = ["file,contract,label,type"] + [f"{f},{c},{l}," for f, c, l in entries]
    dup_lines = plain_lines + [f"dup_{f},{c},{l}," for f, c, l in entries]
    plain_manifest = tmp_path / "plain.csv"
    dup_manifest = tmp_path / "dup.csv"
    plain_manifest.write_text("\n".join(plain_lines) + "\n", encoding="utf-8")
    dup_manifest.write_text("\n".join(dup_lines) + "\n", encoding="utf-8")
    plain = ingest(load_manifest(str(plain_manifest)), str(root))
    doubled = ingest(load_manifest(str(dup_manifest)), str(root))
    assert [(r.contract_id, r.metrics, r.label) for r in plain.rows] == [
        (r.contract_id, r.metrics, r.label) for r in doubled.rows
    ]
    assert len(doubled.diagnostics) == 6
    _report("8e dedupe-idempotence")


def test_criterion_8f_full_run_determinism_across_jobs(tmp_path, pooled):
    from solmetrics.cli import main

    root = tmp_path / "src"
    root.mkdir()
    lines = ["file,contract,label,type"]
    for i in range(5):
        (root / f"v{i}.sol").write_text(
            f"contract V{i} {{\n  uint x;\n  function f(uint a) public {{"
            f" if (a > {i}) {{ x = a; }} }}\n}}",
            encoding="utf-8",
        )
        lines.append(f"v{i}.sol,V{i},vulnerable,RE")
    for i in range(11):
        (root / f"n{i}.sol").write_text(
            f"contract N{i} {{\n  uint y;\n  function g() public {{ y = {i}; }}\n}}",
            encoding="utf-8",
        )
        lines.append(f"n{i}.sol,N{i},neutral,")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    blobs = []
    for jobs in ("1", "2", "4"):
        out = tmp_path / f"out{jobs}"
        code = main(
            [
                "analyze",
                "--manifest", str(manifest),
                "--root", str(root),
                "--out", str(out),
                "--jobs", jobs,
            ]
        )
        assert code == 0
        payload = {
            name: (out / name).read_bytes()
            for name in sorted(os.listdir(out))
            if name != "run_manifest.json"
        }
        blobs.append(payload)
    assert pooled == [2, 4]
    assert blobs[0] == blobs[1] == blobs[2]
    manifest_0 = json.loads((tmp_path / "out1" / "run_manifest.json").read_text())
    assert set(manifest_0["outputs"]) == {n for n in blobs[0]}
    _report("8f full-run-determinism-across-jobs")


def test_criterion_8g_full_report_determinism():
    s = _random_labeled_set(88)
    config = RunConfig(seed=42)
    r1 = run_analysis(s, config)
    r2 = run_analysis(s, config)
    assert r1 == r2
    _report("8g full-report-determinism")
