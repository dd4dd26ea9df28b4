from __future__ import annotations

import json
import random

import pytest

from golden_corpus import GOLDEN
from solmetrics import stats
from solmetrics.corpus import ContractRow, LabeledContractSet, ingest, load_manifest
from solmetrics.errors import InputError
from solmetrics.metrics import METRIC_NAMES, ContractMetrics
from solmetrics.pipeline import (
    HIGHER_IN_NEUTRAL,
    HIGHER_IN_VULNERABLE,
    OVERLAPPING,
    RedundancyFinding,
    RedundantPair,
    Rq2Row,
    Rq3Row,
    Rq4Row,
    RunConfig,
    metric_columns,
    rq1_redundancy,
    rq2_metric_vs_vulnerability,
    rq3_discriminative,
    rq4_interval_comparison,
    run_analysis,
)
from solmetrics.stats import ConfidenceInterval, SpearmanResult, TTestResult

_INT_METRICS = set(METRIC_NAMES[:15])


def _metrics_from_values(values: dict[str, float]) -> ContractMetrics:
    kwargs = {}
    for name in METRIC_NAMES:
        v = values.get(name, 0)
        kwargs[name] = int(v) if name in _INT_METRICS else float(v)
    return ContractMetrics(**kwargs)


def make_set(vuln: list[dict], neut: list[dict]) -> LabeledContractSet:
    rows = []
    for i, values in enumerate(vuln):
        rows.append(ContractRow(f"v{i}.sol", "C", _metrics_from_values(values), "vulnerable"))
    for i, values in enumerate(neut):
        rows.append(ContractRow(f"n{i}.sol", "C", _metrics_from_values(values), "neutral"))
    return LabeledContractSet(rows)


def random_set(seed: int, n_vuln: int = 15, n_neut: int = 40, shift: float = 4.0):
    rng = random.Random(seed)

    def row(offset):
        return {
            name: rng.randint(0, 20) + (offset if i < 15 else offset / 3)
            for i, name in enumerate(METRIC_NAMES)
        }

    return make_set([row(shift) for _ in range(n_vuln)], [row(0) for _ in range(n_neut)])


def swap_labels(contract_set: LabeledContractSet) -> LabeledContractSet:
    flipped = [
        ContractRow(
            r.file,
            r.contract,
            r.metrics,
            "neutral" if r.label == "vulnerable" else "vulnerable",
            r.vuln_type,
        )
        for r in contract_set.rows
    ]
    return LabeledContractSet(flipped)


# ---------------------------------------------------------------------------
# rq1


def test_rq1_identical_columns_reported():
    # nl == nle in every row; both groups vary
    vuln = [{"nl": v, "nle": v, "sloc": v + 1} for v in (1, 5, 2, 8)]
    neut = [{"nl": v, "nle": v, "sloc": v + 2} for v in (2, 9, 4, 4, 7)]
    section = rq1_redundancy(make_set(vuln, neut))
    pairs = {(p.metric_a, p.metric_b) for p in section.redundant_pairs}
    assert ("nl", "nle") in pairs
    pair = next(p for p in section.redundant_pairs if (p.metric_a, p.metric_b) == ("nl", "nle"))
    assert all(f.rho == 1.0 for f in pair.findings)


def test_rq1_independent_columns_empty_and_matches_oracle():
    rng = random.Random(5)
    vuln = [{"sloc": rng.random() * 50, "cbo": rng.random() * 50} for _ in range(60)]
    neut = [{"sloc": rng.random() * 50, "cbo": rng.random() * 50} for _ in range(60)]
    contract_set = make_set(vuln, neut)
    section = rq1_redundancy(contract_set)
    assert section.redundant_pairs == ()
    from solmetrics.stats import spearman

    v_sloc = [r.metrics.sloc for r in contract_set.rows if r.label == "vulnerable"]
    v_cbo = [r.metrics.cbo for r in contract_set.rows if r.label == "vulnerable"]
    cell = section.vulnerable.entry("sloc", "cbo")
    assert cell.rho == pytest.approx(spearman(v_sloc, v_cbo).rho, abs=1e-12)


def test_rq1_small_group_is_error():
    with pytest.raises(InputError):
        rq1_redundancy(make_set([{"sloc": 1}, {"sloc": 2}], [{"sloc": 1}] * 5))


def test_rq1_matrices_symmetric_unit_diagonal():
    section = rq1_redundancy(random_set(1))
    for matrix in (section.vulnerable, section.neutral):
        k = len(matrix.metric_ids)
        for i in range(k):
            row_i = matrix.entries[i]
            if row_i[i] is not None:
                assert row_i[i].rho == 1.0
            for j in range(k):
                a, b = matrix.entries[i][j], matrix.entries[j][i]
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.rho == b.rho


def test_rq1_threshold_plumbing():
    s = random_set(2)
    strict = rq1_redundancy(s, threshold=0.999)
    loose = rq1_redundancy(s, threshold=0.1)
    assert len(loose.redundant_pairs) >= len(strict.redundant_pairs)


def test_rq1_pair_list_unordered_unique():
    section = rq1_redundancy(random_set(3), threshold=0.2)
    seen = set()
    for p in section.redundant_pairs:
        key = frozenset((p.metric_a, p.metric_b))
        assert key not in seen
        seen.add(key)


# ---------------------------------------------------------------------------
# rq2


def test_rq2_metric_equal_to_label():
    vuln = [{"sloc": 1, "nf": v} for v in (3, 1, 4, 1, 5)]
    neut = [{"sloc": 0, "nf": v} for v in (2, 6, 5, 3, 5)]
    section = rq2_metric_vs_vulnerability(make_set(vuln, neut))
    by_name = {r.metric: r.result for r in section.rows}
    assert by_name["sloc"].rho == 1.0
    assert by_name["sloc"].p_value == 0.0


def test_rq2_constant_column_flagged_not_fatal():
    constant = make_set(
        [{"sloc": i} for i in range(5)], [{"sloc": i + 1} for i in range(6)]
    )
    section = rq2_metric_vs_vulnerability(constant)
    by_name = {r.metric: r.result for r in section.rows}
    assert by_name["wmc"] is None  # constant zero column
    assert by_name["sloc"] is not None


def test_rq2_every_metric_exactly_once():
    section = rq2_metric_vs_vulnerability(random_set(6))
    assert [r.metric for r in section.rows] == list(METRIC_NAMES)


def test_rq2_relabel_swap_negates_rho():
    s = random_set(7)
    base = rq2_metric_vs_vulnerability(s)
    flipped = rq2_metric_vs_vulnerability(swap_labels(s))
    for a, b in zip(base.rows, flipped.rows):
        if a.result is None:
            assert b.result is None
            continue
        assert a.result.rho == -b.result.rho


def test_rq2_single_label_rejected():
    with pytest.raises(InputError):
        rq2_metric_vs_vulnerability(make_set([{"sloc": 1}, {"sloc": 2}], []))


def test_rq2_invariant_under_monotone_column_transform():
    s = random_set(20)
    base = rq2_metric_vs_vulnerability(s)
    cubed = LabeledContractSet(
        rows=[
            ContractRow(
                r.file,
                r.contract,
                _metrics_from_values(
                    {
                        name: (getattr(r.metrics, name) ** 3 if name == "avg_nos" else getattr(r.metrics, name))
                        for name in METRIC_NAMES
                    }
                ),
                r.label,
                r.vuln_type,
            )
            for r in s.rows
        ]
    )
    transformed = rq2_metric_vs_vulnerability(cubed)
    base_row = next(r for r in base.rows if r.metric == "avg_nos")
    new_row = next(r for r in transformed.rows if r.metric == "avg_nos")
    assert new_row.result.rho == base_row.result.rho


# ---------------------------------------------------------------------------
# rq3


def test_rq3_constant_groups_not_discriminative():
    s = make_set([{"sloc": 7}] * 4, [{"sloc": 7}] * 9)
    section = rq3_discriminative(s, seed=42)
    row = next(r for r in section.rows if r.metric == "sloc")
    assert row.paired.t_statistic == 0.0
    assert row.paired.p_value == 1.0
    assert row.paired.zero_variance
    assert not row.discriminative


def test_rq3_shifted_groups_discriminative():
    section = rq3_discriminative(random_set(8, shift=15.0), seed=42)
    row = next(r for r in section.rows if r.metric == "sloc")
    assert row.discriminative
    assert row.welch is not None and row.welch.p_value < 0.05


def test_rq3_deterministic_per_seed():
    s = random_set(9)
    a = rq3_discriminative(s, seed=123)
    b = rq3_discriminative(s, seed=123)
    assert a == b
    c = rq3_discriminative(s, seed=124)
    stats_a = [r.paired.t_statistic for r in a.rows if r.paired]
    stats_c = [r.paired.t_statistic for r in c.rows if r.paired]
    assert stats_a != stats_c


def test_rq3_sample_size_and_shared_draw():
    s = random_set(10, n_vuln=6, n_neut=20)
    section = rq3_discriminative(s, seed=5)
    assert section.sample_size == 6
    assert section.seed == 5


def test_rq3_requires_enough_vulnerable():
    with pytest.raises(InputError):
        rq3_discriminative(make_set([{"sloc": 1}], [{"sloc": 2}] * 5), seed=1)


def test_rq3_degenerate_metric_reported_not_fatal():
    # constant difference of 2 on every pair for sloc
    s = make_set([{"sloc": 9, "nf": i} for i in (1, 5, 3)], [{"sloc": 7, "nf": i} for i in (2, 2, 8)])
    section = rq3_discriminative(s, seed=42)
    row = next(r for r in section.rows if r.metric == "sloc")
    assert row.degenerate and row.paired is None


def test_rq3_significance_threshold_plumbed():
    s = random_set(11, shift=2.0)
    strict = rq3_discriminative(s, seed=42, alpha=1e-12)
    assert not any(r.discriminative for r in strict.rows)


# ---------------------------------------------------------------------------
# rq4


def test_rq4_identical_groups_overlap():
    rows = [{"sloc": v} for v in (1, 2, 3, 4, 5)]
    section = rq4_interval_comparison(make_set(rows, list(rows)))
    assert all(r.direction == OVERLAPPING for r in section.rows)


def test_rq4_separated_groups_directions():
    vuln = [{"sloc": 100 + i, "cloc": i} for i in range(8)]
    neut = [{"sloc": i, "cloc": 100 + i} for i in range(8)]
    section = rq4_interval_comparison(make_set(vuln, neut))
    by_name = {r.metric: r.direction for r in section.rows}
    assert by_name["sloc"] == HIGHER_IN_VULNERABLE
    assert by_name["cloc"] == HIGHER_IN_NEUTRAL


def test_rq4_relabel_swap_flips_directions():
    s = random_set(12, shift=12.0)
    base = rq4_interval_comparison(s)
    flipped = rq4_interval_comparison(swap_labels(s))
    swap = {
        HIGHER_IN_VULNERABLE: HIGHER_IN_NEUTRAL,
        HIGHER_IN_NEUTRAL: HIGHER_IN_VULNERABLE,
        OVERLAPPING: OVERLAPPING,
    }
    for a, b in zip(base.rows, flipped.rows):
        assert b.direction == swap[a.direction]


def test_rq4_level_plumbed():
    s = random_set(13)
    narrow = rq4_interval_comparison(s, level=0.5)
    wide = rq4_interval_comparison(s, level=0.999)
    for a, b in zip(narrow.rows, wide.rows):
        assert a.vulnerable.upper - a.vulnerable.lower <= b.vulnerable.upper - b.vulnerable.lower


def test_rq4_small_group_rejected():
    with pytest.raises(InputError):
        rq4_interval_comparison(make_set([{"sloc": 1}], [{"sloc": 1}] * 4))


# ---------------------------------------------------------------------------
# full report


def test_run_analysis_deterministic(tmp_path):
    from solmetrics.reports import write_report

    s = random_set(14)
    config = RunConfig(seed=42, output_dir="")
    r1 = run_analysis(s, config)
    r2 = run_analysis(s, config)
    h1 = write_report(r1, str(tmp_path / "a"), ("csv", "json", "md"))
    h2 = write_report(r2, str(tmp_path / "b"), ("csv", "json", "md"))
    assert h1 == h2


def test_run_analysis_report_structure():
    s = random_set(15)
    report = run_analysis(s, RunConfig(seed=7))
    assert report.counts == (15, 40)
    assert report.config["seed"] == 7
    assert [r.metric for r in report.rq2.rows] == list(METRIC_NAMES)
    assert [r.metric for r in report.rq3.rows] == list(METRIC_NAMES)
    assert [r.metric for r in report.rq4.rows] == list(METRIC_NAMES)


def test_report_json_holds_every_row_and_result_as_an_object(make_corpus):
    # The rows and results are NamedTuples, which json.dump would write as
    # lists; report_to_dict must turn each into an object keyed by its fields.
    from solmetrics.reports import report_to_dict

    files = {f"{name}.sol": source for name, (source, _) in GOLDEN.items()}
    keys = [(f"{name}.sol", c) for name, (_, expected) in sorted(GOLDEN.items()) for c in expected]
    entries = [
        (file, contract, *(("vulnerable", "RE") if i % 3 == 0 else ("neutral", None)))
        for i, (file, contract) in enumerate(sorted(keys))
    ]
    manifest, root = make_corpus(files, entries)
    report = run_analysis(ingest(load_manifest(manifest), root), RunConfig(seed=1))
    payload = json.loads(json.dumps(report_to_dict(report)))

    def is_object_of(value, cls) -> bool:
        return isinstance(value, dict) and list(value) == list(cls._fields)

    def is_object_or_null(value, cls) -> bool:
        return value is None or is_object_of(value, cls)

    pairs = payload["rq1"]["redundant_pairs"]
    assert pairs and all(is_object_of(p, RedundantPair) for p in pairs)
    assert all(is_object_of(f, RedundancyFinding) for p in pairs for f in p["findings"])
    rows = {key: payload[key]["rows"] for key in ("rq2", "rq3", "rq4")}
    assert all(len(r) == len(METRIC_NAMES) for r in rows.values())
    for row in rows["rq2"]:
        assert is_object_of(row, Rq2Row) and is_object_or_null(row["result"], SpearmanResult)
    for row in rows["rq3"]:
        assert is_object_of(row, Rq3Row)
        assert all(is_object_or_null(row[k], TTestResult) for k in ("paired", "welch"))
    for row in rows["rq4"]:
        assert is_object_of(row, Rq4Row)
        assert all(is_object_of(row[k], ConfidenceInterval) for k in ("vulnerable", "neutral"))


def test_run_analysis_ranks_each_column_once(monkeypatch):
    # one tally per pooled column, the label and each group column: rq2 ranks
    # the label once, not once per metric
    tallies = []

    class CountingCounter(stats.Counter):
        def __init__(self, *args):
            tallies.append(1)
            super().__init__(*args)

    monkeypatch.setattr(stats, "Counter", CountingCounter)
    run_analysis(random_set(16), RunConfig(seed=3))
    assert len(tallies) == 21 + 1 + 42


def test_rq4_reuses_the_moments_rq3_computed(monkeypatch):
    columns = metric_columns(random_set(17))
    rq3_discriminative(columns, seed=3)
    calls = []
    fsum = stats.math.fsum
    monkeypatch.setattr(stats.math, "fsum", lambda values: calls.append(1) or fsum(values))
    rq4_interval_comparison(columns)
    assert calls == []


def test_shared_columns_give_the_same_sections_in_any_order():
    # the summaries a column caches, and rq3's draw from it, leave each
    # analysis as it is on the labeled set
    data = random_set(18)
    analyses = [
        lambda d: rq1_redundancy(d, 0.5),
        rq2_metric_vs_vulnerability,
        lambda d: rq3_discriminative(d, seed=5),
        rq4_interval_comparison,
    ]
    expected = [run(data) for run in analyses]
    columns = metric_columns(data)
    assert [run(columns) for run in reversed(analyses)] == expected[::-1]
    assert [run(columns) for run in analyses] == expected


def test_run_config_validation():
    with pytest.raises(InputError):
        RunConfig(ci_level=1.5)
    with pytest.raises(InputError):
        RunConfig(significance=0.0)
    with pytest.raises(InputError):
        RunConfig(redundancy_threshold=0.0)
    with pytest.raises(InputError):
        RunConfig(formats=("xml",))
