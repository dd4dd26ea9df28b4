"""Serialization of analysis reports: JSON, CSV and Markdown tables.

Every float is rendered with at least six significant digits; JSON files
carry full-precision values. Output is deterministic byte-for-byte for a
fixed report.
"""

from __future__ import annotations

import csv
import hashlib
import os
from typing import Any

from .corpus import write_json
from .metrics import DISPLAY_NAMES
from .pipeline import ANALYSES, AnalysisReport, Rq1Section, Rq2Section, Rq3Section, Rq4Section
from .stats import CorrelationMatrix


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.9g}"


def _matrix_dict(m: CorrelationMatrix) -> dict[str, Any]:
    return {
        "metrics": list(m.metric_ids),
        "rho": [[None if c is None else c.rho for c in row] for row in m.entries],
        "p_value": [[None if c is None else c.p_value for c in row] for row in m.entries],
    }


def _plain(value: Any) -> Any:
    """``value`` as JSON holds it: a NamedTuple, such as a section, row or
    test result, becomes an object keyed by its fields, any other tuple a
    list; both recursively."""
    if isinstance(value, tuple):
        items = list(map(_plain, value))
        return dict(zip(value._fields, items)) if hasattr(value, "_fields") else items
    return value


def rq1_dict(section: Rq1Section) -> dict[str, Any]:
    return {
        "threshold": section.threshold,
        "vulnerable_matrix": _matrix_dict(section.vulnerable),
        "neutral_matrix": _matrix_dict(section.neutral),
        "redundant_pairs": _plain(section.redundant_pairs),
    }


# ---------------------------------------------------------------------------
# table writers


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_md(path: str, title: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {title}\n\n")
        fh.write("| " + " | ".join(header) + " |\n")
        fh.write("|" + "|".join("---" for _ in header) + "|\n")
        for row in rows:
            fh.write("| " + " | ".join(row) + " |\n")


def _rq1_table(section: Rq1Section, display: bool) -> tuple[list[str], list[list[str]]]:
    header = ["metric_a", "metric_b", "group", "rho", "p_value", "reliable"]
    rows = []
    for pair in section.redundant_pairs:
        for f in pair.findings:
            a = DISPLAY_NAMES[pair.metric_a] if display else pair.metric_a
            b = DISPLAY_NAMES[pair.metric_b] if display else pair.metric_b
            rows.append([a, b, f.group, _fmt(f.rho), _fmt(f.p_value), str(f.reliable).lower()])
    return header, rows


def _rq2_table(section: Rq2Section, display: bool) -> tuple[list[str], list[list[str]]]:
    header = ["metric", "correlation_coefficient", "p_value", "strength", "significant"]
    rows = []
    for row in section.rows:
        name = DISPLAY_NAMES[row.metric] if display else row.metric
        if row.result is None:
            rows.append([name, "undefined", "", "", ""])
        else:
            r = row.result
            rows.append([name, _fmt(r.rho), _fmt(r.p_value), r.strength, str(r.significant).lower()])
    return header, rows


def _rq3_table(section: Rq3Section, display: bool) -> tuple[list[str], list[list[str]]]:
    header = [
        "metric",
        "discriminative",
        "p_value",
        "t_statistic",
        "welch_p_value",
        "welch_t_statistic",
    ]
    rows = []
    for row in section.rows:
        name = DISPLAY_NAMES[row.metric] if display else row.metric
        paired = row.paired
        welch = row.welch
        rows.append(
            [
                name,
                "yes" if row.discriminative else "no",
                _fmt(paired.p_value) if paired else "degenerate",
                _fmt(paired.t_statistic) if paired else "",
                _fmt(welch.p_value) if welch else "",
                _fmt(welch.t_statistic) if welch else "",
            ]
        )
    return header, rows


def _rq4_table(section: Rq4Section, display: bool) -> tuple[list[str], list[list[str]]]:
    header = [
        "metric",
        "vulnerable_mean",
        "vulnerable_lower",
        "vulnerable_upper",
        "neutral_mean",
        "neutral_lower",
        "neutral_upper",
        "direction",
    ]
    rows = []
    for row in section.rows:
        name = DISPLAY_NAMES[row.metric] if display else row.metric
        rows.append(
            [
                name,
                _fmt(row.vulnerable.mean),
                _fmt(row.vulnerable.lower),
                _fmt(row.vulnerable.upper),
                _fmt(row.neutral.mean),
                _fmt(row.neutral.lower),
                _fmt(row.neutral.upper),
                row.direction,
            ]
        )
    return header, rows


def _write_matrix_csv(path: str, matrix: CorrelationMatrix) -> None:
    header = ["metric"] + list(matrix.metric_ids)
    rows = []
    for name, row in zip(matrix.metric_ids, matrix.entries):
        rows.append([name] + [_fmt(c.rho) if c is not None else "" for c in row])
    _write_csv(path, header, rows)


_TITLES = {
    "rq1": "Cross-metric redundancy (|rho| above threshold)",
    "rq2": "Correlation between each metric and vulnerability",
    "rq3": "Paired t-test discrimination between groups",
    "rq4": "Group mean confidence intervals",
}


# rq2-rq4 serialize field by field; rq1's matrices have their own shape
_SECTION_IO = {
    "rq1": (rq1_dict, _rq1_table),
    "rq2": (_plain, _rq2_table),
    "rq3": (_plain, _rq3_table),
    "rq4": (_plain, _rq4_table),
}


def report_to_dict(report: AnalysisReport) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "config": report.config,
        "counts": {"vulnerable": report.counts[0], "neutral": report.counts[1]},
    }
    for key in ANALYSES:
        payload[key] = _SECTION_IO[key][0](getattr(report, key))
    return payload


def write_section(
    key: str,
    section: Rq1Section | Rq2Section | Rq3Section | Rq4Section,
    outdir: str,
    formats: tuple[str, ...],
) -> list[str]:
    """Write one analysis section's table files into the existing ``outdir``;
    returns written file names."""
    to_dict, to_table = _SECTION_IO[key]
    written: list[str] = []
    if "json" in formats:
        write_json(os.path.join(outdir, f"{key}.json"), to_dict(section))
        written.append(f"{key}.json")
    if "csv" in formats:
        header, rows = to_table(section, display=False)
        _write_csv(os.path.join(outdir, f"{key}.csv"), header, rows)
        written.append(f"{key}.csv")
    if "md" in formats:
        header, rows = to_table(section, display=True)
        _write_md(os.path.join(outdir, f"{key}.md"), _TITLES[key], header, rows)
        written.append(f"{key}.md")
    if key == "rq1" and "csv" in formats:
        # heatmap data for the two correlation matrices
        _write_matrix_csv(os.path.join(outdir, "rq1_rho_vulnerable.csv"), section.vulnerable)
        _write_matrix_csv(os.path.join(outdir, "rq1_rho_neutral.csv"), section.neutral)
        written.extend(["rq1_rho_vulnerable.csv", "rq1_rho_neutral.csv"])
    return written


def hash_outputs(outdir: str, names: list[str]) -> dict[str, str]:
    hashes = {}
    for name in names:
        with open(os.path.join(outdir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def write_report(report: AnalysisReport, outdir: str, formats: tuple[str, ...]) -> dict[str, str]:
    """Write report.json plus one table per analysis per requested format.

    Returns a mapping of written file names to their sha256 content hash.
    """
    os.makedirs(outdir, exist_ok=True)
    written: list[str] = []
    write_json(os.path.join(outdir, "report.json"), report_to_dict(report))
    written.append("report.json")
    for key in ANALYSES:
        written.extend(write_section(key, getattr(report, key), outdir, formats))
    return hash_outputs(outdir, written)


def write_run_manifest(
    outdir: str,
    config: dict[str, Any],
    tool_version: str,
    outputs: dict[str, str],
) -> str:
    path = os.path.join(outdir, "run_manifest.json")
    write_json(
        path,
        {"config": config, "tool_version": tool_version, "outputs": outputs},
    )
    return path
