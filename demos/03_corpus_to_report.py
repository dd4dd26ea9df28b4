"""End to end: build a tiny labeled corpus, ingest it, run all four
analyses, and write the report files, all in a temporary work directory
that is removed when the demo ends.

Run: python3 demos/03_corpus_to_report.py
"""

import os
import random
import tempfile

from solmetrics import RunConfig, ingest, load_manifest, run_analysis
from solmetrics.corpus import export_metrics
from solmetrics.metrics import DISPLAY_NAMES
from solmetrics.reports import write_report

rng = random.Random(42)


def synth_contract(name: str, heavier: bool) -> str:
    n_fns = rng.randint(2, 4) + (3 if heavier else 0)
    parts = [f"contract {name} {{", "    uint total;"]
    if not heavier:
        parts.append("    // neutral contracts carry more commentary")
        parts.append("    // documenting intent line by line")
    for i in range(n_fns):
        depth = rng.randint(1, 3) + (1 if heavier else 0)
        body = f"total += {i};"
        for d in range(depth):
            body = f"if (total > {d}) {{ {body} }}"
        parts.append(f"    function f{i}(uint a) public {{ {body} }}")
    parts.append("}")
    return "\n".join(parts)


def main(workdir: str) -> None:
    src_root = os.path.join(workdir, "contracts")
    os.makedirs(src_root)

    manifest_lines = ["file,contract,label,type"]
    for i in range(14):
        name = f"Risky{i}"
        with open(os.path.join(src_root, f"risky{i}.sol"), "w") as fh:
            fh.write(synth_contract(name, heavier=True))
        tag = rng.choice(["RE", "OF", "TP", "UC"])
        manifest_lines.append(f"risky{i}.sol,{name},vulnerable,{tag}")
    for i in range(40):
        name = f"Plain{i}"
        with open(os.path.join(src_root, f"plain{i}.sol"), "w") as fh:
            fh.write(synth_contract(name, heavier=False))
        manifest_lines.append(f"plain{i}.sol,{name},neutral,")

    manifest_path = os.path.join(workdir, "manifest.csv")
    with open(manifest_path, "w") as fh:
        fh.write("\n".join(manifest_lines) + "\n")

    # --- ingest -----------------------------------------------------------------
    manifest = load_manifest(manifest_path)
    contract_set = ingest(manifest, src_root)
    print(f"ingested {len(contract_set.rows)} contracts "
          f"({contract_set.n_vulnerable} vulnerable, {contract_set.n_neutral} neutral)")

    export_metrics(contract_set, os.path.join(workdir, "metrics.csv"), "csv")
    print("metric table written to metrics.csv in the work directory")

    # --- analyze ----------------------------------------------------------------
    config = RunConfig(
        source_root=src_root,
        manifest=manifest_path,
        output_dir=os.path.join(workdir, "report"),
        seed=42,
    )
    report = run_analysis(contract_set, config)

    print("\nmetric vs vulnerability (rq2):")
    for row in report.rq2.rows:
        if row.result is None:
            print(f"  {DISPLAY_NAMES[row.metric]:<12} undefined (constant column)")
        else:
            flag = "*" if row.result.significant else " "
            print(f"  {DISPLAY_NAMES[row.metric]:<12} rho = {row.result.rho:+.3f} {flag}")

    discriminative = [DISPLAY_NAMES[r.metric] for r in report.rq3.rows if r.discriminative]
    print(f"\ndiscriminative metrics (rq3, seed {report.rq3.seed}): {', '.join(discriminative)}")

    print("\ninterval direction (rq4):")
    for row in report.rq4.rows:
        print(f"  {DISPLAY_NAMES[row.metric]:<12} {row.direction}")

    redundant = [f"({DISPLAY_NAMES[p.metric_a]}, {DISPLAY_NAMES[p.metric_b]})"
                 for p in report.rq1.redundant_pairs]
    print(f"\nredundant pairs (rq1, |rho| > {report.rq1.threshold}): {', '.join(redundant) or 'none'}")

    files = write_report(report, config.output_dir, config.formats)
    print(f"\n{len(files)} report files under report/ (the work directory goes on exit):")
    for name in sorted(files):
        print(f"  {name}")


with tempfile.TemporaryDirectory(prefix="solmetrics_demo_") as workdir:
    main(workdir)
