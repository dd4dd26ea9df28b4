"""Run one solmetrics CLI command in-process, optionally with layer spans.

    python perfbench/trace_child.py {traced|plain} RESULT.json STDOUT STDERR -- CLI ARGS...

Run it with ``src`` on ``PYTHONPATH``. In ``traced`` mode every public
entry point of a layer is wrapped where its caller looks it up (for
example ``corpus.tokenize`` or ``cli.contract_metrics``), so nothing
under ``src/`` changes. Each span knows its parent through a stack;
a span's self time is its duration minus the time of its child spans.
``plain`` mode runs the same command unwrapped, so the difference in
total time is the tracing overhead. Spans do not cross a process pool:
run the command with ``--jobs 1``.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout


class Tracer:
    """Aggregates spans by layer name; keeps only sums, counts and a few results."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.file = ""  # the file _parse_sol_file is working on
        self.line_accounting_by_file: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        self.parsed: list = []
        self.graphs: list = []

    def wrap(self, owner, attr: str, layer: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``layer`` span."""
        fn = getattr(owner, attr)
        stack = self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[layer] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                own = duration - frame[0]
                self.self_s[layer] += own
                self.total_s[layer] += duration
                self.calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, result, own)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        from solmetrics import cli, corpus, pipeline
        from solmetrics.inheritance import InheritanceGraph

        def set_file(args):
            self.file = args[0][1]

        def keep_parsed(args, result, own):
            self.parsed.append(result)

        def count_tokens(args, result, own):
            self.counts["tokens"] += len(result)

        def count_parse(args, result, own):
            self.counts["contracts"] += len(result.contracts)
            self.counts["diagnostics"] += len(result.diagnostics)

        def per_file(args, result, own):
            entry = self.line_accounting_by_file[self.file]
            entry[0] += own
            entry[1] += 1

        def keep_graph(args, result, own):
            self.graphs.append(result)

        self.wrap(cli, "main", "cli")
        self.wrap(cli, "load_manifest", "manifest")
        for owner, attr in ((cli, "ingest"), (cli, "parse_files"), (corpus, "parse_files")):
            self.wrap(owner, attr, "corpus")
        self.wrap(corpus, "_parse_sol_file", "corpus", before=set_file, after=keep_parsed)
        self.wrap(corpus, "tokenize", "lexer", after=count_tokens)
        self.wrap(corpus, "parse_file", "parser", after=count_parse)
        self.wrap(corpus, "line_accounting", "line_accounting", after=per_file)
        self.wrap(corpus, "normalized_contract_text", "dedupe")
        for owner in (cli, corpus):
            self.wrap(owner, "build_inheritance_graph", "inheritance.build", after=keep_graph)
            self.wrap(owner, "contract_metrics", "metrics")
        for attr in ("dit", "noa", "nod"):
            self.wrap(InheritanceGraph, attr, "inheritance.query")
        self.wrap(cli, "run_analysis", "pipeline")
        for key, attr in (
            ("rq1", "rq1_redundancy"),
            ("rq2", "rq2_metric_vs_vulnerability"),
            ("rq3", "rq3_discriminative"),
            ("rq4", "rq4_interval_comparison"),
        ):
            self.wrap(pipeline, attr, f"pipeline.{key}")
        for attr in ("write_report", "write_run_manifest"):
            self.wrap(cli, attr, "reports")

    def summary(self) -> dict:
        """Span sums plus the facts measured after the run, outside any span."""
        ipc = [len(pickle.dumps(pf)) for pf in self.parsed]
        edges = sum(len(g.edges) for g in self.graphs)
        unresolved = sum(len(g.unresolved_bases) for g in self.graphs)
        return {
            "self_s": dict(self.self_s),
            "span_s": dict(self.total_s),
            "calls": dict(self.calls),
            "raised": dict(self.raised),
            "counts": dict(self.counts),
            "line_accounting_by_file": dict(self.line_accounting_by_file),
            "ipc_bytes_per_file": sum(ipc) / len(ipc) if ipc else 0.0,
            "base_refs": edges + unresolved,
            "unresolved_refs": unresolved,
        }


def main() -> int:
    mode, result_path, stdout_path, stderr_path, sep, *argv = sys.argv[1:]
    if mode not in ("traced", "plain") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    from solmetrics import cli

    tracer = Tracer()
    if mode == "traced":
        tracer.install()
    with open(stdout_path, "w", encoding="utf-8") as out, open(
        stderr_path, "w", encoding="utf-8"
    ) as err, redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        total = time.perf_counter() - start
    result = {"rc": rc, "run_s": total}
    if mode == "traced":
        result.update(tracer.summary())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
