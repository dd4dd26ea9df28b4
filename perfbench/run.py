"""Corpus-shape benchmark for solmetrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/solmetrics`` and
``tests/``. It generates the workload's corpus from the seed (see
``corpus_gen.py``), then for about S seconds runs rounds of:

* one fresh interpreter that only imports ``solmetrics.cli`` (set-up);
* ``python -m solmetrics.cli`` at ``--jobs 1`` and at ``--jobs N``, in
  alternating order, each a fresh subprocess as a user would start it.

Every CLI run passes a correctness gate or counts as failed: exit code
and skip diagnostics equal what the generator planted, and the output
bytes equal those of the first ``--jobs 1`` run. Once per benchmark run
the exported metric vectors of all golden-derived contracts are compared
with the vectors the generator expects (hand-counted ones from
``tests/golden_corpus.py``; inheritance metrics computed by the
generator for the ``imported_bases`` contracts).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports
per-layer metrics from in-process runs at ``--jobs 1`` wrapped by
``trace_child.py``, next to unwrapped in-process runs for the tracing
overhead. Human-readable lines come first; the last line of standard
output is one JSON object. Only the benchmark's own processes are
measured: no cache dropping, CPU pinning or system-wide tracing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus_gen  # noqa: E402

REQUIRED = (
    os.path.join("src", "solmetrics", "cli.py"),
    os.path.join("tests", "golden_corpus.py"),
    os.path.join("tests", "test_realworld.py"),
)

COMMANDS = {"small_files": "analyze", "flattened": "analyze", "imported_bases": "metrics"}

# A child still running after this long is killed with its pool workers and
# its run counts as failed, so the benchmark ends within its time limit.
CHILD_TIMEOUT_S = 60

# Layers the ``metrics`` command never enters; on a ``metrics`` workload
# they are traced on an ``analyze`` run over the same corpus instead.
ANALYZE_ONLY_LAYERS = ("manifest.", "pipeline.", "reports.")


def parallel_jobs() -> int:
    """CPUs this process may use, capped at 4; at least 2 so the pool runs."""
    return max(2, min(4, len(os.sched_getaffinity(0))))


class Bench:
    """One generated corpus plus the gated runs made over it."""

    def __init__(self, workload: str, seed: int, work: str):
        self.command = COMMANDS[workload]
        self.work = work
        self.env = dict(os.environ)
        src = os.path.join(REPO, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.corpus = corpus_gen.generate(workload, seed, os.path.join(work, "src"), REPO)
        self.references: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    # -- running -------------------------------------------------------------

    def cli_args(self, command: str, jobs: int, tag: str) -> list[str]:
        if command == "analyze":
            return ["analyze", "--manifest", "manifest.csv", "--root", "src",
                    "--out", f"out_{tag}", "--jobs", str(jobs)]
        return ["metrics", "--jobs", str(jobs)] + [
            os.path.join("src", f) for f in self.corpus.files
        ]

    def spawn(self, argv: list[str], tag: str) -> tuple[float, int, float]:
        """Run a fresh interpreter; returns (wall s, exit code, peak RSS MB).

        The child is reaped with ``os.wait4`` so that its own peak RSS is
        read, not the maximum over every child this process ever had."""
        shutil.rmtree(os.path.join(self.work, f"out_{tag}"), ignore_errors=True)
        with open(os.path.join(self.work, f"{tag}.stdout"), "wb") as out, open(
            os.path.join(self.work, f"{tag}.stderr"), "wb"
        ) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err, start_new_session=True)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def setup_probe(self) -> float:
        wall, rc, _ = self.spawn(["-c", "import solmetrics.cli"], "setup")
        if rc != 0:
            raise SystemExit(f"importing solmetrics.cli failed:\n{self.read('setup.stderr')}")
        return wall

    def run_cli(self, jobs: int, tag: str) -> tuple[float, float] | None:
        """One gated CLI run; returns (wall s, peak RSS MB) or None if it failed."""
        self.attempted += 1
        argv = ["-m", "solmetrics.cli"] + self.cli_args(self.command, jobs, tag)
        wall, rc, rss = self.spawn(argv, tag)
        problems = self.check_run(self.command, rc, tag)
        if problems:
            self.failures.append(f"--jobs {jobs}: " + "; ".join(problems))
            return None
        return wall, rss

    def run_inprocess(self, mode: str, command: str, tag: str) -> dict:
        """One gated in-process run at --jobs 1 through trace_child.py."""
        result_path = os.path.join(self.work, f"{tag}.json")
        argv = [os.path.join(HERE, "trace_child.py"), mode, result_path,
                f"{tag}.stdout", f"{tag}.stderr", "--"] + self.cli_args(command, 1, tag)
        shutil.rmtree(os.path.join(self.work, f"out_{tag}"), ignore_errors=True)
        proc = subprocess.run([sys.executable] + argv, cwd=self.work, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"in-process {mode} run failed:\n{proc.stderr}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        self.attempted += 1
        problems = self.check_run(command, result["rc"], tag)
        if problems:
            self.failures.append(f"{mode} in-process {command}: " + "; ".join(problems))
        return result

    # -- correctness gate ----------------------------------------------------

    def read(self, name: str) -> str:
        with open(os.path.join(self.work, name), encoding="utf-8", errors="replace") as fh:
            return fh.read()

    def outputs(self, command: str, tag: str) -> list[tuple[str, str]]:
        """(name, path) of the report files (analyze) or the CSV on stdout (metrics)."""
        if command == "metrics":
            return [("stdout", os.path.join(self.work, f"{tag}.stdout"))]
        out = os.path.join(self.work, f"out_{tag}")
        names = sorted(os.listdir(out)) if os.path.isdir(out) else []
        return [(n, os.path.join(out, n)) for n in names]

    def output_digest(self, command: str, tag: str) -> str:
        digest = hashlib.sha256()
        for name, path in self.outputs(command, tag):
            with open(path, "rb") as fh:
                digest.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
        return digest.hexdigest()

    def output_bytes(self, command: str, tag: str) -> int:
        return sum(os.path.getsize(path) for _, path in self.outputs(command, tag))

    def skip_counts(self, command: str, tag: str) -> dict[str, int]:
        """Diagnostics on stderr, by the kind the generator planted."""
        counts = dict.fromkeys(
            ("lex_error_entries", "lex_error_files", "not_found_entries",
             "duplicate_entries", "parse_diagnostics", "tracebacks"), 0)
        for line in self.read(f"{tag}.stderr").splitlines():
            if command == "analyze" and ": skipped (lex error" in line:
                counts["lex_error_entries"] += 1
            elif command == "metrics" and ":1: lex error:" in line:
                counts["lex_error_files"] += 1
            elif ": skipped (contract not found)" in line:
                counts["not_found_entries"] += 1
            elif ": duplicate of " in line:
                counts["duplicate_entries"] += 1
            elif line.startswith("Traceback"):
                counts["tracebacks"] += 1
            elif line.strip():
                counts["parse_diagnostics"] += 1
        return counts

    def check_run(self, command: str, rc: int, tag: str) -> list[str]:
        problems = []
        if rc != 2:
            problems.append(f"exit code {rc}, expected 2 (planted diagnostics)")
        counts = self.skip_counts(command, tag)
        planted = dict(self.corpus.planted, tracebacks=0)
        if command == "analyze":
            keys = ("lex_error_entries", "not_found_entries", "duplicate_entries")
        else:  # metrics reports files, neither looks up entries nor dedupes
            keys = ("lex_error_files",)
        for key in keys + ("parse_diagnostics", "tracebacks"):
            if counts[key] != planted[key]:
                problems.append(f"{key}: {counts[key]} seen, {planted[key]} planted")
        digest = self.output_digest(command, tag)
        reference = self.references.setdefault(command, digest)
        if digest != reference:
            problems.append("output bytes differ from the first run")
        return problems

    def error_share(self, tag: str) -> float:
        counts = self.skip_counts(self.command, tag)
        errors = counts["lex_error_entries"] + counts["lex_error_files"] + counts["not_found_entries"]
        return errors / self.corpus.entries(self.command)

    def golden_check(self) -> None:
        """Compare every golden-derived contract's exported vector with the expected one."""
        if self.command == "analyze":
            self.attempted += 1
            argv = ["-m", "solmetrics.cli", "export", "--manifest", "manifest.csv",
                    "--root", "src", "--out", "out_export", "--format", "csv"]
            _, rc, _ = self.spawn(argv, "export")
            table = os.path.join(self.work, "out_export", "metrics.csv")
            if rc != 2 or not os.path.exists(table):
                self.failures.append(f"export exited {rc}")
                return
        else:
            table = os.path.join(self.work, "j1.stdout")
        with open(table, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            start = header.index(corpus_gen.METRIC_NAMES[0])
            rows = {
                (os.path.relpath(r[0], "src") if self.command == "metrics" else r[0], r[1]):
                    r[start:start + len(corpus_gen.METRIC_NAMES)]
                for r in reader
            }
        wrong = []
        for key, expected in self.corpus.expected.items():
            got = rows.get(key)
            if got is None or not all(
                math.isclose(float(g), e, rel_tol=1e-12, abs_tol=0.0) for g, e in zip(got, expected)
            ):
                wrong.append(f"{key[0]}:{key[1]} got {got} expected {expected}")
        present = [k for k in self.corpus.absent if k in rows]
        expected_rows = self.corpus.shape["contracts"] - len(self.corpus.absent)
        if wrong:
            self.failures.append(f"{len(wrong)} golden vectors differ, first: {wrong[0]}")
        if present:
            self.failures.append(f"{len(present)} skipped contracts were exported: {present[0]}")
        if len(rows) != expected_rows:
            self.failures.append(f"{len(rows)} rows exported, expected {expected_rows}")


# -- measurement ------------------------------------------------------------------


def measure(bench: Bench, seconds: float, traced: bool) -> dict[str, list]:
    """Rounds of set-up probe plus CLI runs until the next round would overrun."""
    jobs = parallel_jobs()
    samples: dict[str, list] = {
        k: [] for k in ("setup", "j1", "rss", "jn", "error", "traced", "plain", "analyze")
    }
    bench.setup_probe()  # warm the bytecode cache; users do not recompile every run
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    index = 0
    while index == 0 or time.perf_counter() + round_s <= deadline:
        start = time.perf_counter()
        samples["setup"].append(bench.setup_probe())
        order = [(1, "j1"), (jobs, "jn")]
        for jobs_i, tag in order if index % 2 == 0 else reversed(order):
            result = bench.run_cli(jobs_i, tag)
            if result is None:
                continue
            samples[tag].append(result[0])
            if tag == "j1":
                samples["rss"].append(result[1])
                samples["error"].append(bench.error_share("j1"))
        if index == 0:
            gate_start = time.perf_counter()
            bench.golden_check()
            start += time.perf_counter() - gate_start
        if traced:
            samples["traced"].append(bench.run_inprocess("traced", bench.command, "traced"))
            samples["plain"].append(bench.run_inprocess("plain", bench.command, "plain")["run_s"])
            if bench.command != "analyze":
                samples["analyze"].append(bench.run_inprocess("traced", "analyze", "analyze"))
        round_s = time.perf_counter() - start
        index += 1
    return samples


def end_to_end(bench: Bench, s: dict[str, list]) -> dict[str, tuple[list[float], str]]:
    """Samples of every end-to-end metric; each is reported as its median."""
    scored = bench.corpus.scored(bench.command)
    return {
        "wall_s": (s["j1"], "s"),
        "wall_parallel_s": (s["jn"], "s"),
        "contracts_per_s": ([scored / w for w in s["j1"]], "1/s"),
        "peak_rss_mb": (s["rss"], "MB"),
        "setup_s": (s["setup"], "s"),
        "error_share": (s["error"], "ratio"),
    }


def per_layer(bench: Bench, s: dict[str, list]) -> dict[str, tuple[list[float], str]]:
    """Samples of every layer metric, one per traced round."""
    wall = statistics.median(s["j1"])
    setup = statistics.median(s["setup"])
    plain = statistics.median(s["plain"])
    rows = [layer_metrics(bench, bench.command, t, "traced", plain, wall, setup)
            for t in s["traced"]]
    for row, t in zip(rows, s["analyze"]):
        other = layer_metrics(bench, "analyze", t, "analyze", plain, wall, setup)
        row.update({k: v for k, v in other.items() if k.startswith(ANALYZE_ONLY_LAYERS)})
    out = {name: ([r[name][0] for r in rows], unit) for name, (_, unit) in rows[0].items()}
    out["parse_files.parallel_speedup"] = ([wall / statistics.median(s["jn"])], "ratio")
    return out


def layer_metrics(bench: Bench, command: str, t: dict, tag: str,
                  plain: float, wall: float, setup: float) -> dict[str, tuple[float, str]]:
    self_s, span_s, calls, counts = t["self_s"], t["span_s"], t["calls"], t["counts"]

    def own(layer: str) -> float:
        return self_s.get(layer, 0.0)

    overhead = t["run_s"] / plain - 1.0
    duplicates = bench.skip_counts(command, tag)["duplicate_entries"]
    return {
        "lexer.self_s": (own("lexer"), "s"),
        "lexer.tokens": (counts.get("tokens", 0), "count"),
        "lexer.tokens_per_s": (counts.get("tokens", 0) / own("lexer"), "1/s"),
        "lexer.errors": (t["raised"].get("lexer", 0), "count"),
        "parser.self_s": (own("parser"), "s"),
        "parser.contracts": (counts.get("contracts", 0), "count"),
        "parser.diagnostics": (counts.get("diagnostics", 0), "count"),
        "line_accounting.self_s": (own("line_accounting"), "s"),
        "line_accounting.calls": (calls.get("line_accounting", 0), "count"),
        "line_accounting.size_ratio": (size_ratio(t["line_accounting_by_file"]), "ratio"),
        "dedupe.self_s": (own("dedupe"), "s"),
        "dedupe.duplicate_share": (duplicates / bench.corpus.entries(command), "ratio"),
        "corpus.self_s": (own("corpus"), "s"),
        "parse_files.ipc_bytes_per_file": (t["ipc_bytes_per_file"], "B"),
        "inheritance.build_s": (span_s.get("inheritance.build", 0.0), "s"),
        "inheritance.query_self_s": (own("inheritance.query"), "s"),
        "inheritance.queries": (calls.get("inheritance.query", 0), "count"),
        "inheritance.unresolved_share": (
            t["unresolved_refs"] / t["base_refs"] if t["base_refs"] else 0.0, "ratio"),
        "metrics.self_s": (own("metrics"), "s"),
        "metrics.contracts": (calls.get("metrics", 0), "count"),
        "pipeline.rq1_s": (span_s.get("pipeline.rq1", 0.0), "s"),
        "pipeline.rq2_s": (span_s.get("pipeline.rq2", 0.0), "s"),
        "pipeline.rq3_s": (span_s.get("pipeline.rq3", 0.0), "s"),
        "pipeline.rq4_s": (span_s.get("pipeline.rq4", 0.0), "s"),
        "reports.self_s": (own("reports"), "s"),
        "reports.bytes": (bench.output_bytes(command, tag), "B"),
        "manifest.self_s": (own("manifest"), "s"),
        "cli.self_s": (own("cli"), "s"),
        "trace.overhead_share": (overhead, "ratio"),
        # traced layers, corrected for overhead, plus set-up, over the untraced wall
        "trace.wall_accounted_share": ((t["run_s"] / (1.0 + overhead) + setup) / wall, "ratio"),
    }


def size_ratio(by_file: dict[str, list[float]]) -> float:
    """Line-accounting time per contract in the files holding the most
    contracts over that in the files holding the fewest (at least two).
    Near 1 when the cost per contract does not grow with file size."""
    groups: dict[int, list[float]] = {}
    for seconds, contracts in by_file.values():
        if contracts >= 2:
            groups.setdefault(int(contracts), []).append(seconds / contracts)
    if not groups:
        return 1.0
    return statistics.mean(groups[max(groups)]) / statistics.mean(groups[min(groups)])


def describe(name: str, values: list[float], unit: str) -> str:
    median = statistics.median(values)
    line = f"  {name:<32} {median:12.6g} {unit:<6} median of {len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f", q1 {q1:.6g}, q3 {q3:.6g}"
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(REPO, p))]
    if missing:
        print(f"not a solmetrics checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    work = os.path.join(REPO, ".perfbench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        generate_start = time.perf_counter()
        bench = Bench(args.workload, args.seed, work)
        shape = dict(bench.corpus.shape, generate_s=round(time.perf_counter() - generate_start, 3))
        print(f"workload {args.workload} seed {args.seed}: solmetrics {bench.command}, "
              f"--jobs 1 vs --jobs {parallel_jobs()}")
        print("shape " + json.dumps(shape, sort_keys=True))
        samples = measure(bench, args.seconds, bool(args.trace))
        if not samples["j1"] or not samples["jn"]:
            print("no CLI run passed the correctness gate:", file=sys.stderr)
            for failure in bench.failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        sampled = per_layer(bench, samples) if args.trace else end_to_end(bench, samples)
        metrics = {}
        for name, (values, unit) in sampled.items():
            print(describe(name, values, unit))
            metrics[name] = (statistics.median(values), unit)
        correct = not bench.failures
        print(f"report digest {bench.references[bench.command]}")
        print(f"correctness gate: {'PASS' if correct else 'FAIL'} "
              f"({bench.attempted} runs, {len(bench.failures)} failed)")
        for failure in bench.failures:
            print(f"  {failure}")
        print(json.dumps({
            "correct": correct,
            "attempted": bench.attempted,
            "failed": len(bench.failures),
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
