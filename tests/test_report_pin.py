"""Regression pin for what the commands write: every file of ``analyze``
and ``export``, the stdout of ``metrics``, and each run's exit code and
stderr, over the three corpora ``perfbench/corpus_gen.py`` generates at
seed 1.

Each output hashes to a 12-hex-digit digest, one line per output in
``report_pin.txt``. The commands run in process at ``--jobs 1``, from
the directory that holds the corpus's ``manifest.csv`` and ``src/``, with
relative paths, so ``run_manifest.json``'s path fields read the same on
every machine and are pinned as written. A change that alters any output
byte, an exit code or a diagnostic fails here and names the outputs it
changed. Seed 1 alone keeps the test near 2 s; to compare seed 2 as well,
set ``SEEDS = (1, 2)`` in two checkouts and diff their ``--regen`` output.

The p-values go through libm ``exp``, ``log`` and ``log1p``, so a
mismatch on a platform whose libm differs from CI's is a finding about
the platform first. After an intended output change, regenerate the pin
and say in CHANGES.md which outputs moved and why:

    PYTHONPATH=src python tests/test_report_pin.py --regen
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import sys

from solmetrics.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PIN = os.path.join(REPO, "tests", "report_pin.txt")
WORKLOADS = ("small_files", "flattened", "imported_bases")
SEEDS = (1,)
CORPUS_ARGS = ["--manifest", "manifest.csv", "--root", "src", "--jobs", "1"]
RUNS = {
    "analyze": CORPUS_ARGS + ["--out", "out_analyze", "--format", "csv,json,md"],
    "export": CORPUS_ARGS + ["--out", "out_export", "--format", "csv,json"],
}


def _corpus_gen():
    """perfbench/corpus_gen.py, loaded from its file without adding perfbench to sys.path."""
    path = os.path.join(REPO, "perfbench", "corpus_gen.py")
    spec = importlib.util.spec_from_file_location("corpus_gen", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being made
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:12]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def corpus_digests(corpus_gen, workload: str, seed: int, work: str) -> dict[str, str]:
    """Generate one corpus under ``work`` and digest every output of the
    commands run over it; ``work`` is the current directory meanwhile."""
    corpus = corpus_gen.generate(workload, seed, os.path.join(work, "src"), REPO)
    runs = dict(RUNS)
    if workload == "imported_bases":
        runs["metrics"] = ["--jobs", "1"] + [os.path.join("src", f) for f in corpus.files]
    out = {}
    previous = os.getcwd()
    os.chdir(work)
    try:
        for command, args in runs.items():
            prefix = f"{workload}-s{seed}/{command}"
            code, stdout, stderr = _run([command] + args)
            out[f"{prefix}/exit"] = _digest(str(code))
            out[f"{prefix}/stdout"] = _digest(stdout)
            out[f"{prefix}/stderr"] = _digest(stderr)
            if "--out" in args:
                outdir = args[args.index("--out") + 1]
                for name in sorted(os.listdir(outdir)):
                    with open(os.path.join(outdir, name), "rb") as fh:
                        out[f"{prefix}/{name}"] = _digest(fh.read())
    finally:
        os.chdir(previous)
    return out


def current_digests(root: str) -> dict[str, str]:
    corpus_gen = _corpus_gen()
    out = {}
    for seed in SEEDS:
        for workload in WORKLOADS:
            work = os.path.join(root, f"{workload}-s{seed}")
            os.makedirs(work)
            out.update(corpus_digests(corpus_gen, workload, seed, work))
    return out


def read_pin() -> dict[str, str]:
    with open(PIN, encoding="utf-8") as fh:
        return dict(line.split() for line in fh if line.strip())


def test_reports_match_pin(tmp_path):
    pinned = read_pin()
    current = current_digests(str(tmp_path))
    changed = sorted(k for k in current.keys() | pinned.keys() if current.get(k) != pinned.get(k))
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_report_pin.py --regen")
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        digests = current_digests(root)
    with open(PIN, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name} {digest}\n" for name, digest in digests.items())
    print(f"wrote {len(digests)} digests to {PIN}")
