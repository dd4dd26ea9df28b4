"""Every entry point is total: on any small corpus of golden or mutated
sources and any manifest over them, ``main`` returns 0, 1 or 2 and never
raises or prints a traceback, and a pool of workers writes the same bytes
as one process."""

from __future__ import annotations

import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings, strategies as st

from solmetrics.cli import main
from test_parse_pin import base_sources, mutate

_SOURCES = [source for _, source in sorted(base_sources().items())]
_NAME_RE = re.compile(r"\b(?:contract|interface|library)\s+([A-Za-z_]\w*)")
_LABELS = [("vulnerable", "RE"), ("vulnerable", "OF"), ("neutral", "")]
_COMMANDS = ("metrics", "export", "analyze", "rq1", "rq2", "rq3", "rq4")


@st.composite
def corpora(draw, min_files=0):
    """Up to three files, each one to three golden or real-world sources
    (whole or mutated), and a manifest that labels, or leaves out,
    each contract the files declare, a contract no file declares and a
    missing file."""
    files = {}
    for i in range(draw(st.integers(min_files, 3))):
        pieces = draw(st.lists(st.sampled_from(_SOURCES), min_size=1, max_size=3))
        source = "\n".join(pieces)
        if draw(st.booleans()):
            source = mutate(source, draw(st.randoms(use_true_random=False)))
        files[f"f{i}.sol"] = source
    named = dict.fromkeys(
        (file, name) for file, text in files.items() for name in _NAME_RE.findall(text)
    )
    entries = []
    for key in [*named, ("f0.sol", "Nowhere"), ("gone.sol", "A")]:
        label = draw(st.sampled_from([None, *_LABELS]))
        if label is not None:
            entries.append((*key, *label))
    return files, entries


def _write(root: str, files: dict[str, str], entries) -> None:
    os.makedirs(os.path.join(root, "src"))
    for name, text in files.items():
        with open(os.path.join(root, "src", name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(root, "manifest.csv"), "w", encoding="utf-8") as fh:
        fh.write("file,contract,label,type\n")
        fh.writelines(f"{file},{name},{label},{kind}\n" for file, name, label, kind in entries)


def _run(root: str, files, command: str, jobs: int):
    """Exit code, stdout, stderr and output files of one in-process run."""
    out = os.path.join(root, f"out_{command}_{jobs}")
    if command == "metrics":
        argv = ["metrics", *(os.path.join(root, "src", f) for f in files or ["gone.sol"])]
    else:
        argv = [command, "--manifest", os.path.join(root, "manifest.csv"),
                "--root", os.path.join(root, "src"), "--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([*argv, "--jobs", str(jobs)])
    assert code in (0, 1, 2), (command, code)
    assert "Traceback" not in stderr.getvalue()
    outputs = {}
    if command != "metrics" and os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                outputs[name] = fh.read()
    return code, stdout.getvalue(), stderr.getvalue().replace(out, "OUT"), outputs


_GOLDEN = _SOURCES[0]
_ONE = _NAME_RE.findall(_GOLDEN)[0]
# the three sources of four contracts each, half of the twelve vulnerable:
# enough rows for all four analyses
_WIDE = {
    f"f{i}.sol": text
    for i, text in enumerate(t for t in _SOURCES if len(_NAME_RE.findall(t)) == 4)
}
_FULL = (_WIDE, [(file, name, *_LABELS[(n % 2) * 2])
                 for file, text in _WIDE.items()
                 for n, name in enumerate(_NAME_RE.findall(text))])


@settings(max_examples=30, deadline=None)
@given(corpora())
@example(({}, []))  # no source, empty manifest
@example(({"f0.sol": _GOLDEN}, [("f0.sol", _ONE, "neutral", "")]))  # one row
@example(  # one label
    ({"f0.sol": _GOLDEN, "f1.sol": _GOLDEN},
     [("f0.sol", _ONE, "vulnerable", "RE"), ("f1.sol", _ONE, "vulnerable", "OF")])
)
@example(_FULL)
def test_every_command_exits_cleanly(corpus):
    files, entries = corpus
    with tempfile.TemporaryDirectory() as root:
        _write(root, files, entries)
        for command in _COMMANDS:
            _run(root, files, command, 1)


# the pool patch ``pooled`` makes holds for every example
@settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(corpora(min_files=2))
@example(_FULL)
def test_pool_writes_what_one_process_writes(pooled, corpus):
    files, entries = corpus
    with tempfile.TemporaryDirectory() as root:
        _write(root, files, entries)
        pools = len(pooled)
        for command in ("metrics", "analyze"):
            one = _run(root, files, command, 1)
            assert _run(root, files, command, 2) == one
        assert len(pooled) > pools  # metrics at least parsed its files in a pool
