"""Regression pin for the tolerant frontend: the facts ``_parse_sol_file``
returns for the golden, MODERN and LEGACY sources and for seeded
token-slice mutations of them.

Each input's facts (contract names, base names, dedupe digests, metric
rows, diagnostics, error) hash to a 12-hex-digit digest, one line per
input in ``parse_facts_pin.txt``. A change that alters any of them, even
on malformed input, fails here and names the inputs it changed.

After an intended metric or parser change, regenerate the pin and say in
CHANGES.md which inputs moved and why:

    PYTHONPATH=src python tests/test_parse_pin.py --regen
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

from golden_corpus import GOLDEN
from solmetrics.corpus import _parse_sol_file
from solmetrics.lexer import line_start_offsets, tokenize
from test_realworld import LEGACY, MODERN

PIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "parse_facts_pin.txt")
SEED = 7
N_MUTATIONS = 500


def base_sources() -> dict[str, str]:
    sources = {f"golden-{name}": source for name, (source, _) in sorted(GOLDEN.items())}
    sources["modern"] = MODERN
    sources["legacy"] = LEGACY
    return sources


def _token_offsets(source: str) -> list[tuple[int, int]]:
    starts = line_start_offsets(source)
    return [
        (starts[sl - 1] + sc - 1, starts[el - 1] + ec)
        for sl, sc, el, ec in (t.span for t in tokenize(source))
    ]


def mutate(source: str, rng: random.Random) -> str:
    """Delete, duplicate or move one run of whole tokens."""
    offsets = _token_offsets(source)
    if not offsets:
        return source
    i = rng.randrange(len(offsets))
    j = min(len(offsets), i + rng.randint(1, 12))
    lo, hi = offsets[i][0], offsets[j - 1][1]
    piece = source[lo:hi]
    op = rng.choice(("delete", "duplicate", "move"))
    if op == "delete":
        return source[:lo] + source[hi:]
    if op == "duplicate":
        return source[:hi] + " " + piece + source[hi:]
    rest = source[:lo] + source[hi:]
    at = rng.randint(0, len(rest))
    return rest[:at] + piece + rest[at:]


def pinned_inputs() -> dict[str, str]:
    inputs = base_sources()
    bases = list(inputs.items())
    rng = random.Random(SEED)
    for n in range(N_MUTATIONS):
        name, source = rng.choice(bases)
        inputs[f"mut{n:03d}-{name}"] = mutate(source, rng)
    return inputs


def facts_digest(root: str, file: str) -> str:
    pf = _parse_sol_file((root, file))
    facts = (
        pf.error,
        [(c.name, c.base_names, c.digest, c.metrics.as_cells()) for c in pf.contracts],
        pf.diagnostics,
    )
    return hashlib.sha256(repr(facts).encode("utf-8")).hexdigest()[:12]


def current_digests(root: str) -> dict[str, str]:
    out = {}
    for name, source in pinned_inputs().items():
        file = f"{name}.sol"
        with open(os.path.join(root, file), "w", encoding="utf-8", newline="") as fh:
            fh.write(source)
        out[name] = facts_digest(root, file)
    return out


def read_pin() -> dict[str, str]:
    with open(PIN, encoding="utf-8") as fh:
        return dict(line.split() for line in fh if line.strip())


def test_parse_facts_match_pin(tmp_path):
    pinned = read_pin()
    current = current_digests(str(tmp_path))
    assert len(current) == len(base_sources()) + N_MUTATIONS
    changed = sorted(k for k in current.keys() | pinned.keys() if current.get(k) != pinned.get(k))
    assert not changed, f"{len(changed)} inputs changed facts, first: {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_parse_pin.py --regen")
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        digests = current_digests(root)
    with open(PIN, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name} {digest}\n" for name, digest in digests.items())
    print(f"wrote {len(digests)} digests to {PIN}")
