"""Regression pin for the lexer: every token of every pinned input.

For each input of :func:`test_parse_pin.pinned_inputs` (the golden, MODERN
and LEGACY sources and their seeded token-slice mutations), the digest of
``[(t.kind, t.text, t.span) for t in tokenize(source)]``, or of the
``LexError`` message and line, is one line of ``token_pin.txt``. A lexer
change that moves any token's kind, text or span, or any error, fails here
and names the inputs it changed.

After an intended lexer change, regenerate the pin and say in CHANGES.md
which inputs moved and why:

    PYTHONPATH=src python tests/test_token_pin.py --regen
"""

from __future__ import annotations

import hashlib
import os
import sys

from solmetrics.errors import LexError
from solmetrics.lexer import tokenize
from test_parse_pin import pinned_inputs

PIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "token_pin.txt")


def token_digest(source: str) -> str:
    try:
        facts = [(t.kind, t.text, t.span) for t in tokenize(source)]
    except LexError as exc:
        facts = ("LexError", str(exc), exc.line)
    return hashlib.sha256(repr(facts).encode("utf-8")).hexdigest()[:12]


def current_digests() -> dict[str, str]:
    return {name: token_digest(source) for name, source in pinned_inputs().items()}


def read_pin() -> dict[str, str]:
    with open(PIN, encoding="utf-8") as fh:
        return dict(line.split() for line in fh if line.strip())


def test_tokens_match_pin():
    pinned = read_pin()
    current = current_digests()
    assert len(current) == len(pinned) == 518
    changed = sorted(k for k in current.keys() | pinned.keys() if current.get(k) != pinned.get(k))
    assert not changed, f"{len(changed)} inputs changed tokens, first: {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_token_pin.py --regen")
    digests = current_digests()
    with open(PIN, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name} {digest}\n" for name, digest in digests.items())
    print(f"wrote {len(digests)} digests to {PIN}")
