"""What the digest pin tests share: reading a pin file, naming the keys
whose digest moved, and the ``--regen`` command that rewrites a pin file.

A pin file holds one ``name digest`` line per pinned input or output.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections.abc import Callable


def read_pin(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.split() for line in fh if line.strip())


def changed_keys(current: dict[str, str], pinned: dict[str, str]) -> list[str]:
    """The keys whose digest differs, or that only one side holds, sorted."""
    return sorted(k for k in current.keys() | pinned.keys() if current.get(k) != pinned.get(k))


def regen(path: str, digests: Callable[[str], dict[str, str]]) -> None:
    """Rewrite the pin file ``path`` from ``digests``, called with a scratch
    directory, and print each name whose digest changed, was added or was
    removed."""
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --regen")
    with tempfile.TemporaryDirectory() as root:
        current = digests(root)
    pinned = read_pin(path) if os.path.exists(path) else {}
    for name in changed_keys(current, pinned):
        status = "added" if name not in pinned else "removed" if name not in current else "changed"
        print(f"{status} {name}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name} {digest}\n" for name, digest in current.items())
    print(f"wrote {len(current)} digests to {path}")
