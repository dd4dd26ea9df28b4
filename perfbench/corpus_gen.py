"""Seeded corpus generator for the solmetrics benchmark.

Every corpus is assembled from Solidity texts already in the repository:
the hand-counted snippets of ``tests/golden_corpus.py`` and the MODERN /
LEGACY files of ``tests/test_realworld.py``. Each copy of a template gets
its defined contract names suffixed with a fixed-width copy number, so
in-file inheritance stays resolved and no two copies collide. The
composition of a workload (which templates, how many times, file sizes,
planted errors) is fixed; the seed only shuffles order, grouping,
labels and the imported base names, so the amount of work barely moves
from seed to seed while the inputs do.

The generator also returns what it planted and the exact metric vector
it expects for every golden-derived contract, which the benchmark's
correctness gate compares against the program's output.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import random
import re
from dataclasses import dataclass, field

# Base names that stand for imported library contracts. No generated
# contract is ever defined under one of these names.
IMPORTED_NAMES = (
    "Ownable", "ERC20", "IERC20", "Context", "ReentrancyGuard",
    "AccessControl", "ERC721", "SafeMath",
)

VULN_TYPES = ("TP", "BN", "DG", "EF", "UC", "RE", "OF", "SE")

# Canonical vector order of tests/golden_corpus.py, spelled out here so the
# gate compares against the program's export without importing the program.
METRIC_NAMES = (
    "sloc", "lloc", "cloc", "nf", "wmc", "nl", "nle", "numpar", "nos",
    "dit", "noa", "nod", "cbo", "na", "noi",
    "avg_mccc", "avg_nl", "avg_nle", "avg_numpar", "avg_nos", "avg_noi",
)
DIT, NOA, NOD, CBO = (METRIC_NAMES.index(m) for m in ("dit", "noa", "nod", "cbo"))

_DEFINED_RE = re.compile(
    r"^\s*(?:abstract\s+)?(?:contract|interface|library)\s+([A-Za-z_]\w*)", re.MULTILINE
)
_HERITAGE_RE = re.compile(
    r"(?:contract|interface|library)\s+[A-Za-z_]\w*\s+is\s+([^{]+)\{"
)


@dataclass(frozen=True)
class Template:
    name: str
    source: str
    contracts: tuple[str, ...]
    expected: dict[str, list] | None  # hand-counted vectors, golden snippets only


@dataclass
class Corpus:
    files: list[str]
    expected: dict[tuple[str, str], list] = field(default_factory=dict)
    absent: set[tuple[str, str]] = field(default_factory=set)
    planted: dict[str, int] = field(default_factory=dict)
    shape: dict[str, float] = field(default_factory=dict)

    def entries(self, command: str) -> int:
        """Entries attempted: manifest rows for ``analyze``, input files for ``metrics``."""
        return self.shape["contracts"] if command == "analyze" else self.shape["files"]

    def scored(self, command: str) -> int:
        """Contracts scored: manifest rows for ``analyze``, CSV rows for ``metrics``."""
        if command == "analyze":
            return self.shape["contracts"]
        return self.shape["contracts"] - len(self.absent)


def load_templates(repo: str) -> tuple[list[Template], Template, Template]:
    """Golden snippets (in file order) plus the MODERN and LEGACY texts."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_golden", os.path.join(repo, "tests", "golden_corpus.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    golden = [
        Template(name, source, tuple(expected), expected)
        for name, (source, expected) in module.GOLDEN.items()
    ]
    with open(os.path.join(repo, "tests", "test_realworld.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    texts = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("MODERN", "LEGACY"):
                texts[target.id] = ast.literal_eval(node.value)
    modern, legacy = (
        Template(key, texts[key], tuple(_DEFINED_RE.findall(texts[key])), None)
        for key in ("MODERN", "LEGACY")
    )
    return golden, modern, legacy


def rename(template: Template, suffix: str) -> tuple[str, dict[str, str]]:
    """Template text with every defined contract name suffixed."""
    mapping = {name: f"{name}_{suffix}" for name in template.contracts}
    pattern = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, mapping)))
    return pattern.sub(lambda m: mapping[m.group(1)], template.source), mapping


def _base_refs(text: str) -> list[str]:
    refs = []
    for heritage in _HERITAGE_RE.findall(text):
        for part in heritage.split(","):
            name = part.strip().split("(")[0].strip()
            if name:
                refs.append(name)
    return refs


class _Assembler:
    """Accumulates files, manifest rows, expectations and plantings."""

    def __init__(self, workload: str, seed: int, root: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.root = root
        self.files: dict[str, list[str]] = {}
        self.rows: list[tuple[str, str]] = []
        self.expected: dict[tuple[str, str], list] = {}
        self.absent: set[tuple[str, str]] = set()
        self.defined: set[str] = set()
        self.planted = {"lex_error_files": 0, "lex_error_entries": 0, "not_found_entries": 0,
                        "parse_diagnostics": 0, "duplicate_entries": 0}
        self.copies = 0

    def suffix(self) -> str:
        self.copies += 1
        return f"{self.copies:05d}"

    def add_copy(self, file: str, template: Template, expect: bool = True) -> list[str]:
        """Append a renamed copy of a template to a file; returns the new names."""
        text, mapping = rename(template, self.suffix())
        self.files.setdefault(file, []).append(text)
        names = [mapping[c] for c in template.contracts]
        for old, new in mapping.items():
            self.defined.add(new)
            self.rows.append((file, new))
            if expect and template.expected is not None:
                self.expected[(file, new)] = list(template.expected[old])
        return names

    def add_duplicate(self, file: str, text: str, name: str) -> None:
        """Plant a verbatim copy of an already placed single contract."""
        self.files.setdefault(file, []).append(text)
        self.rows.append((file, name))
        self.absent.add((file, name))
        self.planted["duplicate_entries"] += 1

    def plant_lex_error(self, file: str, template: Template) -> None:
        """A file whose trailing comment never closes: every entry in it skips."""
        names = self.add_copy(file, template, expect=False)
        self.files[file].append("/* unterminated comment\n")
        for name in names:
            self.absent.add((file, name))
            self.defined.discard(name)
        self.planted["lex_error_files"] += 1
        self.planted["lex_error_entries"] += len(names)

    def plant_garbage(self, file: str, template: Template) -> None:
        """A good contract followed by one that cannot parse."""
        self.add_copy(file, template)
        broken = f"Broken_{self.suffix()}"
        self.files[file].append(f"contract {broken} {{\n    function f( uint a {{{{{{\n}}\n")
        self.rows.append((file, broken))
        self.absent.add((file, broken))
        self.planted["not_found_entries"] += 1
        self.planted["parse_diagnostics"] += 1

    def write(self) -> Corpus:
        os.makedirs(self.root, exist_ok=True)
        total_bytes = 0
        base_refs = unresolved = 0
        for file, parts in self.files.items():
            text = "\n".join(parts)
            total_bytes += len(text.encode("utf-8"))
            with open(os.path.join(self.root, file), "w", encoding="utf-8") as fh:
                fh.write(text)
            for ref in _base_refs(text):
                base_refs += 1
                unresolved += ref not in self.defined
        clash = self.defined & set(IMPORTED_NAMES)
        if clash:
            raise AssertionError(f"defined contract takes an imported name: {sorted(clash)}")
        lines = ["file,contract,label,type"]
        for file, name in self.rows:
            if self.rng.random() < 0.4:
                lines.append(f"{file},{name},vulnerable,{self.rng.choice(VULN_TYPES)}")
            else:
                lines.append(f"{file},{name},neutral,")
        with open(os.path.join(os.path.dirname(self.root), "manifest.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        shape = {
            "files": len(self.files),
            "contracts": len(self.rows),
            "bytes": total_bytes,
            "duplicate_share": self.planted["duplicate_entries"] / len(self.rows),
            "unresolved_base_share": unresolved / base_refs if base_refs else 0.0,
            "planted_errors": self.planted["lex_error_files"] + self.planted["parse_diagnostics"],
            "golden_checked": len(self.expected),
        }
        return Corpus(list(self.files), self.expected, self.absent, dict(self.planted), shape)


def _cycle(items: list, n: int) -> list:
    return [items[i % len(items)] for i in range(n)]


def _singles(golden: list[Template]) -> list[Template]:
    """Golden snippets that define exactly one contract with no bases."""
    return [t for t in golden if len(t.contracts) == 1 and not _base_refs(t.source)]


def _small_files(b: _Assembler, golden, modern, legacy) -> Corpus:
    deck = golden + [modern, legacy]
    slots = _cycle(deck, 1200)
    b.rng.shuffle(slots)
    sizes = [1, 2, 3] * 200
    b.rng.shuffle(sizes)
    singles = _singles(golden)
    placed: list[tuple[str, str]] = []  # (text, name) of copies safe to duplicate
    it = iter(slots)
    for i, size in enumerate(sizes):
        file = f"s{i:04d}.sol"
        for _ in range(size):
            template = next(it)
            names = b.add_copy(file, template)
            if template in singles:
                placed.append((b.files[file][-1], names[0]))
    for i, (text, name) in enumerate(b.rng.sample(placed, 10)):
        b.add_duplicate(f"z_dup{i:02d}.sol", text, name)
    for i in range(3):
        b.plant_lex_error(f"z_lex{i:02d}.sol", golden[1])
        b.plant_garbage(f"z_bad{i:02d}.sol", golden[2])
    return b.write()


def _flattened(b: _Assembler, golden, modern, legacy) -> Corpus:
    deck = golden + [modern, legacy]
    library = next(t for t in golden if t.name == "library_clamp")
    library_text, library_names = rename(library, "shared")
    shared = library_names["MathLib"]
    b.defined.add(shared)
    for i, decks in enumerate((2, 2, 5)):
        file = f"flat{i}.sol"
        slots = deck * decks
        b.rng.shuffle(slots)
        # Every dump repeats the same library: the first copy is scored,
        # the later ones are duplicates.
        if i == 0:
            b.files[file] = [library_text]
            b.rows.append((file, shared))
            b.expected[(file, shared)] = list(library.expected["MathLib"])
        else:
            b.add_duplicate(file, library_text, shared)
        for template in slots:
            b.add_copy(file, template)
    b.plant_lex_error("z_lex.sol", golden[1])
    b.plant_garbage("z_bad.sol", golden[2])
    return b.write()


def _imported_bases(b: _Assembler, golden, modern, legacy) -> Corpus:
    templates = [t for t in _singles(golden) if t.source.startswith("contract ")]
    n_files, per_file = 375, 4
    n = n_files * per_file
    bodies = _cycle(templates, n)
    b.rng.shuffle(bodies)
    n_unresolved = _cycle([1, 2, 3], n)
    b.rng.shuffle(n_unresolved)
    chained = set(b.rng.sample(range(per_file, n), n // 3))
    names: list[str] = []
    bases: list[int | None] = []
    for i in range(n):
        file = f"m{i // per_file:04d}.sol"
        template = bodies[i]
        imported = b.rng.sample(IMPORTED_NAMES, n_unresolved[i])
        base = None
        if i in chained:
            base = b.rng.randrange(0, (i // per_file) * per_file)
        heritage = imported + ([names[base]] if base is not None else [])
        text, mapping = rename(template, b.suffix())
        name = mapping[template.contracts[0]]
        text = text.replace(f"contract {name} {{", f"contract {name} is {', '.join(heritage)} {{", 1)
        b.files.setdefault(file, []).append(text)
        b.rows.append((file, name))
        b.defined.add(name)
        names.append(name)
        bases.append(base)
        vector = list(template.expected[template.contracts[0]])
        vector[CBO] += len(heritage)
        vector[NOA] = len(imported)  # resolved ancestors are added below
        b.expected[(file, name)] = vector
    # Inheritance metrics computed independently of the program. Every
    # contract has an unresolved base, a path of length 1; a resolved base
    # always sits in an earlier file, so one forward pass suffices.
    dit = [1] * n
    ancestors: list[set[int]] = [set() for _ in range(n)]
    nod = [0] * n
    for i in range(n):
        j = bases[i]
        if j is not None:
            dit[i] = 1 + dit[j]
            ancestors[i] = ancestors[j] | {j}
        for a in ancestors[i]:
            nod[a] += 1
    for i in range(n):
        vector = b.expected[(f"m{i // per_file:04d}.sol", names[i])]
        vector[DIT] = dit[i]
        vector[NOA] += len(ancestors[i])
        vector[NOD] = nod[i]
    for k, template in enumerate(golden):
        b.add_copy(f"n_gold{k:02d}.sol", template)
    for i in range(2):
        b.plant_lex_error(f"z_lex{i:02d}.sol", golden[1])
    b.plant_garbage("z_bad.sol", golden[2])
    return b.write()


_SHAPES = {
    "small_files": _small_files,
    "flattened": _flattened,
    "imported_bases": _imported_bases,
}


def generate(workload: str, seed: int, root: str, repo: str) -> Corpus:
    """Write the workload's sources under ``root`` and ``manifest.csv`` beside
    it (paths relative to ``root``); describe what was planted."""
    golden, modern, legacy = load_templates(repo)
    assembler = _Assembler(workload, seed, root)
    return _SHAPES[workload](assembler, golden, modern, legacy)
