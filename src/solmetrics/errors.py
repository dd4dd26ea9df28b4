"""Exception types shared across the toolkit."""

from __future__ import annotations


class LexError(Exception):
    """Unrecoverable tokenizer failure (unterminated comment or string)."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ParseError(Exception):
    """Contract-level parse failure; callers recover and keep going.

    The message is bare: a diagnostic puts ``line`` before it once.
    """

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line


class InputError(ValueError):
    """A statistical operation received structurally invalid input."""


class DegenerateInputError(InputError):
    """Input is well-formed but the statistic is undefined on it."""


class CorpusError(Exception):
    """Corpus-level failure: bad manifest, inheritance cycle, unusable corpus."""
