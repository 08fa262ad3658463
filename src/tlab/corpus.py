"""Corpus ingestion: raw text, gold segmentations, splits, and sampling."""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence


class DataError(Exception):
    """Malformed or inconsistent input data."""


class TextCorpus(NamedTuple):
    """An ordered sequence of non-empty text lines."""

    lines: tuple[str, ...]


class GoldSegmentation(NamedTuple):
    """Reference tokenization, one token tuple per line.

    A whitespace-only line has no token and reads as ``()``, so it stays
    aligned with the same line of a raw corpus; empty lines are skipped as
    :func:`load_text` skips them.
    """

    lines: tuple[tuple[str, ...], ...]


def _decode(path: str | Path) -> str:
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc


def _split_lines(text: str) -> list[str]:
    # LF or CRLF terminators only; any other control character stays in the line
    pieces = text.split("\n")
    if pieces and pieces[-1] == "":
        pieces.pop()
    return [p[:-1] if p.endswith("\r") else p for p in pieces]


def load_text(path: str | Path) -> TextCorpus:
    """Read a UTF-8 corpus, one line per entry; empty lines are dropped.

    No normalization beyond terminator stripping: case, punctuation and
    interior whitespace are preserved exactly.
    """
    lines = [line for line in _split_lines(_decode(path)) if line]
    return TextCorpus(tuple(lines))


def load_gold(path: str | Path) -> GoldSegmentation:
    """Read a reference or tokenized segmentation: tokens separated by whitespace runs.

    Inside tokens ``\\\\`` and ``\\s`` are undone as :func:`save_segmented`
    writes them. Empty lines are dropped; a whitespace-only line reads as ``()``.
    """
    lines = [tuple(unescape_token(t) for t in raw.split()) if "\\" in raw else tuple(raw.split())
             for raw in _split_lines(_decode(path)) if raw]
    return GoldSegmentation(tuple(lines))


def save_text(corpus: TextCorpus, path: str | Path) -> None:
    body = "\n".join(corpus.lines) + "\n" if corpus.lines else ""
    Path(path).write_bytes(body.encode("utf-8"))


# \s matches exactly the scalars for which str.isspace() holds, all of them <= U+3000
_NEEDS_ESCAPE_RE = re.compile(r"[\s\\]")
_ESCAPE_RE = re.compile(r"\\(?:[\\s]|u[0-9a-fA-F]{4})")
_ESCAPES = {"\\": "\\\\", " ": "\\s"}
_UNESCAPES = {"\\\\": "\\", "\\s": " "}


def escape_token(token: str) -> str:
    """Write a backslash as ``\\\\``, a space as ``\\s`` and any other whitespace
    scalar as ``\\u`` and 4 hex digits."""
    return _NEEDS_ESCAPE_RE.sub(lambda m: _ESCAPES.get(m.group()) or f"\\u{ord(m.group()):04x}", token)


def unescape_token(text: str) -> str:
    """Read ``\\\\``, ``\\s`` and ``\\u`` with 4 hex digits left to right; any
    other backslash is literal."""
    return _ESCAPE_RE.sub(lambda m: _UNESCAPES.get(m.group()) or chr(int(m.group()[2:], 16)), text)


def format_segmented(token_lines: Iterable[Sequence[str]]) -> str:
    """Segmentations in gold format: space-separated tokens, one line each.

    Tokens are written with :func:`escape_token`, so the text stays parseable
    and every token reads back exactly. A line none of whose tokens holds
    whitespace or a backslash has nothing to escape and is joined as it is.
    A line whose text would be empty, as a line with no token, is written as
    one space, which :func:`load_gold` reads back as ``()`` instead of dropping it.
    """
    out = [(" ".join(map(escape_token, tokens)) if _NEEDS_ESCAPE_RE.search("".join(tokens)) else " ".join(tokens))
           or " " for tokens in token_lines]
    return "\n".join(out) + "\n" if out else ""


def save_segmented(token_lines: Iterable[Sequence[str]], path: str | Path) -> None:
    """Write :func:`format_segmented` of ``token_lines`` to ``path`` as UTF-8."""
    Path(path).write_bytes(format_segmented(token_lines).encode("utf-8"))


def load_segmented(path: str | Path) -> GoldSegmentation:
    """Read a file produced by :func:`save_segmented`; the same reader as :func:`load_gold`."""
    return load_gold(path)


def split_even_odd(corpus: TextCorpus) -> tuple[TextCorpus, TextCorpus]:
    """Interleaved halves of a training corpus: even-indexed lines to A, odd-indexed to B."""
    if len(corpus.lines) < 2:
        raise DataError(f"training corpus has {len(corpus.lines)} lines; need at least 2 to split")
    return TextCorpus(corpus.lines[0::2]), TextCorpus(corpus.lines[1::2])


def sample_indices(n_lines: int, count: int, seed: int) -> tuple[int, ...]:
    """Deterministic sorted sample of ``count`` indices out of ``range(n_lines)``."""
    if count < 1:
        raise DataError(f"sample count must be >= 1, got {count}")
    if count >= n_lines:
        return tuple(range(n_lines))
    return tuple(sorted(random.Random(seed).sample(range(n_lines), count)))

