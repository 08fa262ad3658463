"""Character n-gram transition models: one table of window counts per order."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import DataError, TextCorpus

FORMAT_HEADER = "tlab-model v1"

_CONTROL = ("\t", "\n", "\r")
# only a window holding "x" or a control character can have a field to escape
_MAY_ESCAPE = re.compile("[x\t\n\r]").search
_HEADER_RE = re.compile(r"^tlab-model v1 n_max=(\d+)$")


class ModelFormatError(DataError):
    """Model file is malformed or carries an unsupported format version."""


@dataclass
class TransitionModel:
    """Weighted counts of every in-line window of n+1 characters, n = 1..n_max.

    ``windows[n][w]`` sums the line weights of the occurrences of ``w``. A
    window is both a forward edge (``w[:-1]`` followed by ``w[-1]``) and a
    backward edge (``w[1:]`` preceded by ``w[0]``), so the successor and
    predecessor varieties of every gram are read off the same table.
    ``degrees[n, direction]`` maps each gram to that out-degree and
    ``max_degrees[n, direction]`` holds the order's maximum; both are derived
    at construction and excluded from equality. Treat instances as immutable.
    """

    n_max: int
    windows: dict[int, Counter[str]]
    degrees: dict[tuple[int, str], Counter[str]] = field(init=False, compare=False, repr=False)
    max_degrees: dict[tuple[int, str], int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.degrees = {}
        for n, counts in self.windows.items():
            self.degrees[n, "forward"] = Counter(w[:-1] for w in counts)
            self.degrees[n, "backward"] = Counter(w[1:] for w in counts)
        self.max_degrees = {key: max(d.values(), default=0) for key, d in self.degrees.items()}

    def __add__(self, other: TransitionModel) -> TransitionModel:
        """The model of the two corpora concatenated; both must share ``n_max``."""
        return TransitionModel(
            self.n_max, {n: c + other.windows[n] for n, c in self.windows.items()}
        )


def build_model(
    corpus: TextCorpus, n_max: int, line_weights: Sequence[int] | None = None
) -> TransitionModel:
    """Count every in-line window of n characters plus one adjacent character.

    Windows never cross line boundaries and whitespace is an ordinary
    character. Each occurrence adds the line's weight (default 1).

    Only the top order, ``n_max``, is counted by scanning the lines; each
    lower order n is derived top-down from order n+1. An (n+1)-character
    window either starts an (n+2)-character window at the same position or
    is its line's last n+1 characters, so ``windows[n]`` is the count of
    ``w[:-1]`` summed over ``windows[n+1]``, plus each longer-than-n line's
    tail ``line[-(n+1):]`` at that line's weight.
    """
    if n_max < 1:
        raise DataError(f"n_max must be >= 1, got {n_max}")
    if line_weights is not None:
        if len(line_weights) != len(corpus.lines):
            raise DataError(
                f"{len(line_weights)} weights for {len(corpus.lines)} lines"
            )
        if any(w < 1 for w in line_weights):
            raise DataError("line weights must be positive integers")

    lines = corpus.lines
    weights = line_weights if line_weights is not None else (1,) * len(lines)
    counts: Counter[str] = Counter()
    for line, w in zip(lines, weights):
        grams = (line[i : i + n_max + 1] for i in range(len(line) - n_max))
        if w == 1:
            counts.update(grams)
        else:
            for gram in grams:
                counts[gram] += w
    windows = {n_max: counts}
    for n in range(n_max - 1, 0, -1):
        lower: Counter[str] = Counter()
        get = lower.get  # dict.get skips Counter.__missing__ on every new key
        for gram, c in counts.items():
            prefix = gram[:-1]
            lower[prefix] = get(prefix, 0) + c
        for line, w in zip(lines, weights):
            if len(line) > n:
                tail = line[-n - 1 :]
                lower[tail] = get(tail, 0) + w
        windows[n] = counts = lower
    return TransitionModel(n_max, windows)


def prune(model: TransitionModel, min_count: int) -> TransitionModel:
    """Drop every window with count < ``min_count``, and with it its edges.

    ``min_count`` of 0 returns the input model unchanged.
    """
    if min_count < 0:
        raise DataError(f"prune threshold must be >= 0, got {min_count}")
    if min_count == 0:
        return model
    return TransitionModel(
        model.n_max,
        {
            n: Counter({w: c for w, c in counts.items() if c >= min_count})
            for n, counts in model.windows.items()
        },
    )


def check_order(n: int, n_max: int) -> None:
    """Reject an order that a model counted up to ``n_max`` does not hold."""
    if not 1 <= n <= n_max:
        raise DataError(f"order {n} outside the model's range 1..{n_max}")


def freedom(model: TransitionModel, gram: str, direction: str) -> int:
    """Out-degree of ``gram``: how many distinct characters continue it."""
    check_order(len(gram), model.n_max)
    return model.degrees[len(gram), direction].get(gram, 0)


def max_freedom(model: TransitionModel, n: int, direction: str) -> int:
    """Largest out-degree over all grams of order ``n``; 0 for an empty order."""
    check_order(n, model.n_max)
    return model.max_degrees[n, direction]


def _escape(text: str) -> str:
    # a leading "x" marks a hex escape, so it is escaped itself
    if text.startswith("x") or any(c in text for c in _CONTROL):
        return "x" + text.encode("utf-8").hex()
    return text


def _unescape(fieldtext: str) -> str:
    if fieldtext.startswith("x") and len(fieldtext) > 1:
        try:
            return bytes.fromhex(fieldtext[1:]).decode("utf-8")
        except ValueError:
            pass
    return fieldtext


def save_model(model: TransitionModel, path: str | Path) -> None:
    """Write the canonical sorted text form; identical models save byte-identically.

    Every window becomes a ``b`` record (gram, preceding char) and an ``f``
    record (gram, following char), all ``b`` records first, each sorted by
    order, gram and char.
    """
    out = [f"{FORMAT_HEADER} n_max={model.n_max}"]
    orders = sorted(model.windows.items())
    for n, counts in orders:
        # for equal-length strings this is the order of (w[1:], w[0])
        for w in sorted(counts, key=lambda w: w[1:] + w[0]):
            if _MAY_ESCAPE(w):
                out.append(f"b\t{n}\t{_escape(w[1:])}\t{_escape(w[0])}\t{counts[w]}")
            else:
                out.append(f"b\t{n}\t{w[1:]}\t{w[0]}\t{counts[w]}")
    for n, counts in orders:
        for w in sorted(counts):
            if _MAY_ESCAPE(w):
                out.append(f"f\t{n}\t{_escape(w[:-1])}\t{_escape(w[-1])}\t{counts[w]}")
            else:
                out.append(f"f\t{n}\t{w[:-1]}\t{w[-1]}\t{counts[w]}")
    Path(path).write_bytes(("\n".join(out) + "\n").encode("utf-8"))


def load_model(path: str | Path) -> TransitionModel:
    """Read a model file; its ``b`` records must mirror its ``f`` records exactly.

    A record that repeats an earlier one (same tag, order, gram and char) is
    rejected whatever its count.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ModelFormatError(f"{path}: empty model file")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise ModelFormatError(f"{path}: bad header {lines[0]!r}; expected '{FORMAT_HEADER} n_max=<k>'")
    n_max = int(header.group(1))
    if n_max < 1:
        raise ModelFormatError(f"{path}: n_max must be >= 1")
    forward: dict[int, Counter[str]] = {n: Counter() for n in range(1, n_max + 1)}
    backward: dict[int, Counter[str]] = {n: Counter() for n in range(1, n_max + 1)}
    orders = {str(n): n for n in range(1, n_max + 1)}
    for lineno, record in enumerate(lines[1:], start=2):
        parts = record.split("\t")
        if len(parts) != 5:
            raise ModelFormatError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}")
        tag, n_text, gram, ch, count_text = parts
        if tag == "f":
            tables = forward
        elif tag == "b":
            tables = backward
        else:
            raise ModelFormatError(f"{path}:{lineno}: unknown direction tag {tag!r}")
        try:
            n = orders.get(n_text) or int(n_text)
            count = int(count_text)
        except ValueError as exc:
            raise ModelFormatError(f"{path}:{lineno}: non-integer field") from exc
        if n < 1 or n > n_max:
            raise ModelFormatError(f"{path}:{lineno}: order {n} outside 1..{n_max}")
        if count < 1:
            raise ModelFormatError(f"{path}:{lineno}: count must be positive")
        if gram.startswith("x"):
            gram = _unescape(gram)
        if ch.startswith("x"):
            ch = _unescape(ch)
        if len(gram) != n or len(ch) != 1:
            raise ModelFormatError(f"{path}:{lineno}: field lengths disagree with order")
        window = gram + ch if tables is forward else ch + gram
        table = tables[n]
        if window in table:
            raise ModelFormatError(f"{path}:{lineno}: duplicate record")
        table[window] = count
    if backward != forward:
        raise ModelFormatError(f"{path}: backward records do not mirror the forward records")
    return TransitionModel(n_max, forward)
