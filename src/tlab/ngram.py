"""Character n-gram transition models: one table of window counts per order."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from .corpus import DataError, TextCorpus

FORMAT_HEADER = "tlab-model v1"

_CONTROL = ("\t", "\n", "\r")
# only a window holding "x" or a control character can have a field to escape
_MAY_ESCAPE = re.compile("[x\t\n\r]").search
_HEADER_RE = re.compile(r"^tlab-model v1 n_max=(\d+)$")


class ModelFormatError(DataError):
    """Model file is malformed or carries an unsupported format version."""


class _Derived(dict):
    """A dict that derives each missing value from its key on first read and keeps it."""

    def __init__(self, derive: Callable) -> None:
        super().__init__()
        self.derive = derive

    def __missing__(self, key):
        value = self[key] = self.derive(key)
        return value


def _degree_table(windows: dict[int, Counter[str]], key: tuple[int, str]) -> Counter[str]:
    n, direction = key
    if direction == "forward":
        return Counter(w[:-1] for w in windows[n])
    if direction == "backward":
        return Counter(w[1:] for w in windows[n])
    raise KeyError(key)


def _max_degree(degrees: dict[tuple[int, str], Counter[str]], key: tuple[int, str]) -> int:
    return max(degrees[key].values(), default=0)


@dataclass
class TransitionModel:
    """Weighted counts of every in-line window of n+1 characters, n = 1..n_max.

    ``windows[n][w]`` sums the line weights of the occurrences of ``w``. A
    window is both a forward edge (``w[:-1]`` followed by ``w[-1]``) and a
    backward edge (``w[1:]`` preceded by ``w[0]``), so the successor and
    predecessor varieties of every gram are read off the same table.
    ``degrees[n, direction]`` maps each gram to that out-degree and
    ``max_degrees[n, direction]`` holds the order's maximum. Each of these
    tables is derived from ``windows`` the first time it is read, so a model
    holds only the tables that were used; both are excluded from equality.
    Treat instances, ``windows`` included, as immutable.
    """

    n_max: int
    windows: dict[int, Counter[str]]
    degrees: dict[tuple[int, str], Counter[str]] = field(init=False, compare=False, repr=False)
    max_degrees: dict[tuple[int, str], int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # the derivations hold the tables, not the model, so a model is freed without a cycle collection
        self.degrees = _Derived(partial(_degree_table, self.windows))
        self.max_degrees = _Derived(partial(_max_degree, self.degrees))

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
    order, gram and char. Each order's records are written as soon as they
    are formatted, so only one order's text is held at a time.
    """
    orders = sorted(model.windows.items())
    with open(path, "wb") as out:
        out.write(f"{FORMAT_HEADER} n_max={model.n_max}\n".encode("utf-8"))
        for n, counts in orders:
            # for equal-length strings this is the order of (w[1:], w[0])
            text = "".join([
                f"b\t{n}\t{_escape(w[1:])}\t{_escape(w[0])}\t{counts[w]}\n"
                if _MAY_ESCAPE(w)
                else f"b\t{n}\t{w[1:]}\t{w[0]}\t{counts[w]}\n"
                for w in sorted(counts, key=lambda w: w[1:] + w[0])
            ])
            out.write(text.encode("utf-8"))
        for n, counts in orders:
            text = "".join([
                f"f\t{n}\t{_escape(w[:-1])}\t{_escape(w[-1])}\t{counts[w]}\n"
                if _MAY_ESCAPE(w)
                else f"f\t{n}\t{w[:-1]}\t{w[-1]}\t{counts[w]}\n"
                for w in sorted(counts)
            ])
            out.write(text.encode("utf-8"))


def load_model(path: str | Path) -> TransitionModel:
    """Read a model file; its ``b`` records must mirror its ``f`` records exactly.

    The file is read one record at a time. A record that repeats an earlier
    one (same tag, order, gram and char) is rejected whatever its count.
    """
    with open(path, "rb") as raw:
        try:
            raw.read().decode("utf-8")  # only to report the first bad byte's offset in the file
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc
    with open(path, encoding="utf-8", newline="\n") as lines:
        first = lines.readline()
        if not first:
            raise ModelFormatError(f"{path}: empty model file")
        first = first.rstrip("\n")
        header = _HEADER_RE.match(first)
        if header is None:
            raise ModelFormatError(f"{path}: bad header {first!r}; expected '{FORMAT_HEADER} n_max=<k>'")
        n_max = int(header.group(1))
        if n_max < 1:
            raise ModelFormatError(f"{path}: n_max must be >= 1")
        forward: dict[int, Counter[str]] = {n: Counter() for n in range(1, n_max + 1)}
        backward: dict[int, dict[str, int]] = {n: {} for n in range(1, n_max + 1)}
        orders = {str(n): n for n in range(1, n_max + 1)}
        for lineno, record in enumerate(lines, start=2):
            # the line's "\n" stays on the count field, which int() reads as it reads a trailing CR
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
    # plain dict equality, in C; Counter's == also equates a missing key with a zero count, which no record holds
    if any(not dict.__eq__(forward[n], backward[n]) for n in forward):
        raise ModelFormatError(f"{path}: backward records do not mirror the forward records")
    return TransitionModel(n_max, forward)
