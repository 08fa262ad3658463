"""Character n-gram transition models: one table of window counts per order."""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import DataError, TextCorpus

FORMAT_HEADER = "tlab-model v1"

_CONTROL = ("\t", "\n", "\r")
# only a window holding "x" or a control character can have a field to escape
_MAY_ESCAPE = re.compile("[x\t\n\r]").search
_HEADER_RE = re.compile(r"^tlab-model v1 n_max=(\d+)$")


class ModelFormatError(DataError):
    """Model file is malformed or carries an unsupported format version."""


class TransitionModel(NamedTuple):
    """Weighted counts of every in-line window of n+1 characters, n = 1..n_max.

    ``windows[n][w]`` sums the line weights of the occurrences of ``w``, and
    a window that never occurs has no entry (:func:`build_model` fills a
    ``Counter`` for its top order and a plain dict for each order below it,
    :func:`load_model` plain dicts); an order with no window has no
    table, so ``n_max`` is only the declared bound. A window is both a
    forward edge (``w[:-1]`` followed by ``w[-1]``) and a backward edge
    (``w[1:]`` preceded by ``w[0]``), so the successor and predecessor
    varieties of every gram are read off the same table (see
    :func:`~tlab.segmenter.freedom`). Treat instances, ``windows``
    included, as immutable.
    """

    n_max: int
    windows: dict[int, dict[str, int]]


def build_model(
    corpus: TextCorpus, n_max: int, line_weights: Sequence[int] | None = None
) -> TransitionModel:
    """Count every in-line window of n characters plus one adjacent character.

    Windows never cross line boundaries and whitespace is an ordinary
    character. Each occurrence adds the line's weight (default 1).

    Only the top order that has a window, ``n_max`` or the longest line's
    length less one if that is lower, is counted by scanning the lines; each
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
    top = min(n_max, max(map(len, lines), default=0) - 1)
    if top < 1:
        return TransitionModel(n_max, {})
    counts: Counter[str] = Counter()
    for line, w in zip(lines, weights):
        grams = (line[i : i + top + 1] for i in range(len(line) - top))
        if w == 1:
            counts.update(grams)
        else:
            for gram in grams:
                counts[gram] += w
    windows: dict[int, dict[str, int]] = {top: counts}
    for n in range(top - 1, 0, -1):
        # a dict, not a Counter: Counter's Python __delitem__ makes each item assignment about 2.3 times slower
        lower: dict[str, int] = {}
        get = lower.get
        for gram, c in counts.items():
            prefix = gram[:-1]
            lower[prefix] = get(prefix, 0) + c
        for line, w in zip(lines, weights):
            if len(line) > n:
                tail = line[-n - 1 :]
                lower[tail] = get(tail, 0) + w
        windows[n] = counts = lower
    return TransitionModel(n_max, windows)


def prune(windows: dict[str, int], min_count: int) -> dict[str, int]:
    """One order's windows with count >= ``min_count``; 0 returns ``windows`` itself."""
    if min_count < 0:
        raise DataError(f"prune threshold must be >= 0, got {min_count}")
    if min_count == 0:
        return windows
    return {w: c for w, c in windows.items() if c >= min_count}


def check_order(n: int, n_max: int) -> None:
    """Reject an order that a model counted up to ``n_max`` does not hold."""
    if not 1 <= n <= n_max:
        raise DataError(f"order {n} outside the model's range 1..{n_max}")


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
    # each order's table, and whether any of its windows may hold a field to escape
    orders = [(n, counts, _MAY_ESCAPE("".join(counts))) for n, counts in sorted(model.windows.items())]
    # each tag's gram and char of a window, and a key sorting its records by (gram, char):
    # for equal-length windows, w[1:] + w[0] sorts as (w[1:], w[0]) and w itself as (w[:-1], w[-1])
    tags = (("b", slice(1, None), 0, lambda w: w[1:] + w[0]), ("f", slice(None, -1), -1, None))
    with open(path, "wb") as out:
        out.write(f"{FORMAT_HEADER} n_max={model.n_max}\n".encode("utf-8"))
        for tag, gram, ch, key in tags:
            for n, counts, may_escape in orders:
                prefix = f"{tag}\t{n}\t"
                text = "".join([
                    f"{prefix}{_escape(w[gram])}\t{_escape(w[ch])}\t{counts[w]}\n"
                    if may_escape and _MAY_ESCAPE(w)
                    else f"{prefix}{w[gram]}\t{w[ch]}\t{counts[w]}\n"
                    for w in sorted(counts, key=key)
                ])
                out.write(text.encode("utf-8"))


def load_model(path: str | Path) -> TransitionModel:
    """Read a model file; its ``b`` records must mirror its ``f`` records exactly.

    The file is read one record at a time into one window table per order. A
    ``b`` record stores its count negated, meaning not yet mirrored, and the
    ``f`` record of the same window stores it back as positive. An ``f``
    record that comes before its ``b`` waits in ``pending``, which stays
    empty for every file :func:`save_model` writes. A record that repeats an
    earlier one (same tag, order, gram and char) is rejected whatever its
    count.
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
        # an order's table is made at its first record, so only orders that have one get a table
        tables: dict[int, dict[str, int]] = defaultdict(dict)
        pending: dict[tuple[int, str], int] = {}  # f records whose b record has not come yet
        confirmed = 0  # windows whose b and f records have both come, with the same count
        orders: dict[str, int] = {}  # each order field's text, parsed once
        for lineno, record in enumerate(lines, start=2):
            # the line's "\n" stays on the count field, which int() reads as it reads a trailing CR
            parts = record.split("\t")
            if len(parts) != 5:
                raise ModelFormatError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}")
            tag, n_text, gram, ch, count_text = parts
            if tag != "f" and tag != "b":
                raise ModelFormatError(f"{path}:{lineno}: unknown direction tag {tag!r}")
            try:
                n = orders.get(n_text) or orders.setdefault(n_text, int(n_text))
                count = int(count_text)
            except ValueError as exc:
                raise ModelFormatError(f"{path}:{lineno}: non-integer field") from exc
            if n < 1 or n > n_max:
                raise ModelFormatError(f"{path}:{lineno}: order {n} outside 1..{n_max}")
            if count < 1:
                raise ModelFormatError(f"{path}:{lineno}: count must be positive")
            if "x" in record:  # an escaped field starts with "x", and the fields parsed above hold none
                if gram.startswith("x"):
                    gram = _unescape(gram)
                if ch.startswith("x"):
                    ch = _unescape(ch)
            if len(gram) != n or len(ch) != 1:
                raise ModelFormatError(f"{path}:{lineno}: field lengths disagree with order")
            table = tables[n]
            # a window is in the table once its b record has come, and positive once its f record has too;
            # a count mismatch leaves the window unconfirmed, so it fails only after every line is checked
            if tag == "b":
                window = ch + gram
                if window in table:
                    raise ModelFormatError(f"{path}:{lineno}: duplicate record")
                if pending and (n, window) in pending:
                    confirmed += pending.pop((n, window)) == count
                    table[window] = count
                else:
                    table[window] = -count
            else:
                window = gram + ch
                stored = table.get(window, 0)  # 0 for a window whose b record has not come
                if stored < 0:
                    confirmed += stored + count == 0
                    table[window] = count
                elif stored or (n, window) in pending:
                    raise ModelFormatError(f"{path}:{lineno}: duplicate record")
                else:
                    pending[n, window] = count
    if pending or confirmed != sum(map(len, tables.values())):
        raise ModelFormatError(f"{path}: backward records do not mirror the forward records")
    return TransitionModel(n_max, dict(tables))
