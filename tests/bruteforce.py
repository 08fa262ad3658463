"""Independent brute-force reference for the freedom-peak segmenter.

Everything here recomputes window counts, freedom values, profiles and
derivatives directly from the raw training lines on every call. It shares
no code with the package under test. :func:`bf_load_model` reads a model
file the plain way, one table per record tag, as the reference for the
one-table reader, and :func:`bf_model_text` formats one record at a time,
as the reference for the writer. :func:`bf_segmented_corpus` draws every
line's words with the weights passed to ``random.choices`` afresh.
"""

from __future__ import annotations

import random
import re


def window_counts(lines, weights, n, direction):
    """Count every (gram, adjacent char) incidence by direct enumeration."""
    counts = {}
    for line, w in zip(lines, weights):
        for i in range(len(line) - n):
            if direction == "fwd":
                pair = (line[i : i + n], line[i + n])
            else:
                pair = (line[i + 1 : i + 1 + n], line[i])
            counts[pair] = counts.get(pair, 0) + w
    return counts


def bf_successors(lines, weights, n, direction, min_count):
    keep = max(1, min_count)
    succ = {}
    for (gram, ch), count in window_counts(lines, weights, n, direction).items():
        if count >= keep:
            succ.setdefault(gram, set()).add(ch)
    return succ


def bf_freedom(lines, weights, gram, direction, min_count=0):
    succ = bf_successors(lines, weights, len(gram), direction, min_count)
    return len(succ.get(gram, ()))


def bf_max_freedom(lines, weights, n, direction, min_count=0):
    succ = bf_successors(lines, weights, n, direction, min_count)
    return max((len(s) for s in succ.values()), default=0)


def bf_profile(lines, weights, line, n, direction, min_count=0):
    length = len(line)
    if length < 2:
        return []
    top = bf_max_freedom(lines, weights, n, direction, min_count)
    values = []
    for i in range(1, length):
        if direction == "fwd":
            gram = line[i - n : i] if i >= n else None
        else:
            gram = line[i : i + n] if i + n <= length else None
        if top == 0 or gram is None:
            values.append(0.0)
        else:
            values.append(bf_freedom(lines, weights, gram, direction, min_count) / top)
    return values


def bf_segment(lines, weights, line, n, theta, min_count, mode):
    length = len(line)
    if length == 1:
        return [line]
    fwd = bf_profile(lines, weights, line, n, "fwd", min_count)
    bwd = bf_profile(lines, weights, line, n, "bwd", min_count)
    cuts = []
    for i in range(1, length):
        hit = False
        if mode in ("fwd", "union"):
            rise = fwd[i - 1] - (fwd[i - 2] if i >= 2 else 0.0)
            if rise >= theta:
                hit = True
        if not hit and mode in ("bwd", "union"):
            drop = bwd[i - 1] - (bwd[i] if i <= length - 2 else 0.0)
            if drop >= theta:
                hit = True
        if hit:
            cuts.append(i)
    tokens = []
    prev = 0
    for cut in cuts:
        tokens.append(line[prev:cut])
        prev = cut
    tokens.append(line[prev:])
    return tokens


class BfFormatError(Exception):
    """A model file the reference reader rejects; its message is the one ``load_model`` gives."""


def _bf_unescape(field):
    if field.startswith("x") and len(field) > 1:
        try:
            return bytes.fromhex(field[1:]).decode("utf-8")
        except ValueError:
            pass
    return field


def bf_load_model(path):
    """Read a model file into one table per record tag and compare the two at the end.

    Returns ``(n_max, {n: {window: count}})`` with a table for each order
    that has a record, or raises :class:`BfFormatError`.
    """
    with open(path, "rb") as raw:
        data = raw.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BfFormatError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc
    if not text:
        raise BfFormatError(f"{path}: empty model file")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the final newline ends the last line and starts none
    header = re.match(r"^tlab-model v1 n_max=(\d+)$", lines[0])
    if header is None:
        raise BfFormatError(f"{path}: bad header {lines[0]!r}; expected 'tlab-model v1 n_max=<k>'")
    n_max = int(header.group(1))
    if n_max < 1:
        raise BfFormatError(f"{path}: n_max must be >= 1")
    tables = {"f": {}, "b": {}}
    for lineno, record in enumerate(lines[1:], start=2):
        parts = record.split("\t")
        if len(parts) != 5:
            raise BfFormatError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}")
        tag, n_text, gram, ch, count_text = parts
        if tag not in tables:
            raise BfFormatError(f"{path}:{lineno}: unknown direction tag {tag!r}")
        try:
            n = int(n_text)
            count = int(count_text)
        except ValueError as exc:
            raise BfFormatError(f"{path}:{lineno}: non-integer field") from exc
        if n < 1 or n > n_max:
            raise BfFormatError(f"{path}:{lineno}: order {n} outside 1..{n_max}")
        if count < 1:
            raise BfFormatError(f"{path}:{lineno}: count must be positive")
        gram, ch = _bf_unescape(gram), _bf_unescape(ch)
        if len(gram) != n or len(ch) != 1:
            raise BfFormatError(f"{path}:{lineno}: field lengths disagree with order")
        window = gram + ch if tag == "f" else ch + gram
        table = tables[tag].setdefault(n, {})
        if window in table:
            raise BfFormatError(f"{path}:{lineno}: duplicate record")
        table[window] = count
    if tables["f"] != tables["b"]:
        raise BfFormatError(f"{path}: backward records do not mirror the forward records")
    return n_max, tables["f"]


def _bf_escape(field):
    if field.startswith("x") or "\t" in field or "\n" in field or "\r" in field:
        return "x" + field.encode("utf-8").hex()
    return field


def bf_model_text(lines, weights, n_max):
    """The model file of ``lines`` at ``n_max``, each record formatted and escaped on its own.

    All ``b`` records come first, then all ``f`` records, each sorted by
    order, gram and char; an order without a window writes none.
    """
    records = [f"tlab-model v1 n_max={n_max}\n"]
    for tag, direction in (("b", "bwd"), ("f", "fwd")):
        for n in range(1, n_max + 1):
            for (gram, ch), count in sorted(window_counts(lines, weights, n, direction).items()):
                records.append(f"{tag}\t{n}\t{_bf_escape(gram)}\t{_bf_escape(ch)}\t{count}\n")
    return "".join(records)


def bf_segmented_corpus(words, weights, seed, lines, min_words, max_words, spaces):
    """Raw lines and gold token lines of a synthetic corpus, drawn with ``weights=`` on every line."""
    rng = random.Random(seed)
    raw, gold = [], []
    for _ in range(lines):
        tokens = rng.choices(words, weights=weights, k=rng.randint(min_words, max_words))
        raw.append((" " if spaces else "").join(tokens))
        gold.append(tuple(tokens))
    return raw, gold
