"""Test oracles that ``perfbench/reference.py`` does not hold.

Window counts, degrees, profiles and the cut rule come from that one
independent reference, which shares no code with tlab. What is left here
is the model file and the corpus drawer: :func:`bf_load_model` reads a
model file the plain way, one table per record tag and one line at a time,
as the reference for the one-table reader and the runs it skips; :func:`bf_model_text` formats the windows that
``reference.window_counts`` counts one record at a time, as the reference
for the writer; :func:`bf_segmented_corpus` draws every line's words
with the weights passed to ``random.choices`` afresh; and
:func:`bf_greedy_parse` tries every affix of the inventory at every strip
step, as the reference for the parser that tries one length at a time.
"""

from __future__ import annotations

import random
import re

import reference


class BfFormatError(Exception):
    """A model file the reference reader rejects; its message is the one ``load_model`` gives."""


def _bf_unescape(field):
    if field.startswith("x") and len(field) > 1:
        try:
            return bytes.fromhex(field[1:]).decode("utf-8")
        except ValueError:
            pass
    return field


def bf_load_model(path, orders):
    """Read a model file's ``orders`` into one table per record tag and compare the two at the end.

    A record of any other order is checked for its five fields, its tag and
    its order only. Returns ``(n_max, {n: {window: count}})`` with a table
    for each order of ``orders`` that has a record, or raises
    :class:`BfFormatError`.
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
            count = int(count_text) if n in orders else None
        except ValueError as exc:
            raise BfFormatError(f"{path}:{lineno}: non-integer field") from exc
        if n < 1 or n > n_max:
            raise BfFormatError(f"{path}:{lineno}: order {n} outside 1..{n_max}")
        if count is None:
            continue
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
    for tag in ("b", "f"):
        for n in range(1, n_max + 1):
            windows = reference.window_counts(lines, n + 1, weights)
            # the f edge of a window is (gram, following char), the b edge (gram, preceding char)
            edges = sorted(((w[:-1], w[-1]) if tag == "f" else (w[1:], w[0]), count) for w, count in windows.items())
            for (gram, ch), count in edges:
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


def bf_greedy_parse(word, inventory):
    """The greedy affix parse of a non-empty ``word``, each step comparing the
    case-folded piece of every affix's length with that affix."""
    start, end = 0, len(word)
    front = []
    back = []

    def longest(affixes, at_front):
        best = None
        for affix in affixes:
            k = len(affix)
            if end - start - k < inventory.min_stem:
                continue
            piece = word[start : start + k] if at_front else word[end - k : end]
            if piece.casefold() == affix and (best is None or k > len(best)):
                best = affix
        return best

    while True:
        match = longest(inventory.prefixes, at_front=True)
        if match is None:
            break
        front.append(word[start : start + len(match)])
        start += len(match)
    while True:
        match = longest(inventory.suffixes, at_front=False)
        if match is None:
            break
        back.append(word[end - len(match) : end])
        end -= len(match)
    return (*front, word[start:end], *reversed(back))
