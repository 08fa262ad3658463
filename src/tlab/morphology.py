"""Subword segmentation of a frequency lexicon and a greedy affix reference."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

from .corpus import DataError, TextCorpus, _decode, _split_lines
from .metrics import MetricsReport
from .ngram import TransitionModel, build_model, order_freedom
from .segmenter import SegmenterParams, levels, thresholds
from .walk import MorphWalk


class FreqLexicon(NamedTuple):
    """word -> occurrence count; words are non-empty and whitespace-free."""

    entries: dict[str, int]


class AffixInventory(namedtuple("AffixInventory", "prefixes suffixes min_stem", defaults=(3,))):
    """Frozensets of non-empty lowercase ``prefixes`` and ``suffixes``, and
    ``min_stem``, the shortest stem a parse may leave (at least 1)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> AffixInventory:
        inventory = super().__new__(cls, *args, **kwargs)
        if inventory.min_stem < 1:
            raise DataError(f"min_stem must be >= 1, got {inventory.min_stem}")
        for affix in (*inventory.prefixes, *inventory.suffixes):
            if not affix or affix != affix.casefold():
                raise DataError(f"affixes must be non-empty and lowercase, got {affix!r}")
        return inventory


def load_lexicon(path: str | Path) -> FreqLexicon:
    """Read `word<TAB>count` entries; a missing count defaults to 1.

    Blank lines are skipped; duplicate words accumulate their counts.
    """
    entries: dict[str, int] = {}
    for lineno, raw in enumerate(_split_lines(_decode(path)), start=1):
        if not raw.strip():
            continue
        word, _, count_text = raw.partition("\t")
        if not word or any(ch.isspace() for ch in word):
            raise DataError(f"{path}:{lineno}: bad lexicon word {word!r}")
        if count_text:
            try:
                count = int(count_text)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad count {count_text!r}") from exc
            if count < 1:
                raise DataError(f"{path}:{lineno}: count must be positive")
        else:
            count = 1
        entries[word] = entries.get(word, 0) + count
    return FreqLexicon(entries)


def load_affixes(path: str | Path) -> frozenset[str]:
    """One affix per line; blank lines and `#` comment lines are skipped."""
    affixes = set()
    for raw in _split_lines(_decode(path)):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        affixes.add(text.casefold())
    return frozenset(affixes)


def filter_lexicon(lexicon: FreqLexicon, min_word_len: int) -> FreqLexicon:
    """Keep words strictly longer than ``min_word_len``; 0 keeps everything."""
    return FreqLexicon({w: c for w, c in lexicon.entries.items() if len(w) > min_word_len})


def build_morph_model(lexicon: FreqLexicon, n_max: int) -> TransitionModel:
    """Transition model over the lexicon, edge counts weighted by word frequency."""
    if not lexicon.entries:
        raise DataError("cannot build a model from an empty lexicon")
    words = tuple(lexicon.entries)
    weights = tuple(lexicon.entries[w] for w in words)
    return build_model(TextCorpus(words), n_max, line_weights=weights)


@lru_cache(maxsize=32)
def _by_length(affixes: frozenset[str]) -> tuple[tuple[int, frozenset[str]], ...]:
    """``affixes`` grouped by length, as (length, affixes of that length), longest first."""
    lengths = sorted({len(affix) for affix in affixes}, reverse=True)
    return tuple((k, frozenset(affix for affix in affixes if len(affix) == k)) for k in lengths)


def greedy_parse(word: str, inventory: AffixInventory) -> tuple[str, ...]:
    """Strip longest matching prefixes, then longest suffixes, keeping the stem
    at least ``min_stem`` long. Matching is case-folded; pieces keep original
    casing.

    A piece of k scalars is matched only against the affixes of k scalars,
    so a step slices and folds once per distinct affix length, however many
    affixes share it. A piece is never looked up in the whole set: folding
    can lengthen it (``"ß"`` folds to ``"ss"``).
    """
    if not word:
        raise DataError("cannot parse an empty word")
    start, end = 0, len(word)
    floor = inventory.min_stem
    front: list[str] = []
    back: list[str] = []
    prefixes, suffixes = _by_length(inventory.prefixes), _by_length(inventory.suffixes)

    while True:
        for k, affixes in prefixes:
            if end - start - k >= floor and (piece := word[start : start + k]).casefold() in affixes:
                front.append(piece)
                start += k
                break
        else:
            break
    while True:
        for k, affixes in suffixes:
            if end - start - k >= floor and (piece := word[end - k : end]).casefold() in affixes:
                back.append(piece)
                end -= k
                break
        else:
            break
    return (*front, word[start:end], *reversed(back))


def reference_cuts(lexicon: FreqLexicon, inventory: AffixInventory) -> list[frozenset[int]]:
    """Cut positions of every word's greedy parse, in lexicon order."""
    return [frozenset(accumulate(map(len, greedy_parse(word, inventory)[:-1]))) for word in lexicon.entries]


def weighted_morph_f1(
    model: TransitionModel,
    lexicon: FreqLexicon,
    inventory: AffixInventory,
    params: SegmenterParams,
) -> MetricsReport:
    """The :class:`~tlab.walk.MorphWalk` report of freedom-peak parses against
    the greedy reference: frequency-weighted F1, anti-entropy, compression
    factor and the columns derived from them; csf1 and avg3 are None."""
    if not lexicon.entries:
        raise DataError("cannot evaluate an empty lexicon")
    view = order_freedom(model, params.n, params.prune)
    words, table = tuple(lexicon.entries), thresholds(view, (params.peak,), (params.mode,))
    word_levels = [levels(view, word, params.mode, table) for word in words]
    freqs, references = tuple(lexicon.entries.values()), reference_cuts(lexicon, inventory)
    return MorphWalk(words, freqs, references, word_levels, 1).report()
