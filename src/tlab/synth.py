"""Seeded synthetic languages for experiments and validation runs."""

from __future__ import annotations

import random
from itertools import accumulate

from .corpus import DataError, GoldSegmentation, TextCorpus
from .morphology import AffixInventory, FreqLexicon

DEFAULT_ALPHABET = "abcdefghijkl"


def make_vocabulary(
    seed: int,
    size: int = 50,
    alphabet: str = DEFAULT_ALPHABET,
    min_len: int = 2,
    max_len: int = 6,
) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Random distinct words with Zipf-ish sampling weights, 1 / (rank + 1) ** 1.1.

    Asking for more words than there are distinct strings of ``min_len`` to
    ``max_len`` letters of ``alphabet`` raises a :class:`DataError`.
    """
    letters = len(set(alphabet))
    room = sum(letters**length for length in range(min_len, max_len + 1))
    if size > room:
        raise DataError(f"only {room} distinct words of {min_len} to {max_len} letters over {letters} letters, "
                        f"but {size} asked for")
    rng = random.Random(seed)
    words: list[str] = []
    seen = set()
    while len(words) < size:
        length = rng.randint(min_len, max_len)
        word = "".join(rng.choice(alphabet) for _ in range(length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    weights = tuple(1.0 / (rank + 1) ** 1.1 for rank in range(size))
    return tuple(words), weights


def make_segmented_corpus(
    words: tuple[str, ...],
    weights: tuple[float, ...],
    seed: int,
    lines: int = 5000,
    min_words: int = 5,
    max_words: int = 12,
    spaces: bool = True,
) -> tuple[TextCorpus, GoldSegmentation]:
    """Random word sequences with their true word boundaries as gold."""
    rng = random.Random(seed)
    # what choices(weights=...) would accumulate on every call: the same floats, so the same draws
    cum_weights = list(accumulate(weights))
    raw_lines = []
    gold_lines = []
    for _ in range(lines):
        count = rng.randint(min_words, max_words)
        tokens = rng.choices(words, cum_weights=cum_weights, k=count)
        raw_lines.append((" " if spaces else "").join(tokens))
        gold_lines.append(tuple(tokens))
    return TextCorpus(tuple(raw_lines)), GoldSegmentation(tuple(gold_lines))


def make_affixed_lexicon(
    seed: int,
    stems: int = 20,
    suffixes: int = 4,
) -> tuple[FreqLexicon, AffixInventory]:
    """stems x suffixes lexicon whose greedy parse is exactly [stem, suffix].

    Over :data:`DEFAULT_ALPHABET`, stems have 4 to 6 letters, suffixes 2 or
    3, and every word has frequency 1.

    Suffixes are redrawn until none ends another, and stems until none ends
    with a suffix. With no prefixes and a stem floor of 3 letters, the
    greedy parse of stem+suffix strips the intended suffix, and then none
    is left to strip from the stem.
    """
    rng = random.Random(seed)
    letters = len(DEFAULT_ALPHABET)
    suffix_set: list[str] = []
    pairs, tails = 0, set()  # the 2-letter suffixes drawn, and the last two letters of the 3-letter ones
    while len(suffix_set) < suffixes:
        # admissible: a 2-letter string neither drawn nor a tail, a 3-letter one neither drawn nor ending with a pair
        if (letters + 1) * (letters**2 - pairs) - len(tails) - (len(suffix_set) - pairs) == 0:
            raise DataError(f"only {len(suffix_set)} of {suffixes} suffixes drawn: no admissible one is left")
        length = rng.randint(2, 3)
        cand = "".join(rng.choice(DEFAULT_ALPHABET) for _ in range(length))
        if cand in suffix_set:
            continue
        if any(cand.endswith(s) or s.endswith(cand) for s in suffix_set):
            continue
        suffix_set.append(cand)
        if length == 2:
            pairs += 1
        else:
            tails.add(cand[1:])
    inventory = AffixInventory(frozenset(), frozenset(suffix_set), min_stem=3)

    # no suffix ends another, so no string ends with two of them
    room = sum(letters**length - sum(letters ** (length - len(s)) for s in suffix_set) for length in range(4, 7))
    if stems > room:
        raise DataError(f"only {room} strings of 4 to 6 letters end with no suffix, but {stems} stems asked for")
    stem_set: dict[str, None] = {}  # the stems in order of drawing, with a hashed membership test
    suffix_tuple = tuple(suffix_set)
    while len(stem_set) < stems:
        length = rng.randint(4, 6)
        cand = "".join(rng.choice(DEFAULT_ALPHABET) for _ in range(length))
        if cand in stem_set or cand.endswith(suffix_tuple):
            continue
        stem_set[cand] = None

    entries = {stem + suffix: 1 for stem in stem_set for suffix in suffix_set}
    return FreqLexicon(entries), inventory
